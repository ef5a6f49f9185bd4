"""Mutation tests for the token-flow lint rules (FL001..FL005).

Mirrors the CR-rule test strategy: prepare a real shared circuit, break
exactly one flow invariant, and assert the matching FL code fires.  The
mutations map one-to-one onto the failure modes the paper motivates
with: a starved cycle (Fig. 1d), head-of-line blocking (Fig. 1b / Eq. 1),
an undersized credit allocation (Eq. 3), and a priority inversion
(Fig. 4 / Algorithm 2).
"""

from fractions import Fraction

import pytest

from repro.circuit import (
    ArbiterMerge,
    CreditCounter,
    DataflowCircuit,
    FunctionalUnit,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.core.wrapper import insert_sharing_wrapper
from repro.lint import run_lint
from repro.pipeline import lint_prepared, predict_ii, prepare_circuit


@pytest.fixture()
def gemm():
    """A freshly prepared gemm/crush circuit (every test mutates it)."""
    return prepare_circuit("gemm", "crush", scale="small")


def _wrapper(prep):
    w = prep.decisions.wrappers[0]
    assert len(w.group) > 1
    return w


def test_prepared_circuits_are_flow_clean(gemm):
    rep = lint_prepared(gemm)
    assert rep.ok, rep.format()
    assert not [d for d in rep.diagnostics if d.code.startswith("FL")]


def test_fl001_fires_on_zero_token_backedge(gemm):
    # Mutation: drain the circulating token off a loop backedge — the
    # marked-graph cycle goes tokenless and can never fire again.
    backedges = [
        ch for ch in gemm.circuit.channels
        if ch.attrs.get("backedge") and int(ch.attrs.get("tokens", 0)) > 0
    ]
    assert backedges
    backedges[0].attrs["tokens"] = 0
    rep = lint_prepared(gemm)
    codes = rep.codes()
    assert "FL001" in codes
    # The exact starved cycle is named in the message.
    assert any("->" in d.message for d in rep.by_code("FL001"))


def test_fl002_fires_when_an_output_buffer_shrinks(gemm):
    # Mutation: shrink one output buffer below its slot's credits —
    # Eq. 1 (N_CC <= N_OB) breaks on the live units.
    w = _wrapper(gemm)
    ob = gemm.circuit.units[w.output_buffers[0]]
    cc = gemm.circuit.units[w.credit_counters[0]]
    assert isinstance(ob, TransparentFifo) and isinstance(cc, CreditCounter)
    ob.slots = cc.initial - 1
    rep = lint_prepared(gemm)
    assert "FL002" in rep.codes()
    assert any("Eq. 1" in d.message for d in rep.by_code("FL002"))


def test_fl003_fires_when_a_credit_is_dropped(gemm):
    # Mutation: drop one credit, so only Eq. 3 is violated.
    w = _wrapper(gemm)
    # Pick a slot whose allocation exceeds one credit (occupancy > 0, so
    # Eq. 3 granted ceil(phi) + 1 >= 2 there); dropping one then starves
    # the slot without hitting the structural minimum.
    cc = next(
        cc for name in w.credit_counters
        if (cc := gemm.circuit.units[name]).initial >= 2
    )
    cc.initial -= 1
    rep = lint_prepared(gemm)
    assert "FL003" in rep.codes()
    assert any("Eq. 3" in d.message for d in rep.by_code("FL003"))


def test_fl004_fires_when_credits_are_overprovisioned(gemm):
    # Mutation: grow a slot's credits and buffer together — Eq. 1 still
    # holds (no FL002) but the surplus credits waste buffer slots (Eq. 3
    # is exact), which is FL004's warning.
    w = _wrapper(gemm)
    cc = gemm.circuit.units[w.credit_counters[0]]
    ob = gemm.circuit.units[w.output_buffers[0]]
    cc.initial += 3
    ob.slots = cc.initial
    rep = lint_prepared(gemm)
    assert "FL004" in rep.codes()
    assert "FL002" not in rep.codes()


def test_fl005_fires_on_priority_inversion():
    # syr2k shares a producer->consumer fadd pair; swapping their arbiter
    # ranks prices a full pipeline pass into the flow graph, lifting the
    # predicted II above the recorded golden.
    prep = prepare_circuit("syr2k", "crush", scale="small")
    base = predict_ii(prep).ii
    assert base is not None

    target = None
    for w in prep.decisions.wrappers:
        if "fadd_0" in w.group and "fadd_1" in w.group:
            target = w
            break
    assert target is not None, "expected a shared fadd_0/fadd_1 group"
    arb = prep.circuit.units[target.arbiter]
    assert isinstance(arb, ArbiterMerge)
    ia = target.group.index("fadd_0")
    ib = target.group.index("fadd_1")
    pa, pb = arb.priority.index(ia), arb.priority.index(ib)
    assert pa < pb, "producer should outrank its consumer before mutation"
    arb.priority[pa], arb.priority[pb] = arb.priority[pb], arb.priority[pa]

    mutated = predict_ii(prep).ii
    assert mutated is not None and mutated > base

    rep = lint_prepared(prep, expected_ii=base)
    codes = rep.codes()
    assert "FL005" in codes
    assert "CR002" in codes  # the decision-record check fires too
    assert any(str(mutated) in d.message for d in rep.by_code("FL005"))


def test_fl005_stays_quiet_without_expected_ii():
    prep = prepare_circuit("syr2k", "crush", scale="small")
    rep = lint_prepared(prep)  # no expected_ii: rule disarmed
    assert "FL005" not in rep.codes()


def _chained_pair(order):
    """Two chained fmul units shared through one fixed-order wrapper.

    ``a`` feeds ``b``, so a grant order that schedules ``b`` before ``a``
    is the order-induced deadlock of the paper's Figure 1d.
    """
    c = DataflowCircuit("fixed-order")
    src = c.add(Sequence("src", [1.0, 2.0, 3.0]))
    a = c.add(FunctionalUnit("a", "fmul", latency_override=3,
                             const_ops={1: 2.0}))
    b = c.add(FunctionalUnit("b", "fmul", latency_override=3,
                             const_ops={1: 2.0}))
    sink = c.add(Sink("sink"))
    c.connect(src, 0, a, 0)
    c.connect(a, 0, b, 0)
    c.connect(b, 0, sink, 0)
    insert_sharing_wrapper(c, ["a", "b"], arbitration="fixed",
                           fixed_order=order)
    return c


def test_fl001_fires_on_fixed_order_against_the_dataflow():
    rep = run_lint(_chained_pair(["b", "a"]))
    assert "FL001" in rep.codes(), rep.format()


def test_fixed_order_matching_the_dataflow_is_live():
    rep = run_lint(_chained_pair(["a", "b"]))
    assert "FL001" not in rep.codes(), rep.format()
