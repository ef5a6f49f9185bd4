"""Mutation tests for the credit-system lint rules (CR001..CR003).

Each test prepares a real shared circuit (or builds a small one), breaks
exactly one invariant of the paper's sharing machinery, and asserts the
matching rule fires under its stable code.  Eq. 1 on the built wrapper
units is FL002's; CR001 audits the decision record against them.
"""

import pytest

from repro.circuit import (
    CreditCounter,
    DataflowCircuit,
    FunctionalUnit,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.core.crush import SharingResult
from repro.core.wrapper import insert_sharing_wrapper
from repro.lint import run_lint
from repro.pipeline import lint_prepared, prepare_circuit


@pytest.fixture()
def prep():
    """A freshly prepared gsum/crush circuit (every test mutates it)."""
    return prepare_circuit("gsum", "crush", scale="small")


def _wrapper(prep):
    w = prep.decisions.wrappers[0]
    assert len(w.group) > 1
    return w


def test_prepared_crush_circuit_is_clean(prep):
    rep = lint_prepared(prep)
    assert rep.ok, rep.format()


def test_cr001_fires_when_credits_exceed_ob_slots(prep):
    w = _wrapper(prep)
    cc = prep.circuit.units[w.credit_counters[0]]
    ob = prep.circuit.units[w.output_buffers[0]]
    assert isinstance(cc, CreditCounter) and isinstance(ob, TransparentFifo)
    cc.initial = ob.slots + 1  # mutation: overcommit the slot
    rep = lint_prepared(prep)
    # Eq. 1 on the built units is FL002's; CR001 reports the drift from
    # the decision record, once.
    assert {d.code for d in rep.errors} == {"CR001", "FL002"}
    assert any("Eq. 1 requires N_CC <= N_OB" in d.message
               for d in rep.by_code("FL002"))
    [drift] = rep.by_code("CR001")
    assert "drifted from the decided N_CC" in drift.message


def test_cr001_fires_when_an_ob_slot_is_dropped(prep):
    w = _wrapper(prep)
    ob = prep.circuit.units[w.output_buffers[0]]
    cc = prep.circuit.units[w.credit_counters[0]]
    assert cc.initial >= 2  # Eq. 3 always grants at least phi+1 >= 2 here
    ob.slots = cc.initial - 1  # mutation: shrink the output buffer
    rep = lint_prepared(prep)
    assert sorted(d.code for d in rep.errors) == ["CR001", "FL002"]
    assert "Eq. 1 requires N_CC <= N_OB" in rep.by_code("FL002")[0].message
    assert "drifted from the decided N_OB" in rep.by_code("CR001")[0].message


def _two_stream_circuit():
    """Two independent streams through two identical fmul units."""
    c = DataflowCircuit("naive")
    for i in range(2):
        src = c.add(Sequence(f"src{i}", [1.0, 2.0]))
        m = c.add(FunctionalUnit(f"m{i}", "fmul", latency_override=3,
                                 const_ops={1: 2.0}))
        sink = c.add(Sink(f"sink{i}"))
        c.connect(src, 0, m, 0)
        c.connect(m, 0, sink, 0)
    return c


def test_cr001_fires_on_the_naive_uncredited_wrapper():
    # No decision record, so nothing for CR001 to audit: the unbounded
    # in-flight results are FL002's, reported once for the wrapper.
    c = _two_stream_circuit()
    insert_sharing_wrapper(c, ["m0", "m1"], use_credits=False)
    rep = run_lint(c, cfcs=[])
    assert [d.code for d in rep.errors] == ["FL002"]
    assert "no credit counters" in rep.errors[0].message


def test_credited_wrapper_is_cr001_clean_even_without_decisions():
    c = _two_stream_circuit()
    insert_sharing_wrapper(c, ["m0", "m1"], use_credits=True)
    rep = run_lint(c, cfcs=[])  # no decision record
    assert "CR001" not in rep.codes()


def test_cr002_fires_on_reversed_access_priority(prep):
    w = _wrapper(prep)
    assert w.order_constraints  # gsum has real deps
    arb = prep.circuit.units[w.arbiter]
    arb.priority = list(reversed(arb.priority))  # mutation: invert Alg. 2
    rep = lint_prepared(prep)
    assert "CR002" in [d.code for d in rep.errors]
    msgs = [d.message for d in rep.by_code("CR002")]
    assert any("above its producer" in m for m in msgs)
    assert any("drifted from the decided priority" in m for m in msgs)


def test_cr003_fires_when_recorded_load_exceeds_capacity(prep):
    w = _wrapper(prep)
    assert w.group_load is not None
    # Mutation: pretend the decision pass accepted an impossible load.
    w.group_load = 10_000
    rep = lint_prepared(prep)
    assert "CR003" in [d.code for d in rep.errors]
    assert any("rule R2" in d.message for d in rep.by_code("CR003"))


def test_cr003_fires_pre_rewrite_on_a_mixed_op_group():
    c = DataflowCircuit("mixed")
    src = c.add(Sequence("src", [1.0]))
    a = c.add(FunctionalUnit("a", "fadd", const_ops={1: 1.0}))
    m = c.add(FunctionalUnit("m", "fmul", const_ops={1: 2.0}))
    sink = c.add(Sink("sink"))
    c.connect(src, 0, a, 0)
    c.connect(a, 0, m, 0)
    c.connect(m, 0, sink, 0)
    decisions = SharingResult(groups=[["a", "m"]])
    rep = run_lint(c, decisions=decisions, cfcs=[])
    assert "CR003" in [d.code for d in rep.errors]
    assert any("rule R1" in d.message for d in rep.by_code("CR003"))
