"""Property-based tests tying static lint to the codegen backend.

The contract the lint subsystem advertises: a circuit with no lint
*errors* is safe to hand to :class:`CodegenEngine` — in particular it
never dies with :class:`CombinationalCycleError` at build time (that is
exactly what ST005 screens for).  We generate random fully-connected
choice-free circuits (chains, joins, forks, buffers, pipelined and
combinational operators) and check both directions of the agreement.
"""

from hypothesis import given, settings, strategies as st

from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    Join,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.errors import CombinationalCycleError
from repro.lint import run_lint
from repro.sim import CodegenEngine

STEPS = st.lists(
    st.sampled_from(["eb", "tf", "pass", "fadd", "fmul", "join", "fork"]),
    min_size=0,
    max_size=12,
)


def build_choice_free(n_sources, steps):
    """Grow a random choice-free DAG; every port ends up connected."""
    c = DataflowCircuit("random")
    open_outs = []
    for i in range(n_sources):
        u = c.add(Sequence(f"src{i}", [1.0, 2.0]))
        open_outs.append((u, 0))
    for i, kind in enumerate(steps):
        if kind == "join":
            if len(open_outs) < 2:
                continue
            a = open_outs.pop(0)
            b = open_outs.pop(0)
            u = c.add(Join(f"j{i}", 2))
            c.connect(a[0], a[1], u, 0)
            c.connect(b[0], b[1], u, 1)
            open_outs.append((u, 0))
        elif kind == "fork":
            a = open_outs.pop(0)
            u = c.add(EagerFork(f"f{i}", 2))
            c.connect(a[0], a[1], u, 0)
            open_outs.extend([(u, 0), (u, 1)])
        elif kind in ("eb", "tf"):
            a = open_outs.pop(0)
            cls = ElasticBuffer if kind == "eb" else TransparentFifo
            u = c.add(cls(f"b{i}"))
            c.connect(a[0], a[1], u, 0)
            open_outs.append((u, 0))
        else:  # unary view of a functional unit (second operand folded)
            a = open_outs.pop(0)
            const = {} if kind == "pass" else {1: 2.0}
            u = c.add(FunctionalUnit(f"u{i}", kind, const_ops=const or None))
            c.connect(a[0], a[1], u, 0)
            open_outs.append((u, 0))
    for i, (u, p) in enumerate(open_outs):
        s = c.add(Sink(f"sink{i}"))
        c.connect(u, p, s, 0)
    return c


@settings(max_examples=40, deadline=None)
@given(n_sources=st.integers(1, 3), steps=STEPS)
def test_lint_clean_choice_free_circuits_compile(n_sources, steps):
    c = build_choice_free(n_sources, steps)
    rep = run_lint(c, cfcs=[])
    # Fully-connected acyclic choice-free circuits must lint clean...
    assert not rep.errors, rep.format()
    # ...and the codegen backend must accept them (no cycle error).
    CodegenEngine(c)


def _with_ring(n_sources, steps, registered):
    """The random DAG plus a disjoint feedback ring; ``registered``
    selects whether the ring contains a sequential element."""
    c = build_choice_free(n_sources, steps)
    a = c.add(TransparentFifo("ring_a"))
    cls = ElasticBuffer if registered else TransparentFifo
    b = c.add(cls("ring_b"))
    c.connect(a, 0, b, 0)
    c.connect(b, 0, a, 0, tokens=1)
    return c


@settings(max_examples=40, deadline=None)
@given(n_sources=st.integers(1, 2), steps=STEPS)
def test_st005_agrees_with_codegen_engine(n_sources, steps):
    """Lint's ST005 verdict and CodegenEngine's build-time
    CombinationalCycleError must agree exactly, whatever surrounds the
    ring."""
    # Transparent through both arms: ST005 fires, the engine refuses.
    bad = _with_ring(n_sources, steps, registered=False)
    assert "ST005" in run_lint(bad, cfcs=[]).codes()
    try:
        CodegenEngine(bad)
        raise AssertionError("expected CombinationalCycleError")
    except CombinationalCycleError:
        pass
    # One registered arm: both verdicts clear.
    good = _with_ring(n_sources, steps, registered=True)
    assert "ST005" not in run_lint(good, cfcs=[]).codes()
    CodegenEngine(good)
