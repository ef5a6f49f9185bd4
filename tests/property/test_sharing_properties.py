"""Property-based tests on the sharing machinery.

The master invariant of CRUSH: for *any* set of independent same-type
operations, any priority permutation, and any credit allocation satisfying
Equation 1, the shared circuit is deadlock-free and produces exactly the
results of the unshared circuit.
"""

from hypothesis import given, settings, strategies as st

from repro.circuit import DataflowCircuit, FunctionalUnit, Sequence, Sink
from repro.core import insert_sharing_wrapper
from repro.frontend.interp import run_reference
from repro.sim import Engine


def build_parallel_ops(n_ops, tokens_per_op, op="fmul"):
    """n independent streams, each through its own operator."""
    c = DataflowCircuit("t")
    sinks = []
    names = []
    expected = []
    for i in range(n_ops):
        vals = [float(i * 10 + k) for k in range(tokens_per_op)]
        const = float(i + 2)
        a = c.add(Sequence(f"a{i}", vals))
        k = c.add(Sequence(f"k{i}", [const] * tokens_per_op))
        fu = c.add(FunctionalUnit(f"op{i}", op))
        s = c.add(Sink(f"s{i}"))
        c.connect(a, 0, fu, 0)
        c.connect(k, 0, fu, 1)
        c.connect(fu, 0, s, 0)
        sinks.append(s)
        names.append(f"op{i}")
        expected.append([v * const for v in vals])
    c.validate()
    return c, names, sinks, expected


@settings(max_examples=30, deadline=None)
@given(
    n_ops=st.integers(min_value=2, max_value=5),
    tokens=st.integers(min_value=1, max_value=6),
    credit_seed=st.integers(min_value=0, max_value=10_000),
    prio_seed=st.integers(min_value=0, max_value=10_000),
)
def test_sharing_preserves_semantics_for_any_config(
    n_ops, tokens, credit_seed, prio_seed
):
    import random

    c, names, sinks, expected = build_parallel_ops(n_ops, tokens)
    rng = random.Random(credit_seed)
    credits = {nm: rng.randint(1, 4) for nm in names}
    prio = list(names)
    random.Random(prio_seed).shuffle(prio)
    insert_sharing_wrapper(c, names, priority=prio, credits=credits)
    Engine(c).run(
        lambda: all(s.count == tokens for s in sinks), max_cycles=50_000
    )
    for s, exp in zip(sinks, expected):
        assert s.received == exp


@settings(max_examples=20, deadline=None)
@given(
    n_ops=st.integers(min_value=2, max_value=4),
    tokens=st.integers(min_value=1, max_value=5),
    order_seed=st.integers(min_value=0, max_value=10_000),
)
def test_fixed_order_safe_for_independent_ops(n_ops, tokens, order_seed):
    # With *independent* operations a fixed order cannot deadlock (each op
    # produces a request every iteration); results must stay correct.
    import random

    c, names, sinks, expected = build_parallel_ops(n_ops, tokens)
    order = list(names)
    random.Random(order_seed).shuffle(order)
    insert_sharing_wrapper(
        c, names, arbitration="fixed", fixed_order=order,
        credits={nm: 2 for nm in names},
    )
    Engine(c).run(
        lambda: all(s.count == tokens for s in sinks), max_cycles=50_000
    )
    for s, exp in zip(sinks, expected):
        assert s.received == exp


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=4),
    style=st.sampled_from(["bb", "fast-token"]),
)
def test_random_kernel_crush_equivalence(seed, n, style):
    """Random small reduction kernels: CRUSH-shared circuit == reference."""
    import random

    from repro.analysis import critical_cfcs, place_buffers
    from repro.core import crush
    from repro.frontend import (
        Array,
        Const,
        For,
        IConst,
        Kernel,
        Load,
        Param,
        SetCarried,
        Store,
        Var,
        lower_kernel,
        simulate_kernel,
    )
    from repro.frontend.ir import Bin

    rng = random.Random(seed)
    ops = ["fadd", "fmul"]
    expr = Load("a", Var("i"))
    for _ in range(rng.randint(1, 3)):
        expr = Bin(rng.choice(ops), expr, Const(round(rng.uniform(0.5, 2.0), 2)))
    k = Kernel(
        "rand",
        {"N": n},
        [Array("a", "N"), Array("out", 1, role="out")],
        [
            For("i", IConst(0), Param("N"), carried={"s": Const(0.0)},
                body=[SetCarried("s", Bin("fadd", Var("s"), expr))]),
            Store("out", IConst(0), Var("s")),
        ],
    )
    low = lower_kernel(k, style)
    cfcs = critical_cfcs(low.circuit)
    place_buffers(low.circuit, cfcs)
    crush(low.circuit, cfcs)
    simulate_kernel(low, max_cycles=200_000)  # raises on a mismatch
