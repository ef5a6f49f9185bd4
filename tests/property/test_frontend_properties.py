"""Property-based tests: random kernels, lowering == reference semantics.

The strongest frontend invariant: for randomly generated loop nests with
random expression DAGs, conditionals and memory read-modify-writes, the
simulated circuit (in both lowering styles) computes exactly what the
reference interpreter computes, and never deadlocks.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import critical_cfcs, place_buffers
from repro.frontend import (
    Array,
    Const,
    For,
    IConst,
    If,
    Kernel,
    Let,
    Load,
    Param,
    SetCarried,
    Store,
    Var,
    lower_kernel,
    simulate_kernel,
)
from repro.frontend.ir import Bin


def random_expr(rng, depth, names):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.5:
            return Load("a", Var("i"))
        if choice < 0.8 and names:
            return Var(rng.choice(names))
        return Const(round(rng.uniform(-1.5, 1.5), 2))
    op = rng.choice(["fadd", "fsub", "fmul"])
    return Bin(op, random_expr(rng, depth - 1, names),
               random_expr(rng, depth - 1, names))


def random_kernel(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    body = [Let("d", Load("a", Var("i")))]
    names = ["d"]
    stmts = rng.randint(1, 3)
    for _ in range(stmts):
        kind = rng.random()
        if kind < 0.4:
            body.append(SetCarried("s", Bin("fadd", Var("s"),
                                            random_expr(rng, 2, names))))
        elif kind < 0.7:
            cond = Bin("fcmp_ge", Var("d"), Const(0.0))
            body.append(If(cond,
                           [SetCarried("s", Bin("fadd", Var("s"),
                                                random_expr(rng, 1, names)))],
                           [SetCarried("s", Bin("fmul", Var("s"),
                                                Const(0.9)))] if rng.random() < 0.5 else []))
        else:
            # Memory read-modify-write on a second array.
            body.append(Store("y", Var("i"), Bin("fadd",
                        Load("y", Var("i")), random_expr(rng, 1, names))))
    return Kernel(
        f"rand{seed}",
        {"N": n},
        [Array("a", "N"), Array("y", "N", role="inout"),
         Array("out", 1, role="out")],
        [
            For("i", IConst(0), Param("N"), carried={"s": Const(0.0)},
                body=body),
            Store("out", IConst(0), Var("s")),
        ],
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), style=st.sampled_from(["bb", "fast-token"]))
def test_random_kernels_simulate_to_reference(seed, style):
    kernel = random_kernel(seed)
    lowered = lower_kernel(kernel, style)
    place_buffers(lowered.circuit, critical_cfcs(lowered.circuit))
    simulate_kernel(lowered, max_cycles=300_000)  # raises on a mismatch


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_kernels_survive_crush(seed):
    from repro.core import crush

    kernel = random_kernel(seed)
    lowered = lower_kernel(kernel, "bb")
    cfcs = critical_cfcs(lowered.circuit)
    place_buffers(lowered.circuit, cfcs)
    crush(lowered.circuit, cfcs)
    simulate_kernel(lowered, max_cycles=300_000)  # raises on a mismatch


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_kernels_survive_inorder(seed):
    from repro.baselines import inorder_share

    kernel = random_kernel(seed)
    lowered = lower_kernel(kernel, "bb")
    cfcs = critical_cfcs(lowered.circuit)
    place_buffers(lowered.circuit, cfcs)
    inorder_share(lowered.circuit, cfcs)
    simulate_kernel(lowered, max_cycles=300_000)  # raises on a mismatch
