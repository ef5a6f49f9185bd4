"""Fast-token lowering of every benchmark: simulation + style deltas."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import KERNEL_NAMES, build


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_fast_token_simulates_and_verifies(name):
    lowered = lower_kernel(build(name, scale="small"), "fast-token")
    place_buffers(lowered.circuit, critical_cfcs(lowered.circuit))
    simulate_kernel(lowered, max_cycles=500_000)  # raises on a mismatch


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_fast_token_never_more_units_than_bb(name):
    bb = lower_kernel(build(name, scale="small"), "bb")
    ft = lower_kernel(build(name, scale="small"), "fast-token")
    assert len(ft.circuit.units) <= len(bb.circuit.units)


@pytest.mark.parametrize("name", ["atax", "gsum", "gemm"])
def test_fast_token_cycles_not_above_bb(name):
    rows = {}
    for style in ("bb", "fast-token"):
        lowered = lower_kernel(build(name, scale="small"), style)
        place_buffers(lowered.circuit, critical_cfcs(lowered.circuit))
        rows[style] = simulate_kernel(lowered, max_cycles=500_000).cycles
    assert rows["fast-token"] <= rows["bb"] * 1.02
