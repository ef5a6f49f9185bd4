"""The benchmark suite: censuses, registry, end-to-end verification."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.circuit import FunctionalUnit
from repro.errors import FrontendError
from repro.frontend import lower_kernel, run_reference, simulate_kernel, default_inputs
from repro.frontend.kernels import KERNEL_NAMES, SMALL_SIZES, build

#: Floating-point census of every kernel, exactly the paper's Table 2
#: "Functional units" column for the Naive technique.
PAPER_CENSUS = {
    "atax": {"fadd": 2, "fmul": 2},
    "bicg": {"fadd": 2, "fmul": 2},
    "gsum": {"fadd": 5, "fmul": 4},
    "gsumif": {"fadd": 7, "fmul": 4},
    "2mm": {"fadd": 2, "fmul": 4},
    "3mm": {"fadd": 3, "fmul": 3},
    "symm": {"fadd": 4, "fmul": 7},
    "gemm": {"fadd": 1, "fmul": 3},
    "gesummv": {"fadd": 3, "fmul": 4},
    "mvt": {"fadd": 2, "fmul": 2},
    "syr2k": {"fadd": 2, "fmul": 5},
    # Irregular-memory kernels (not in the paper's table): data-dependent
    # addressing, exercised by the memory-dependence analyzer.
    "histogram": {"fadd": 1},
    "spmv": {"fadd": 1, "fmul": 1},
    "pointer_chase": {"fadd": 1, "fmul": 1},
}

#: DSP counts implied by fadd=2, fmul=3 DSPs, matching Table 2 exactly.
PAPER_DSPS = {
    "atax": 10, "bicg": 10, "gsum": 22, "gsumif": 26, "2mm": 16,
    "3mm": 15, "symm": 29, "gemm": 11, "gesummv": 18, "mvt": 10, "syr2k": 19,
    "histogram": 2, "spmv": 5, "pointer_chase": 5,
}


def census(circuit):
    out = {}
    for u in circuit.units_of_type(FunctionalUnit):
        if u.spec.shareable:
            out[u.op] = out.get(u.op, 0) + 1
    return out


class TestRegistry:
    def test_all_names_listed(self):
        assert set(KERNEL_NAMES) == set(PAPER_CENSUS)
        assert set(SMALL_SIZES) == set(PAPER_CENSUS)

    def test_unknown_kernel(self):
        with pytest.raises(FrontendError, match="unknown kernel"):
            build("nonsense")

    def test_unknown_scale(self):
        with pytest.raises(FrontendError, match="scale"):
            build("gemm", scale="huge")

    def test_size_overrides(self):
        k = build("gemm", scale="small", NI=2)
        assert k.params["NI"] == 2


@pytest.mark.parametrize("name", KERNEL_NAMES)
class TestPerKernel:
    def test_census_matches_paper(self, name):
        low = lower_kernel(build(name, scale="small"), "bb")
        assert census(low.circuit) == PAPER_CENSUS[name]

    def test_census_same_in_fast_token(self, name):
        low = lower_kernel(build(name, scale="small"), "fast-token")
        assert census(low.circuit) == PAPER_CENSUS[name]

    def test_dsp_count_matches_paper(self, name):
        from repro.resources import estimate_circuit

        low = lower_kernel(build(name, scale="small"), "bb")
        place_buffers(low.circuit, critical_cfcs(low.circuit))
        assert estimate_circuit(low.circuit).dsp == PAPER_DSPS[name]

    def test_simulates_and_verifies(self, name):
        low = lower_kernel(build(name, scale="small"), "bb")
        place_buffers(low.circuit, critical_cfcs(low.circuit))
        run = simulate_kernel(low, max_cycles=500_000)
        assert run.cycles > 0

    def test_all_inner_loops_have_ii_above_one(self, name):
        # The paper's precondition: every kernel has II > 1, so units are
        # underutilized and shareable without performance penalty.
        low = lower_kernel(build(name, scale="small"), "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        assert cfcs
        assert all(cfc.ii().ii > 1 for cfc in cfcs)


class TestDeterminism:
    def test_default_inputs_reproducible(self):
        k = build("gemm", scale="small")
        a = default_inputs(k, seed=3)
        b = default_inputs(k, seed=3)
        assert all((a[x] == b[x]).all() for x in a)

    def test_gsum_condition_actually_irregular(self):
        # The guarded branch must be taken for some inputs and not others,
        # otherwise the kernel degenerates to a regular one.
        k = build("gsum", scale="small")
        data = default_inputs(k)
        assert (data["a"] >= 0).any() and (data["a"] < 0).any()

    def test_reference_op_counts_scale_with_size(self):
        k_small = build("gemm", scale="small")
        k_big = build("gemm", scale="small", NI=6)
        r1 = run_reference(k_small, default_inputs(k_small))
        r2 = run_reference(k_big, default_inputs(k_big))
        assert r2.op_counts["fadd"] > r1.op_counts["fadd"]
