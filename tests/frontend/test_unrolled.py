"""The unrolled gesummv builder (Table 1 substrate)."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.circuit import FunctionalUnit
from repro.core import crush
from repro.errors import FrontendError
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels.unrolled import gesummv_unrolled


def census(circuit):
    out = {}
    for u in circuit.units_of_type(FunctionalUnit):
        if u.spec.shareable:
            out[u.op] = out.get(u.op, 0) + 1
    return out


class TestUnrolledGesummv:
    def test_op_counts_scale_with_factor(self):
        k = gesummv_unrolled(factor=4, n=8)
        low = lower_kernel(k, "bb")
        c = census(low.circuit)
        # 2 MACs per lane + reduction trees (2*(factor-1)) + epilogue fadd.
        assert c["fadd"] == 2 * 4 + 2 * 3 + 1
        assert c["fmul"] == 2 * 4 + 2

    def test_factor_must_divide_n(self):
        with pytest.raises(FrontendError, match="multiple"):
            gesummv_unrolled(factor=3, n=8)

    def test_simulates_correctly_small(self):
        k = gesummv_unrolled(factor=3, n=6)
        low = lower_kernel(k, "bb")
        place_buffers(low.circuit, critical_cfcs(low.circuit))
        simulate_kernel(low, max_cycles=500_000)  # raises on a mismatch

    def test_crush_respects_r2_capacity(self):
        k = gesummv_unrolled(factor=6, n=6)
        low = lower_kernel(k, "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        res = crush(low.circuit, cfcs)
        from repro.analysis import occupancy_map, group_occupancy_in_cfc, unit_capacity

        # Every group honors R2 in every CFC: Σ occupancy <= capacity.
        for group in res.shared_groups():
            for cfc in cfcs:
                members = [op for op in group if op in cfc.unit_names]
                if not members:
                    continue
                total = sum(res.occupancies[m] for m in members)
                cap = 10 if "fadd" in members[0] else 4
                assert total <= cap

    def test_crush_shares_down_dramatically(self):
        k = gesummv_unrolled(factor=8, n=8)
        low = lower_kernel(k, "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        before = sum(census(low.circuit).values())
        crush(low.circuit, cfcs)
        after = sum(census(low.circuit).values())
        assert after <= before / 4
