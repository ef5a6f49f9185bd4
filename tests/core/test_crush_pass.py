"""The top-level CRUSH pass on lowered kernels."""

from repro.analysis import critical_cfcs, place_buffers
from repro.circuit import CreditCounter, FunctionalUnit
from repro.core import crush
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import build


def prepared(name, style="bb"):
    low = lower_kernel(build(name, scale="small"), style)
    cfcs = critical_cfcs(low.circuit)
    place_buffers(low.circuit, cfcs)
    return low, cfcs


class TestCrushPass:
    def test_gemm_collapses_to_one_unit_per_type(self):
        low, cfcs = prepared("gemm")
        res = crush(low.circuit, cfcs)
        shared = [u for u in low.circuit.units_of_type(FunctionalUnit) if u.bundled]
        assert {u.op for u in shared} == {"fmul"}  # 1 fadd stays unshared
        census = {}
        for u in low.circuit.units_of_type(FunctionalUnit):
            if u.spec.shareable:
                census[u.op] = census.get(u.op, 0) + 1
        assert census == {"fadd": 1, "fmul": 1}

    def test_result_records_decisions(self):
        low, cfcs = prepared("gesummv")
        res = crush(low.circuit, cfcs)
        assert res.units_removed() > 0
        assert res.shared_groups()
        # One wrapper record per shared group holds the group's decisions.
        assert [w.group for w in res.wrappers] == res.shared_groups()
        for w in res.wrappers:
            assert sorted(w.priority) == sorted(w.group)
            assert set(w.credits) == set(w.group)
            assert all(v >= 1 for v in w.credits.values())
            assert w.ob_slots == w.credits  # Eq. 1 met with equality
            assert w.group_load is not None
            assert all(a in w.group and b in w.group
                       for a, b in w.order_constraints)
            assert {low.circuit.units[n].meta["wrapper"]
                    for n in w.all_unit_names()} == {w.base}
        assert res.opt_time_s > 0

    def test_credits_follow_equation3(self):
        low, cfcs = prepared("gemm")
        res = crush(low.circuit, cfcs)
        for w in res.wrappers:
            for op, n_cc in w.credits.items():
                occ = res.occupancies.get(op, 0)
                import math

                assert n_cc == max(1, math.ceil(occ) + 1)
                assert w.ob_slots[op] >= n_cc  # Equation 1

    def test_shared_circuit_simulates_correctly(self):
        low, cfcs = prepared("atax")
        crush(low.circuit, cfcs)
        simulate_kernel(low, max_cycles=200000)  # raises on a mismatch

    def test_crush_on_fast_token_style(self):
        low, cfcs = prepared("bicg", style="fast-token")
        res = crush(low.circuit, cfcs)
        assert res.shared_groups()
        simulate_kernel(low, max_cycles=200000)  # raises on a mismatch

    def test_no_candidates_is_a_noop(self):
        low, cfcs = prepared("gemm")
        res = crush(low.circuit, cfcs, candidates=[])
        assert res.groups == []
        assert res.wrappers == []
        assert not any(isinstance(u, CreditCounter) for u in low.circuit.units.values())
