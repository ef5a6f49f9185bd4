"""Naive and In-order baselines."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.baselines import (
    inorder_share,
    naive_share,
    order_preserves_ii,
    total_order_of,
)
from repro.circuit import FunctionalUnit
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import build


def prepared(name):
    low = lower_kernel(build(name, scale="small"), "bb")
    cfcs = critical_cfcs(low.circuit)
    place_buffers(low.circuit, cfcs)
    return low, cfcs


def fp_census(circuit):
    census = {}
    for u in circuit.units_of_type(FunctionalUnit):
        if u.spec.shareable and not u.bundled:
            census[u.op] = census.get(u.op, 0) + 1
    return census


class TestNaive:
    def test_noop(self):
        low, cfcs = prepared("atax")
        before = dict(fp_census(low.circuit))
        res = naive_share(low.circuit, cfcs)
        assert fp_census(low.circuit) == before
        assert res.groups == ()


class TestTotalOrder:
    def test_order_follows_cfc_then_topology(self):
        low, cfcs = prepared("atax")
        from repro.core import sharing_candidates

        fadds = [n for n in sharing_candidates(low.circuit)
                 if low.circuit.unit(n).op == "fadd"]
        order = total_order_of(fadds, cfcs)
        assert sorted(order) == sorted(fadds)

    def test_parallel_ops_order_safe(self):
        # gesummv's two accumulators don't depend on each other: a total
        # order preserves the II.
        low, cfcs = prepared("gesummv")
        from repro.core import sharing_candidates

        fadds = [n for n in sharing_candidates(low.circuit)
                 if low.circuit.unit(n).op == "fadd"]
        in_cfc = [n for n in fadds if any(n in c.unit_names for c in cfcs)]
        assert len(in_cfc) >= 2
        assert order_preserves_ii(low.circuit, cfcs, in_cfc[:2])

    def test_chained_ops_order_unsafe(self):
        # gsum's polynomial fadds form a long data chain: the wrap-around
        # ordering edge would stretch the II (paper Figure 2 / Section 3).
        low, cfcs = prepared("gsum")
        from repro.core import sharing_candidates

        fadds = [n for n in sharing_candidates(low.circuit)
                 if low.circuit.unit(n).op == "fadd"]
        # Find a chained pair: one fadd feeding (transitively) another.
        assert not order_preserves_ii(low.circuit, cfcs, fadds)


class TestInOrderPass:
    def test_shares_fully_on_regular_kernels(self):
        low, cfcs = prepared("atax")
        res = inorder_share(low.circuit, cfcs)
        assert fp_census(low.circuit) == {}  # all originals wrapped
        bundled = [u for u in low.circuit.units_of_type(FunctionalUnit) if u.bundled]
        assert {u.op for u in bundled} == {"fadd", "fmul"}
        assert res.evaluations > 0

    def test_cannot_share_gsum_chains(self):
        low, cfcs = prepared("gsum")
        res = inorder_share(low.circuit, cfcs)
        leftover = fp_census(low.circuit)
        # CRUSH gets this to zero leftovers; In-order cannot share the
        # chained polynomial operations.
        assert sum(leftover.values()) >= 6

    def test_partial_sharing_on_gsumif(self):
        low, cfcs = prepared("gsumif")
        naive_fadds = 7
        res = inorder_share(low.circuit, cfcs)
        shared_groups = [g for g in res.groups if len(g) > 1]
        assert shared_groups  # shares something (cross-branch pairs)...
        leftover = fp_census(low.circuit)
        total_left = sum(leftover.values()) + len(shared_groups)
        assert total_left > 2  # ...but far from CRUSH's 1 fadd + 1 fmul

    def test_simulates_correctly_after_sharing(self):
        low, cfcs = prepared("mvt")
        inorder_share(low.circuit, cfcs)
        simulate_kernel(low, max_cycles=200000)  # raises on a mismatch

    def test_opt_time_exceeds_crush(self):
        from repro.core import crush

        low1, cfcs1 = prepared("gsumif")
        r1 = inorder_share(low1.circuit, cfcs1)
        low2, cfcs2 = prepared("gsumif")
        r2 = crush(low2.circuit, cfcs2)
        assert r1.opt_time_s > r2.opt_time_s

    def test_arbiter_tagged_for_resource_model(self):
        low, cfcs = prepared("atax")
        res = inorder_share(low.circuit, cfcs)
        for w in res.wrappers:
            assert low.circuit.unit(w.arbiter).meta.get("order_state")
