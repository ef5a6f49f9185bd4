"""Algorithm 1 (grouping: R1/R2/R3), Algorithm 2 (priority), Eq. 2/3."""

from fractions import Fraction

import pytest

from repro.analysis import cfc_of_units, critical_cfcs, occupancy_map
from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    Merge,
    Sequence,
    Sink,
)
from repro.core import (
    SharingCostModel,
    access_priority,
    allocate_credits,
    check_r1,
    check_r2,
    check_r3,
    credits_for_op,
    insert_sharing_wrapper,
    sharing_candidates,
    sharing_groups,
)
from repro.core.standalone import build_standalone_group


def chain_cfc_circuit():
    """A loop CFC where f1 feeds f2 (different SCC positions) plus an
    accumulator cycle through f2: merge -> f1 -> f2 -> eb -> merge."""
    c = DataflowCircuit("t")
    src = c.add(Sequence("src", [0.0]))
    m = c.add(Merge("m", 2))
    f1 = c.add(FunctionalUnit("f1", "fmul"))
    k = c.add(Sequence("k", [1.0] * 50))
    f2 = c.add(FunctionalUnit("f2", "fmul"))
    k2 = c.add(Sequence("k2", [1.0] * 50))
    eb = c.add(ElasticBuffer("eb", 2))
    c.connect(src, 0, m, 0)
    c.connect(m, 0, f1, 0)
    c.connect(k, 0, f1, 1)
    c.connect(f1, 0, f2, 0)
    c.connect(k2, 0, f2, 1)
    c.connect(f2, 0, eb, 0)
    c.connect(eb, 0, m, 1).attrs["tokens"] = 1
    for u in (m, f1, f2, eb):
        u.meta["cfc"] = "L0"
    return c


def same_scc_circuit():
    """Figure 5-like: M1 and M2 in one SCC at equal offsets."""
    c = DataflowCircuit("t")
    src = c.add(Sequence("src", [0.0]))
    m = c.add(Merge("m", 2))
    fork = c.add(EagerFork("fork", 2))
    m1 = c.add(FunctionalUnit("m1", "fmul"))
    m2 = c.add(FunctionalUnit("m2", "fmul"))
    k1 = c.add(Sequence("k1", [1.0] * 50))
    k2 = c.add(Sequence("k2", [1.0] * 50))
    join = c.add(FunctionalUnit("join", "fadd"))
    eb = c.add(ElasticBuffer("eb", 2))
    c.connect(src, 0, m, 0)
    c.connect(m, 0, fork, 0)
    c.connect(fork, 0, m1, 0)
    c.connect(k1, 0, m1, 1)
    c.connect(fork, 1, m2, 0)
    c.connect(k2, 0, m2, 1)
    c.connect(m1, 0, join, 0)
    c.connect(m2, 0, join, 1)
    c.connect(join, 0, eb, 0)
    c.connect(eb, 0, m, 1).attrs["tokens"] = 1
    for u in (m, fork, m1, m2, join, eb):
        u.meta["cfc"] = "L0"
    return c


class TestR1:
    def test_same_type_passes(self):
        c = chain_cfc_circuit()
        assert check_r1(c, ["f1", "f2"])

    def test_mixed_type_fails(self):
        c = same_scc_circuit()
        assert not check_r1(c, ["m1", "join"])

    def test_mixed_latency_fails(self):
        c = DataflowCircuit("t")
        a = c.add(FunctionalUnit("a", "fmul"))
        b = c.add(FunctionalUnit("b", "fmul", latency_override=2))
        assert not check_r1(c, ["a", "b"])


class TestR2:
    def test_within_capacity_passes(self):
        c = chain_cfc_circuit()
        cfc = critical_cfcs(c)[0]
        occ = occupancy_map(c, [cfc])
        # II = lat(f1)+lat(f2)+1 = 9; each fmul occupancy 4/9; sum < 4.
        assert check_r2(c, ["f1", "f2"], cfc, occ)

    def test_beyond_capacity_fails(self):
        c = chain_cfc_circuit()
        cfc = critical_cfcs(c)[0]
        # Pretend each op fills the whole unit.
        occ = {"f1": Fraction(3), "f2": Fraction(3)}
        assert not check_r2(c, ["f1", "f2"], cfc, occ)

    def test_ops_outside_cfc_unconstrained(self):
        c = chain_cfc_circuit()
        cfc = critical_cfcs(c)[0]
        assert check_r2(c, ["x", "y"], cfc, {})


class TestR3:
    def test_different_sccs_pass(self):
        # f1 and f2 chained: both are in the loop SCC here... build the
        # chain circuit: f1 and f2 ARE in the same SCC (cycle through both),
        # but their distances from other members differ by one hop.
        c = chain_cfc_circuit()
        cfc = critical_cfcs(c)[0]
        assert check_r3(c, ["f1", "f2"], cfc)

    def test_equal_offsets_fail(self):
        # Figure 5: every other SCC member sits at the same max distance to
        # m1 and m2 -> reject.
        c = same_scc_circuit()
        cfc = critical_cfcs(c)[0]
        assert not check_r3(c, ["m1", "m2"], cfc)

    def test_single_member_trivially_passes(self):
        c = same_scc_circuit()
        cfc = critical_cfcs(c)[0]
        assert check_r3(c, ["m1"], cfc)


class TestAlgorithm1:
    def test_merges_compatible_ops(self):
        c = chain_cfc_circuit()
        cfcs = critical_cfcs(c)
        occ = occupancy_map(c, cfcs)
        groups = sharing_groups(c, cfcs, occ)
        assert [sorted(g) for g in groups] == [["f1", "f2"]]

    def test_r3_keeps_same_offset_ops_apart(self):
        c = same_scc_circuit()
        cfcs = critical_cfcs(c)
        occ = occupancy_map(c, cfcs)
        groups = sharing_groups(c, cfcs, occ, candidates=["m1", "m2"])
        assert sorted(map(sorted, groups)) == [["m1"], ["m2"]]

    def test_candidates_default_to_fp_ops(self):
        c = same_scc_circuit()
        assert sharing_candidates(c) == ["join", "m1", "m2"]

    def test_cost_model_can_veto(self):
        c = chain_cfc_circuit()
        cfcs = critical_cfcs(c)
        occ = occupancy_map(c, cfcs)
        never = SharingCostModel(
            unit_cost=lambda t: 0.0, wrapper_cost=lambda t, n: 1e9
        )
        groups = sharing_groups(c, cfcs, occ, cost_model=never)
        assert all(len(g) == 1 for g in groups)


class TestAlgorithm2:
    def test_producer_prioritized(self):
        c = chain_cfc_circuit()
        cfcs = critical_cfcs(c)
        # f1 and f2 share one SCC here; also test the cross-SCC case below.
        prio = access_priority(["f2", "f1"], cfcs)
        assert sorted(prio) == ["f1", "f2"]

    def test_cross_scc_topological_order(self):
        # Build: loop SCC {m, acc, eb}; downstream op f2 in a later SCC.
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [0.0]))
        m = c.add(Merge("m", 2))
        acc = c.add(FunctionalUnit("acc", "fadd"))
        k = c.add(Sequence("k", [1.0] * 10))
        eb = c.add(ElasticBuffer("eb", 2))
        fork = c.add(EagerFork("fork", 2))
        post = c.add(FunctionalUnit("post", "fadd"))
        k2 = c.add(Sequence("k2", [1.0] * 10))
        s = c.add(Sink("s"))
        c.connect(src, 0, m, 0)
        c.connect(m, 0, acc, 0)
        c.connect(k, 0, acc, 1)
        c.connect(acc, 0, fork, 0)
        c.connect(fork, 0, eb, 0)
        c.connect(eb, 0, m, 1).attrs["tokens"] = 1
        c.connect(fork, 1, post, 0)
        c.connect(k2, 0, post, 1)
        c.connect(post, 0, s, 0)
        for u in (m, acc, eb, fork, post):
            u.meta["cfc"] = "L0"
        cfcs = critical_cfcs(c)
        # post consumes acc's results: acc must come first.
        assert access_priority(["post", "acc"], cfcs) == ["acc", "post"]
        assert access_priority(["acc", "post"], cfcs) == ["acc", "post"]

    def test_ops_in_no_common_cfc_keep_order(self):
        prio = access_priority(["b", "a"], [])
        assert prio == ["b", "a"]


class TestCreditsAndCost:
    def test_equation3(self):
        assert credits_for_op(Fraction(0)) == 1
        assert credits_for_op(Fraction(10, 11)) == 2
        assert credits_for_op(Fraction(3, 2)) == 3
        assert credits_for_op(Fraction(2)) == 3

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            credits_for_op(Fraction(-1))

    def test_allocate_and_ob_slots(self):
        creds = allocate_credits(["a", "b"], {"a": Fraction(10, 11)})
        assert creds == {"a": 2, "b": 1}
        # The wrapper builder's default output buffers: N_OB = N_CC.
        c, names = build_standalone_group(2, "fmul")
        w = insert_sharing_wrapper(c, names, credits=dict(zip(names, [2, 1])))
        assert w.ob_slots == w.credits
        assert [c.units[ob].slots for ob in w.output_buffers] == [2, 1]

    def test_cost_model_equation2(self):
        cm = SharingCostModel(
            unit_cost=lambda t: 100.0, wrapper_cost=lambda t, n: 10.0 * n
        )
        # 4 singletons: 4 units, no wrappers.
        assert cm.total_cost("fadd", [1, 1, 1, 1]) == 400.0
        # One group of 4: 1 unit + wrapper(4).
        assert cm.total_cost("fadd", [4]) == 140.0
        assert cm.merge_reduces_cost("fadd", 2, 2)

    def test_cost_model_vetoes_cheap_ops(self):
        cm = SharingCostModel(
            unit_cost=lambda t: 5.0, wrapper_cost=lambda t, n: 10.0 * n
        )
        assert not cm.merge_reduces_cost("iadd", 1, 1)

    def test_default_cost_model_shares_fp_not_int(self):
        from repro.core import default_cost_model

        cm = default_cost_model()
        assert cm.merge_reduces_cost("fadd", 1, 1)
        assert cm.merge_reduces_cost("fmul", 3, 3)
        assert not cm.merge_reduces_cost("iadd", 1, 1)
