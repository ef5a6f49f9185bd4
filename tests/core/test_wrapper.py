"""Sharing wrapper construction and runtime behaviour."""

import pytest

from repro.circuit import (
    ArbiterMerge,
    CreditCounter,
    DataflowCircuit,
    Demux,
    FixedOrderMerge,
    FunctionalUnit,
    LazyFork,
    Sequence,
    Sink,
)
from repro.core import check_credit_constraint, insert_sharing_wrapper
from repro.errors import SharingError
from repro.sim import Engine

from tests.helpers import fig1_circuit


def two_muls_circuit(n=6):
    c = DataflowCircuit("t")
    a = c.add(Sequence("a", [float(i) for i in range(n)]))
    b = c.add(Sequence("b", [float(i) for i in range(n)]))
    k1 = c.add(Sequence("k1", [2.0] * n))
    k2 = c.add(Sequence("k2", [3.0] * n))
    m1 = c.add(FunctionalUnit("m1", "fmul"))
    m2 = c.add(FunctionalUnit("m2", "fmul"))
    s1, s2 = c.add(Sink("s1")), c.add(Sink("s2"))
    c.connect(a, 0, m1, 0)
    c.connect(k1, 0, m1, 1)
    c.connect(b, 0, m2, 0)
    c.connect(k2, 0, m2, 1)
    c.connect(m1, 0, s1, 0)
    c.connect(m2, 0, s2, 0)
    c.validate()
    return c, s1, s2, n


class TestConstruction:
    def test_replaces_ops_with_one_shared_unit(self):
        c, s1, s2, n = two_muls_circuit()
        w = insert_sharing_wrapper(c, ["m1", "m2"])
        assert "m1" not in c and "m2" not in c
        shared = [
            u for u in c.units_of_type(FunctionalUnit) if u.bundled
        ]
        assert len(shared) == 1 and shared[0].op == "fmul"
        assert w.size == 2
        assert set(w.all_unit_names()) <= set(c.units)

    def test_structure_matches_figure3(self):
        c, *_ = two_muls_circuit()
        w = insert_sharing_wrapper(c, ["m1", "m2"], credits={"m1": 2, "m2": 2})
        assert isinstance(c.unit(w.arbiter), ArbiterMerge)
        assert isinstance(c.unit(w.output_buffers[0]).__class__, type)
        assert len(w.joins) == 2
        assert len(w.credit_counters) == 2
        assert len(w.lazy_forks) == 2
        assert isinstance(c.unit(w.lazy_forks[0]), LazyFork)
        ccs = [c.unit(n) for n in w.credit_counters]
        assert all(isinstance(u, CreditCounter) and u.initial == 2 for u in ccs)

    def test_functional_equivalence(self):
        c, s1, s2, n = two_muls_circuit()
        insert_sharing_wrapper(c, ["m1", "m2"], credits={"m1": 2, "m2": 2})
        Engine(c).run(lambda: s1.count == n and s2.count == n, max_cycles=500)
        assert s1.received == [i * 2.0 for i in range(n)]
        assert s2.received == [i * 3.0 for i in range(n)]

    def test_group_of_three(self):
        c = DataflowCircuit("t")
        sinks = []
        names = []
        for i in range(3):
            a = c.add(Sequence(f"a{i}", [1.0, 2.0]))
            k = c.add(Sequence(f"k{i}", [float(i + 1)] * 2))
            m = c.add(FunctionalUnit(f"m{i}", "fmul"))
            s = c.add(Sink(f"s{i}"))
            c.connect(a, 0, m, 0)
            c.connect(k, 0, m, 1)
            c.connect(m, 0, s, 0)
            sinks.append(s)
            names.append(f"m{i}")
        w = insert_sharing_wrapper(c, names)
        assert isinstance(c.unit(w.arbiter), ArbiterMerge)
        Engine(c).run(lambda: all(s.count == 2 for s in sinks), max_cycles=200)
        assert sinks[2].received == [3.0, 6.0]

    def test_fixed_order_variant(self):
        c, s1, s2, n = two_muls_circuit()
        w = insert_sharing_wrapper(
            c, ["m1", "m2"], arbitration="fixed", fixed_order=["m1", "m2"]
        )
        assert isinstance(c.unit(w.arbiter), FixedOrderMerge)
        Engine(c).run(lambda: s1.count == n and s2.count == n, max_cycles=500)

    def test_inorder_variant_is_a_priority_arbiter_with_order_state(self):
        c, s1, s2, n = two_muls_circuit()
        w = insert_sharing_wrapper(
            c, ["m1", "m2"], priority=["m2", "m1"], arbitration="inorder"
        )
        arb = c.unit(w.arbiter)
        assert isinstance(arb, ArbiterMerge)
        assert arb.priority == [1, 0]
        assert arb.meta.get("order_state") is True
        assert w.arbitration == "inorder"
        # Only the arbiter carries the tag the resource model costs.
        assert [u.name for u in c.units.values()
                if u.meta.get("order_state")] == [w.arbiter]
        Engine(c).run(lambda: s1.count == n and s2.count == n, max_cycles=500)

    def test_naive_variant_has_no_credits(self):
        c, s1, s2, n = two_muls_circuit()
        w = insert_sharing_wrapper(c, ["m1", "m2"], use_credits=False)
        assert w.credit_counters == []
        assert w.lazy_forks == []
        assert not c.units_of_type(CreditCounter)


class TestValidationRules:
    def test_group_of_one_rejected(self):
        c, *_ = two_muls_circuit()
        with pytest.raises(SharingError, match="at least 2"):
            insert_sharing_wrapper(c, ["m1"])

    def test_mixed_types_rejected(self):
        c, *_ = two_muls_circuit()
        extra = c.add(FunctionalUnit("add1", "fadd"))
        x = c.add(Sequence("x", [1.0]))
        y = c.add(Sequence("y", [1.0]))
        s = c.add(Sink("sx"))
        c.connect(x, 0, extra, 0)
        c.connect(y, 0, extra, 1)
        c.connect(extra, 0, s, 0)
        with pytest.raises(SharingError, match="R1"):
            insert_sharing_wrapper(c, ["m1", "add1"])

    def test_non_fu_rejected(self):
        c, s1, *_ = two_muls_circuit()
        with pytest.raises(SharingError, match="not a shareable"):
            insert_sharing_wrapper(c, ["s1", "m2"])

    def test_bad_priority_rejected(self):
        c, *_ = two_muls_circuit()
        with pytest.raises(SharingError, match="permutation"):
            insert_sharing_wrapper(c, ["m1", "m2"], priority=["m1", "m1"])

    def test_equation1_enforced(self):
        c, *_ = two_muls_circuit()
        with pytest.raises(SharingError, match="Equation 1"):
            insert_sharing_wrapper(
                c, ["m1", "m2"], credits={"m1": 3, "m2": 1},
                ob_slots={"m1": 2, "m2": 1},
            )

    def test_check_credit_constraint_direct(self):
        check_credit_constraint({"a": 2}, {"a": 2})
        with pytest.raises(SharingError):
            check_credit_constraint({"a": 3}, {"a": 2})
        with pytest.raises(SharingError, match="at least one credit"):
            check_credit_constraint({"a": 0}, {"a": 2})

    def test_unknown_arbitration(self):
        c, *_ = two_muls_circuit()
        with pytest.raises(SharingError, match="arbitration"):
            insert_sharing_wrapper(c, ["m1", "m2"], arbitration="coinflip")


class TestCreditThroughput:
    def _shared_fig1(self, credits):
        c, out, expected = fig1_circuit(n_tokens=10, slack_slots=10)
        insert_sharing_wrapper(
            c, ["M2", "M3"], credits={"M2": credits, "M3": credits}
        )
        return c, out, expected

    def test_more_credits_more_throughput(self):
        # Paper Section 4.1: with 1 credit each, at most 2 of 3 pipeline
        # stages can be used; more credits restore utilization.
        c1, out1, exp = self._shared_fig1(credits=1)
        e1 = Engine(c1)
        e1.run(lambda: out1.count == 10, max_cycles=1000)
        c2, out2, _ = self._shared_fig1(credits=3)
        e2 = Engine(c2)
        e2.run(lambda: out2.count == 10, max_cycles=1000)
        assert out1.received == out2.received == exp
        assert e2.cycle < e1.cycle

    def test_results_keep_program_order_per_op(self):
        c, out, expected = self._shared_fig1(credits=2)
        Engine(c).run(lambda: out.count == 10, max_cycles=1000)
        assert out.received == expected
