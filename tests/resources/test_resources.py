"""Resource library, circuit estimation, and timing model."""

import pytest

from repro.circuit import (
    ArbiterMerge,
    CreditCounter,
    DataflowCircuit,
    ElasticBuffer,
    EagerFork,
    FunctionalUnit,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.resources import (
    DEVICE_DSPS,
    Resources,
    critical_path_ns,
    equivalent_cost,
    estimate_circuit,
    functional_unit_resources,
    slice_estimate,
    unit_equivalent_cost,
    unit_resources,
)
from repro.core.standalone import wrapper_cost


class TestLibrary:
    def test_fp_dsp_costs_match_xilinx(self):
        # These two constants reproduce every DSP count in Tables 1-3.
        assert functional_unit_resources("fadd").dsp == 2
        assert functional_unit_resources("fmul").dsp == 3
        assert functional_unit_resources("iadd").dsp == 0
        assert functional_unit_resources("imul").dsp == 0  # LUT-mapped

    def test_resources_arithmetic(self):
        r = Resources(1, 2, 3) + Resources(10, 20, 30)
        assert (r.lut, r.ff, r.dsp) == (11, 22, 33)
        assert Resources(1, 1, 1).scaled(4) == Resources(4, 4, 4)

    def test_buffer_cost_scales_with_width_and_depth(self):
        small = unit_resources(TransparentFifo("a", slots=1, width_hint=1))
        big = unit_resources(TransparentFifo("b", slots=4, width_hint=32))
        assert big.ff > small.ff and big.lut > small.lut

    def test_inorder_arbiter_has_more_ffs(self):
        plain = ArbiterMerge("a", 4)
        ordered = ArbiterMerge("b", 4)
        ordered.meta["order_state"] = True
        assert unit_resources(ordered).ff > unit_resources(plain).ff

    def test_arbiter_cost_grows_with_group_size(self):
        small = unit_resources(ArbiterMerge("a", 2))
        big = unit_resources(ArbiterMerge("b", 8))
        assert big.lut > small.lut

    def test_testbench_units_are_free(self):
        assert unit_resources(Sequence("s", [1])) == Resources(0, 0, 0)
        assert unit_resources(Sink("s")) == Resources(0, 0, 0)

    def test_equivalent_cost_weights_dsps(self):
        heavy = equivalent_cost(Resources(0, 0, 2))
        light = equivalent_cost(Resources(100, 100, 0))
        assert heavy > light

    def test_wrapper_cost_monotone_in_group_size(self):
        costs = [wrapper_cost("fadd", n) for n in range(2, 10)]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        assert wrapper_cost("fadd", 1) == 0.0

    def test_sharing_fadd_pays_sharing_iadd_does_not(self):
        # Paper Section 4.3: sharing integer adders is never beneficial.
        for n in range(2, 8):
            save_fadd = unit_equivalent_cost("fadd") * (n - 1)
            assert wrapper_cost("fadd", n) < save_fadd
        save_iadd = unit_equivalent_cost("iadd")
        assert wrapper_cost("iadd", 2) > save_iadd


class TestEstimate:
    def _circuit(self):
        c = DataflowCircuit("t")
        a = c.add(Sequence("a", [1.0]))
        b = c.add(Sequence("b", [1.0]))
        f1 = c.add(FunctionalUnit("f1", "fadd"))
        f2 = c.add(FunctionalUnit("f2", "fmul"))
        s = c.add(Sink("s"))
        c.connect(a, 0, f1, 0)
        c.connect(b, 0, f1, 1)
        k = c.add(Sequence("k", [2.0]))
        c.connect(f1, 0, f2, 0)
        c.connect(k, 0, f2, 1)
        c.connect(f2, 0, s, 0)
        return c

    def test_estimate_aggregates(self):
        est = estimate_circuit(self._circuit())
        assert est.dsp == 5
        assert est.lut >= 470
        assert est.functional_units == {"fadd": 1, "fmul": 1}
        assert est.fu_summary() == "1 fadd 1 fmul"
        assert est.fits_device

    def test_device_capacity_check(self):
        c = DataflowCircuit("t")
        prev_units = []
        # 301 fadds = 602 DSPs > 600.
        for i in range(301):
            a = c.add(Sequence(f"a{i}", [1.0]))
            b = c.add(Sequence(f"b{i}", [1.0]))
            f = c.add(FunctionalUnit(f"f{i}", "fadd"))
            s = c.add(Sink(f"s{i}"))
            c.connect(a, 0, f, 0)
            c.connect(b, 0, f, 1)
            c.connect(f, 0, s, 0)
        est = estimate_circuit(c)
        assert est.dsp > DEVICE_DSPS
        assert not est.fits_device

    def test_slice_estimate_monotone(self):
        assert slice_estimate(4000, 2000) > slice_estimate(1000, 2000)
        assert slice_estimate(0, 0) == 0


class TestTiming:
    def test_cp_at_least_fu_stage_delay(self):
        c = DataflowCircuit("t")
        a = c.add(Sequence("a", [1.0]))
        b = c.add(Sequence("b", [1.0]))
        f = c.add(FunctionalUnit("f", "fadd"))
        s = c.add(Sink("s"))
        c.connect(a, 0, f, 0)
        c.connect(b, 0, f, 1)
        c.connect(f, 0, s, 0)
        assert critical_path_ns(c) >= 3.3

    def test_cp_grows_with_comb_chain(self):
        def chain(n):
            c = DataflowCircuit("t")
            src = c.add(Sequence("src", [1]))
            prev, port = src, 0
            for i in range(n):
                fu = c.add(FunctionalUnit(f"a{i}", "iadd", const_ops={1: 1}))
                c.connect(prev, port, fu, 0)
                prev, port = fu, 0
            s = c.add(Sink("s"))
            c.connect(prev, port, s, 0)
            return critical_path_ns(c)

        assert chain(6) > chain(2) > chain(1)

    def test_registers_cut_the_path(self):
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1]))
        a1 = c.add(FunctionalUnit("a1", "iadd", const_ops={1: 1}))
        eb = c.add(ElasticBuffer("eb", 2))
        a2 = c.add(FunctionalUnit("a2", "iadd", const_ops={1: 1}))
        s = c.add(Sink("s"))
        c.connect(src, 0, a1, 0)
        c.connect(a1, 0, eb, 0)
        c.connect(eb, 0, a2, 0)
        c.connect(a2, 0, s, 0)
        cut = critical_path_ns(c)
        c2 = DataflowCircuit("t2")
        src = c2.add(Sequence("src", [1]))
        a1 = c2.add(FunctionalUnit("a1", "iadd", const_ops={1: 1}))
        a2 = c2.add(FunctionalUnit("a2", "iadd", const_ops={1: 1}))
        s = c2.add(Sink("s"))
        c2.connect(src, 0, a1, 0)
        c2.connect(a1, 0, a2, 0)
        c2.connect(a2, 0, s, 0)
        assert cut < critical_path_ns(c2)
