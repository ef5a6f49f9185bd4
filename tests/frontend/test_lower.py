"""Lowering: structure of generated circuits and both styles."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.circuit import (
    ArbiterMerge,
    Constant,
    ElasticBuffer,
    FunctionalUnit,
    LoadPort,
    Mux,
    StorePort,
)
from repro.errors import FrontendError
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
    fadd,
    fcmp_ge,
    fmul,
    lower_kernel,
    simulate_kernel,
)
from repro.frontend.lower import (
    arrays_accessed,
    block_reads_writes,
    branch_assigned,
    has_nested_for,
)


def dot_kernel(n=4):
    return Kernel("dot", {"N": n},
                  [Array("a", "N"), Array("b", "N"), Array("out", 1, role="out")],
                  [For("i", IConst(0), Param("N"), carried={"s": Const(0.0)},
                       body=[SetCarried("s", fadd(Var("s"),
                             fmul(Load("a", Var("i")), Load("b", Var("i")))))]),
                   Store("out", IConst(0), Var("s"))])


class TestASTAnalysis:
    def test_block_reads_writes(self):
        body = [Let("x", fadd(Var("s"), Var("y"))),
                SetCarried("s", Var("x"))]
        reads, writes = block_reads_writes(body)
        assert reads == {"s", "y"}
        assert writes == {"s"}

    def test_nested_loop_locals_excluded(self):
        inner = For("j", IConst(0), Var("n"), carried={"t": Var("init")},
                    body=[SetCarried("t", fadd(Var("t"), Var("outer")))])
        reads, writes = block_reads_writes([inner])
        assert reads == {"n", "init", "outer"}
        assert writes == set()

    def test_leaked_write_rejected(self):
        inner = For("j", IConst(0), IConst(2), body=[SetCarried("z", Const(1.0))])
        with pytest.raises(FrontendError, match="non-carried"):
            block_reads_writes([inner])

    def test_arrays_accessed(self):
        body = [Store("y", Var("i"), fadd(Load("y", Var("i")), Load("a", Var("i"))))]
        loads, stores = arrays_accessed(body)
        assert loads == {"y", "a"}
        assert stores == {"y"}

    def test_branch_assigned_includes_lets(self):
        body = [If(fcmp_ge(Var("d"), Const(0.0)),
                   [Let("p", Var("d"))], [SetCarried("s", Var("d"))])]
        assert branch_assigned(body) == {"p", "s"}

    def test_has_nested_for(self):
        assert has_nested_for([For("i", IConst(0), IConst(1), body=[])])
        assert not has_nested_for([Store("a", IConst(0), Const(1.0))])


class TestLoweringStructure:
    def test_loop_header_uses_cmerge_and_muxes(self):
        low = lower_kernel(dot_kernel(), "bb")
        c = low.circuit
        assert c.units_of_type(ArbiterMerge)  # the control merge
        assert c.units_of_type(Mux)  # header muxes
        assert low.end_sink in c

    def test_cfc_tag_on_innermost_loop(self):
        low = lower_kernel(dot_kernel(), "bb")
        assert len(low.cfc_tags) == 1
        cfcs = critical_cfcs(low.circuit)
        assert len(cfcs) == 1
        fadds = [u.name for u in low.circuit.units_of_type(FunctionalUnit)
                 if u.op == "fadd"]
        assert any(f in cfcs[0].unit_names for f in fadds)

    def test_backedges_annotated(self):
        low = lower_kernel(dot_kernel(), "bb")
        back = [ch for ch in low.circuit.channels if ch.attrs.get("backedge")]
        assert back
        assert all(ch.attrs.get("tokens") == 1 for ch in back)

    def test_memory_ports_created(self):
        low = lower_kernel(dot_kernel(), "bb")
        assert len(low.circuit.units_of_type(LoadPort)) == 2
        assert len(low.circuit.units_of_type(StorePort)) == 1

    def test_bb_style_has_more_units_than_fast_token(self):
        bb = lower_kernel(dot_kernel(), "bb")
        ft = lower_kernel(dot_kernel(), "fast-token")
        assert len(bb.circuit.units) > len(ft.circuit.units)
        # Fast-token folds integer constants into operand slots.
        bb_consts = len(bb.circuit.units_of_type(Constant))
        ft_consts = len(ft.circuit.units_of_type(Constant))
        assert ft_consts < bb_consts

    def test_fp_constants_stay_tokens_in_fast_style(self):
        k = Kernel("t", {"N": 3},
                   [Array("a", "N"), Array("out", "N", role="out")],
                   [For("i", IConst(0), Param("N"), body=[
                       Store("out", Var("i"), fmul(Load("a", Var("i")), Const(2.0)))])])
        low = lower_kernel(k, "fast-token")
        fmuls = [u for u in low.circuit.units_of_type(FunctionalUnit) if u.op == "fmul"]
        assert fmuls[0].const_ops == {}  # shareable ops keep full operand shape
        assert fmuls[0].n_in == 2

    def test_unknown_style_rejected(self):
        with pytest.raises(FrontendError, match="style"):
            lower_kernel(dot_kernel(), "quantum")

    def test_zero_trip_loop_rejected(self):
        k = Kernel("z", {}, [Array("out", 1, role="out")],
                   [For("i", IConst(0), IConst(0), body=[
                       Store("out", IConst(0), Const(1.0))])])
        with pytest.raises(FrontendError, match="trip count"):
            lower_kernel(k, "bb")

    def test_loop_in_conditional_rejected(self):
        k = Kernel("z", {}, [Array("a", 1), Array("out", 1, role="out")],
                   [For("i", IConst(0), IConst(2), body=[
                       If(fcmp_ge(Load("a", IConst(0)), Const(0.0)),
                          [For("j", IConst(0), IConst(2), body=[])],
                          [])])])
        with pytest.raises(FrontendError, match="conditional"):
            lower_kernel(k, "bb")

    def test_array_sizes_resolution(self):
        low = lower_kernel(dot_kernel(5), "bb")
        assert low.array_sizes() == {"a": 5, "b": 5, "out": 1}


class TestMemoryDependencyThreads:
    def test_rmw_loop_gets_dep_gated_loads(self):
        k = Kernel("rmw", {"N": 4},
                   [Array("y", "N", role="inout"), Array("a", "N")],
                   [For("i", IConst(0), Param("N"), body=[
                       Store("y", Var("i"), fadd(Load("y", Var("i")),
                                                 Load("a", Var("i"))))])])
        low = lower_kernel(k, "bb")
        names = set(low.circuit.units)
        assert any(n.startswith("ldgate_y") for n in names)
        assert not any(n.startswith("ldgate_a") for n in names)

    def test_rmw_ii_reflects_memory_ordering(self):
        k = Kernel("rmw", {"N": 6},
                   [Array("y", "N", role="inout"), Array("a", "N")],
                   [For("i", IConst(0), Param("N"), body=[
                       Store("y", Var("i"), fadd(Load("y", Var("i")),
                                                 Load("a", Var("i"))))])])
        low = lower_kernel(k, "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        ii = cfcs[0].ii().ii
        # load(2) + fadd(10) + store(1) + return >= 14
        assert ii >= 13

    def test_simulation_matches_reference(self):
        k = Kernel("rmw", {"N": 4},
                   [Array("y", "N", role="inout"), Array("a", "N")],
                   [For("r", IConst(0), IConst(3), body=[
                       For("i", IConst(0), Param("N"), body=[
                           Store("y", Var("i"), fadd(Load("y", Var("i")),
                                                     Load("a", Var("i"))))])])])
        low = lower_kernel(k, "bb")
        place_buffers(low.circuit, critical_cfcs(low.circuit))
        simulate_kernel(low, max_cycles=100000)  # raises on a mismatch
