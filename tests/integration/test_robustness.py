"""Robustness: idempotence, re-entry, and failure-injection scenarios."""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.circuit import CreditCounter, FunctionalUnit
from repro.core import crush, sharing_candidates
from repro.errors import DeadlockError, SharingError
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import build
from repro.sim import Engine


class TestIdempotence:
    def test_crush_twice_second_pass_is_noop(self):
        low = lower_kernel(build("mvt", scale="small"), "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        first = crush(low.circuit, cfcs)
        assert first.wrappers
        second = crush(low.circuit, cfcs)
        # Bundled shared units are not sharing candidates again.
        assert second.wrappers == []
        simulate_kernel(low, max_cycles=200_000)  # raises on a mismatch

    def test_candidates_exclude_bundled_units(self):
        low = lower_kernel(build("mvt", scale="small"), "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        crush(low.circuit, cfcs)
        for name in sharing_candidates(low.circuit):
            assert not low.circuit.unit(name).bundled


class TestFailureInjection:
    def test_sharing_with_stale_name_fails_cleanly(self):
        low = lower_kernel(build("mvt", scale="small"), "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        crush(low.circuit, cfcs)
        from repro.core import insert_sharing_wrapper

        with pytest.raises(Exception):
            insert_sharing_wrapper(low.circuit, ["fadd_0", "fadd_1"])

    def test_dropped_credit_deadlocks(self):
        """If a wrapper's credits can never return, the engine reports a
        deadlock rather than hanging (fault-injection on the credit loop)."""
        from repro.circuit import DataflowCircuit, Sequence, Sink
        from repro.core import insert_sharing_wrapper

        c = DataflowCircuit("t")
        names = []
        sinks = []
        for i in range(2):
            a = c.add(Sequence(f"a{i}", [1.0] * 6))
            b = c.add(Sequence(f"b{i}", [2.0] * 6))
            fu = c.add(FunctionalUnit(f"op{i}", "fmul"))
            s = c.add(Sink(f"s{i}"))
            c.connect(a, 0, fu, 0)
            c.connect(b, 0, fu, 1)
            c.connect(fu, 0, s, 0)
            names.append(fu.name)
            sinks.append(s)
        w = insert_sharing_wrapper(c, names, credits={n: 1 for n in names})
        # Sabotage: cut op0's credit-return path and starve it forever.
        cc = c.unit(w.credit_counters[0])
        ret = c.in_channel(cc, 0)
        lf = c.units[ret.src.unit]
        c.disconnect(ret)
        blackhole = c.add(Sink("blackhole"))
        c.connect(lf, ret.src.index, blackhole, 0)
        never = c.add(Sequence("never", []))
        c.connect(never, 0, cc, 0)
        with pytest.raises(DeadlockError):
            Engine(c, deadlock_window=32).run(
                lambda: all(s.count == 6 for s in sinks), max_cycles=5000
            )

    def test_engine_survives_zero_channel_circuit(self):
        from repro.circuit import DataflowCircuit

        c = DataflowCircuit("empty")
        eng = Engine(c)
        assert eng.run_cycles(3) == 0


class TestScaleStress:
    def test_wide_group_sharing(self):
        """16 independent ops on one unit: correct and deadlock-free."""
        from repro.circuit import DataflowCircuit, Sequence, Sink
        from repro.core import insert_sharing_wrapper

        c = DataflowCircuit("wide")
        names, sinks = [], []
        for i in range(16):
            a = c.add(Sequence(f"a{i}", [float(i), float(i + 1)]))
            b = c.add(Sequence(f"b{i}", [2.0, 2.0]))
            fu = c.add(FunctionalUnit(f"op{i}", "fmul"))
            s = c.add(Sink(f"s{i}"))
            c.connect(a, 0, fu, 0)
            c.connect(b, 0, fu, 1)
            c.connect(fu, 0, s, 0)
            names.append(fu.name)
            sinks.append(s)
        insert_sharing_wrapper(c, names, credits={n: 1 for n in names})
        Engine(c).run(lambda: all(s.count == 2 for s in sinks), max_cycles=5000)
        assert sinks[3].received == [6.0, 8.0]

    def test_deep_loop_nest(self):
        """A 4-deep nest lowers, simulates and shares correctly."""
        from repro.frontend import (
            Array, Const, For, IConst, Kernel, Load, Param, SetCarried,
            Store, Var, fadd,
        )

        k = Kernel(
            "deep", {"N": 2},
            [Array("a", "N"), Array("out", 1, role="out")],
            [
                For("i", IConst(0), Param("N"), carried={"s": Const(0.0)}, body=[
                    For("j", IConst(0), Param("N"),
                        carried={"t": Var("s")}, body=[
                        For("k", IConst(0), Param("N"),
                            carried={"u": Var("t")}, body=[
                            For("l", IConst(0), Param("N"),
                                carried={"v": Var("u")}, body=[
                                SetCarried("v", fadd(Var("v"),
                                                     Load("a", Var("l")))),
                            ]),
                            SetCarried("u", Var("v")),
                        ]),
                        SetCarried("t", Var("u")),
                    ]),
                    SetCarried("s", Var("t")),
                ]),
                Store("out", IConst(0), Var("s")),
            ],
        )
        low = lower_kernel(k, "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        crush(low.circuit, cfcs)
        simulate_kernel(low, max_cycles=500_000)  # raises on a mismatch
