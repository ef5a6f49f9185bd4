"""Endpoints (Entry/Sequence/Sink/Constant), credit counters, memory ports."""

import pytest

from repro.circuit import (
    Constant,
    CreditCounter,
    DataflowCircuit,
    Entry,
    EagerFork,
    FunctionalUnit,
    Join,
    LoadPort,
    Sequence,
    Sink,
    StorePort,
)
from repro.errors import CircuitError, SimulationError
from repro.resources.timing import is_combinational
from repro.sim import Engine, Memory


class TestEndpoints:
    def test_entry_emits_exactly_count(self):
        c = DataflowCircuit("t")
        e = c.add(Entry("e", value=42, count=3))
        s = c.add(Sink("s"))
        c.connect(e, 0, s, 0)
        Engine(c).run_cycles(10)
        assert s.received == [42, 42, 42]
        assert e.emitted == 3

    def test_sequence_emits_in_order_then_stops(self):
        c = DataflowCircuit("t")
        e = c.add(Sequence("e", [1, 2, 3]))
        s = c.add(Sink("s"))
        c.connect(e, 0, s, 0)
        Engine(c).run_cycles(10)
        assert s.received == [1, 2, 3]

    def test_constant_fires_per_trigger(self):
        c = DataflowCircuit("t")
        trig = c.add(Sequence("t0", [None, None]))
        k = c.add(Constant("k", 7.5))
        s = c.add(Sink("s"))
        c.connect(trig, 0, k, 0)
        c.connect(k, 0, s, 0)
        Engine(c).run_cycles(10)
        assert s.received == [7.5, 7.5]

    def test_sink_last_raises_when_empty(self):
        s = Sink("s")
        with pytest.raises(CircuitError):
            _ = s.last

    def test_entry_negative_count_rejected(self):
        with pytest.raises(CircuitError):
            Entry("e", count=-1)


class TestCreditCounter:
    def _loop(self, initial, delay):
        """CC grant -> delay pipeline -> credit return; grants also counted."""
        c = DataflowCircuit("t")
        cc = c.add(CreditCounter("cc", initial))
        fork = c.add(EagerFork("f", 2))
        taken = c.add(Sink("taken"))
        lag = c.add(FunctionalUnit("lag", "pass", latency_override=delay))
        c.connect(cc, 0, fork, 0)
        c.connect(fork, 0, taken, 0)
        c.connect(fork, 1, lag, 0)
        c.connect(lag, 0, cc, 0)
        return c, cc, taken

    def test_grants_limited_by_credits(self):
        c, cc, taken = self._loop(initial=2, delay=6)
        eng = Engine(c)
        eng.run_cycles(4)
        assert taken.count == 2  # out of credits until returns come back
        assert cc.available == 0

    def test_returned_credit_usable_next_cycle(self):
        c, cc, taken = self._loop(initial=1, delay=1)
        eng = Engine(c)
        eng.run_cycles(12)
        # grant at t, return visible t+2 (1 pipe stage), regrant at t+3:
        # sustained rate is bounded, never more than one per 2 cycles.
        assert 3 <= taken.count <= 6

    def test_steady_state_throughput_with_enough_credits(self):
        c, cc, taken = self._loop(initial=4, delay=2)
        eng = Engine(c)
        eng.run_cycles(20)
        assert taken.count >= 15  # ~1 grant per cycle once warmed up

    def test_invariant_guard_rejects_extra_returns(self):
        # Returns arrive while the grant is blocked (join waits forever on
        # a silent second input): the count would exceed the initial value.
        c = DataflowCircuit("t")
        cc = c.add(CreditCounter("cc", 1))
        fake = c.add(Sequence("fake", [None, None, None]))
        never = c.add(Sequence("never", []))
        gate = c.add(Join("gate", 2))
        s = c.add(Sink("s"))
        c.connect(fake, 0, cc, 0)
        c.connect(cc, 0, gate, 0)
        c.connect(never, 0, gate, 1)
        c.connect(gate, 0, s, 0)
        with pytest.raises(CircuitError, match="escaped"):
            Engine(c).run_cycles(10)

    def test_initial_must_be_positive(self):
        with pytest.raises(CircuitError):
            CreditCounter("cc", 0)

    def test_counter_is_not_combinational(self):
        # Latency 0, yet the grant reads the registered count: buffer
        # placement and the CP estimate both treat the counter as a
        # register.
        cc = CreditCounter("cc", 3)
        assert cc.latency == 0 and not is_combinational(cc)
        assert is_combinational(Join("j", 2))


class TestMemoryPorts:
    def test_load_reads_memory(self):
        c = DataflowCircuit("t")
        addr = c.add(Sequence("a", [0, 2, 1]))
        ld = c.add(LoadPort("ld", "arr"))
        s = c.add(Sink("s"))
        c.connect(addr, 0, ld, 0)
        c.connect(ld, 0, s, 0)
        mem = Memory()
        mem.allocate("arr", 3, init=[10.0, 11.0, 12.0])
        Engine(c, memory=mem).run(lambda: s.count == 3, max_cycles=50)
        assert s.received == [10.0, 12.0, 11.0]

    def test_load_latency(self):
        c = DataflowCircuit("t")
        addr = c.add(Sequence("a", [0]))
        ld = c.add(LoadPort("ld", "arr", latency=3))
        s = c.add(Sink("s"))
        c.connect(addr, 0, ld, 0)
        c.connect(ld, 0, s, 0)
        mem = Memory()
        mem.allocate("arr", 1, init=[5.0])
        eng = Engine(c, memory=mem)
        eng.run(lambda: s.count == 1, max_cycles=20)
        assert eng.cycle == 4

    def test_store_commits_at_fire_and_emits_done(self):
        c = DataflowCircuit("t")
        addr = c.add(Sequence("a", [1]))
        data = c.add(Sequence("d", [9.5]))
        st = c.add(StorePort("st", "arr"))
        s = c.add(Sink("done"))
        c.connect(addr, 0, st, 0)
        c.connect(data, 0, st, 1)
        c.connect(st, 0, s, 0)
        mem = Memory()
        mem.allocate("arr", 2)
        eng = Engine(c, memory=mem)
        eng.step()
        assert mem.dump("arr")[1] == 9.5  # committed on the firing edge
        eng.run(lambda: s.count == 1, max_cycles=10)

    def test_memory_required(self):
        c = DataflowCircuit("t")
        addr = c.add(Sequence("a", [0]))
        ld = c.add(LoadPort("ld", "arr"))
        s = c.add(Sink("s"))
        c.connect(addr, 0, ld, 0)
        c.connect(ld, 0, s, 0)
        with pytest.raises(SimulationError, match="memory"):
            Engine(c)

    def test_out_of_bounds_load(self):
        c = DataflowCircuit("t")
        addr = c.add(Sequence("a", [7]))
        ld = c.add(LoadPort("ld", "arr"))
        s = c.add(Sink("s"))
        c.connect(addr, 0, ld, 0)
        c.connect(ld, 0, s, 0)
        mem = Memory()
        mem.allocate("arr", 2)
        with pytest.raises(SimulationError, match="out of bounds"):
            Engine(c, memory=mem).run(lambda: s.count == 1, max_cycles=20)
