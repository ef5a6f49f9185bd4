"""Buffer placement: cycle breaking, LP slack matching, timing."""

import pytest

from repro.analysis import (
    CFC,
    break_combinational_cycles,
    cfc_of_units,
    critical_cfcs,
    insert_timing_buffers,
    place_buffers,
    slack_lp,
    slack_match_cfc,
    sized_slots,
)
from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    Merge,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.sim import Engine, Trace
from fractions import Fraction


def comb_ring_circuit():
    """A merge/pass ring with no sequential element (combinational cycle)."""
    c = DataflowCircuit("ring")
    src = c.add(Sequence("src", [1.0]))
    m = c.add(Merge("m", 2))
    p = c.add(FunctionalUnit("p", "pass"))
    f = c.add(EagerFork("f", 2))
    s = c.add(Sink("s"))
    c.connect(src, 0, m, 0)
    c.connect(m, 0, p, 0)
    c.connect(p, 0, f, 0)
    c.connect(f, 0, s, 0)
    c.connect(f, 1, m, 1)
    return c


def fork_join_skew_circuit(slow_latency=6):
    """fork -> (slow fadd path | direct path) -> fadd join: needs slack."""
    n = 10
    c = DataflowCircuit("skew")
    src = c.add(Sequence("src", [float(i) for i in range(n)]))
    fork = c.add(EagerFork("fork", 2))
    slow = c.add(FunctionalUnit("slow", "fadd", latency_override=slow_latency))
    k = c.add(Sequence("k", [0.0] * n))
    join = c.add(FunctionalUnit("join", "fadd", latency_override=1))
    out = c.add(Sink("out"))
    c.connect(src, 0, fork, 0)
    c.connect(fork, 0, slow, 0)
    c.connect(k, 0, slow, 1)
    c.connect(slow, 0, join, 0)
    c.connect(fork, 1, join, 1)
    c.connect(join, 0, out, 0)
    for u in (fork, slow, join):
        u.meta["cfc"] = "L0"
    return c, out


class TestCycleBreaking:
    def test_combinational_ring_gets_buffer(self):
        c = comb_ring_circuit()
        inserted = break_combinational_cycles(c)
        assert len(inserted) >= 1
        c.validate()

    def test_already_sequential_untouched(self):
        c = comb_ring_circuit()
        break_combinational_cycles(c)
        again = break_combinational_cycles(c)
        assert again == []

    def test_ring_with_buffer_not_touched(self):
        c = DataflowCircuit("ok")
        src = c.add(Sequence("src", [1.0]))
        m = c.add(Merge("m", 2))
        eb = c.add(ElasticBuffer("eb", 2))
        f = c.add(EagerFork("f", 2))
        s = c.add(Sink("s"))
        c.connect(src, 0, m, 0)
        c.connect(m, 0, eb, 0)
        c.connect(eb, 0, f, 0)
        c.connect(f, 0, s, 0)
        c.connect(f, 1, m, 1)
        assert break_combinational_cycles(c) == []


class TestSlackMatching:
    def test_skewed_join_gets_fifo_and_full_throughput(self):
        c, out = fork_join_skew_circuit()
        cfcs = critical_cfcs(c)
        placed = slack_match_cfc(c, cfcs[0])
        assert placed, "the short path must receive a slack FIFO"
        c.validate()
        trace = Trace()
        eng = Engine(c, trace=trace)
        ch = trace.watch_unit_input(c, "out", 0)
        eng.run(lambda: out.count == 10, max_cycles=300)
        # With slack buffering the pipeline streams at II=1.
        assert trace.interarrival(ch) == [1] * 9

    def test_without_slack_throughput_suffers(self):
        c, out = fork_join_skew_circuit()
        trace = Trace()
        eng = Engine(c, trace=trace)
        ch = trace.watch_unit_input(c, "out", 0)
        eng.run(lambda: out.count == 10, max_cycles=300)
        assert max(trace.interarrival(ch)) > 1

    def test_lp_slack_values(self):
        c, _ = fork_join_skew_circuit(slow_latency=6)
        cfc = critical_cfcs(c)[0]
        slack = slack_lp(cfc)
        # Total imbalance equals the slow-path latency.
        assert sum(slack.values()) == pytest.approx(6.0)

    def test_sized_slots(self):
        assert sized_slots(0.0, Fraction(1)) == 0
        assert sized_slots(6.0, Fraction(1)) == 7
        assert sized_slots(6.0, Fraction(3)) == 3
        assert sized_slots(0.5, Fraction(10)) == 2


class TestPlaceBuffers:
    def test_full_pass_is_idempotent_on_clean_circuit(self):
        c, out = fork_join_skew_circuit()
        report = place_buffers(c, critical_cfcs(c))
        assert report.total_slots > 0
        report2 = place_buffers(c, critical_cfcs(c))
        assert report2.slack_fifos == []

    def test_report_counts(self):
        c = comb_ring_circuit()
        report = place_buffers(c, [], timing=False)
        assert report.cycle_breakers
        assert report.total_slots >= 2


class TestTimingBuffers:
    def test_long_comb_chain_gets_registered(self):
        c = DataflowCircuit("chain")
        src = c.add(Sequence("src", list(range(5))))
        prev, port = src, 0
        for i in range(8):
            fu = c.add(FunctionalUnit(f"a{i}", "iadd", const_ops={1: 1}))
            c.connect(prev, port, fu, 0)
            prev, port = fu, 0
        s = c.add(Sink("s"))
        c.connect(prev, port, s, 0)
        from repro.resources import critical_path_ns

        before = critical_path_ns(c)
        inserted = insert_timing_buffers(c, target_cp_ns=6.0)
        after = critical_path_ns(c)
        assert inserted
        assert after < before
        assert after <= 6.0 + 1e-9
        Engine(c).run(lambda: s.count == 5, max_cycles=100)
        assert s.received == [8, 9, 10, 11, 12]

    def test_respects_data_cycles(self):
        # A tight data SCC cannot be cut; pass must give up gracefully.
        c = comb_ring_circuit()
        break_combinational_cycles(c)
        inserted = insert_timing_buffers(c, target_cp_ns=0.5)
        # Whatever was inserted, the circuit stays valid.
        c.validate()
