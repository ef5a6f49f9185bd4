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

    def test_combinational_cycle_has_no_chain_to_cut(self):
        # The CP estimate refuses a combinational ring; the timing pass
        # leaves it to the structural pass and inserts nothing.
        from repro.errors import AnalysisError
        from repro.resources import critical_path_ns
        from repro.resources.timing import longest_comb_chain

        c = comb_ring_circuit()
        assert longest_comb_chain(c) is None
        with pytest.raises(AnalysisError, match="combinational cycle"):
            critical_path_ns(c)
        n_units = len(c.units)
        assert insert_timing_buffers(c, target_cp_ns=0.5) == []
        assert len(c.units) == n_units

    def test_respects_data_cycles(self):
        # A tight data SCC cannot be cut; pass must give up gracefully.
        c = comb_ring_circuit()
        break_combinational_cycles(c)
        inserted = insert_timing_buffers(c, target_cp_ns=0.5)
        # Whatever was inserted, the circuit stays valid.
        c.validate()

    @pytest.mark.parametrize("technique", ["naive", "crush"])
    def test_matches_the_pass_that_rederives_every_fact(self, technique):
        """SCC ids, the channel index and unit delays are derived once
        per pass; the reference re-derives them after every insert.  Both
        must insert the same buffers, named alike, in the same channels,
        in the same order — including once paths get blocked, and on
        parallel channels, which are cut first to last."""
        from repro.frontend.kernels import KERNEL_NAMES
        from repro.pipeline import prepare_circuit

        def kernel(name):
            return prepare_circuit(name, technique, scale="small").circuit

        builds = [(k, lambda k=k: kernel(k)) for k in KERNEL_NAMES]
        for name, build in builds + [("twin", twin_channel_chain)]:
            fast, ref = build(), build()
            for target in (4.0, 3.0):
                assert insert_timing_buffers(fast, target) == (
                    _reference_timing_buffers(ref, target)
                ), (name, target)
                assert _wiring(fast) == _wiring(ref), (name, target)

    def test_derives_sccs_at_most_once_per_call(self, monkeypatch):
        import repro.analysis.timing_buffers as timing
        from repro.pipeline import prepare_circuit

        circuit = prepare_circuit("2mm", "crush", scale="small").circuit
        calls = []
        real = timing._scc_ids
        monkeypatch.setattr(
            timing, "_scc_ids", lambda c: calls.append(1) or real(c)
        )
        assert len(insert_timing_buffers(circuit, target_cp_ns=4.0)) > 1
        assert len(calls) == 1

    def test_circuits_do_not_depend_on_the_string_hash_seed(self):
        """Processes with different ``PYTHONHASHSEED`` build the same
        circuits, so a generated simulator module one of them cached is
        found by the other.  2mm, 3mm, mvt and syr2k have equally long
        combinational chains; which one gets cut first must not follow a
        set's iteration order.  The circuit fingerprint covers names,
        wiring, buffer depths, credits and merge orders of every
        configuration; the codegen key covers the schedule too."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import json\n"
            "from repro.frontend.kernels import KERNEL_NAMES\n"
            "from repro.pipeline import TECHNIQUES, prepare_circuit\n"
            "from repro.sim.codegen import generate_pieces, source_key\n"
            "from repro.sim.signal_graph import compile_schedule\n"
            "out = {}\n"
            "for k in KERNEL_NAMES:\n"
            "    for t in TECHNIQUES:\n"
            "        c = prepare_circuit(k, t, scale='small').circuit\n"
            "        pieces = generate_pieces(c, compile_schedule(c))\n"
            "        out[k + '/' + t] = [c.fingerprint(), source_key(pieces)]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            )
            for seed in ("0", "1")
        ]
        builds = []
        for proc in procs:
            out, err = proc.communicate()
            assert proc.returncode == 0, err
            builds.append(json.loads(out))
        assert len(builds[0]) == 42
        for config, build in builds[0].items():
            assert None not in build, config
            assert build == builds[1][config], config


def twin_channel_chain():
    """A long adder chain whose middle hop is two parallel channels: a
    fork driving both inputs of one adder."""
    c = DataflowCircuit("twin")
    prev = c.add(Sequence("src", list(range(5))))
    for i in range(4):
        fu = c.add(FunctionalUnit(f"a{i}", "iadd", const_ops={1: 1}))
        c.connect(prev, 0, fu, 0)
        prev = fu
    fork = c.add(EagerFork("fork", 2))
    c.connect(prev, 0, fork, 0)
    prev = c.add(FunctionalUnit("j", "iadd"))
    c.connect(fork, 0, prev, 0)
    c.connect(fork, 1, prev, 1)
    for i in range(4):
        fu = c.add(FunctionalUnit(f"b{i}", "iadd", const_ops={1: 1}))
        c.connect(prev, 0, fu, 0)
        prev = fu
    c.connect(prev, 0, c.add(Sink("s")), 0)
    return c


def _wiring(circuit):
    return [
        (ch.src.unit, ch.src.index, ch.dst.unit, ch.dst.index, ch.width,
         sorted(ch.attrs.items()))
        for ch in circuit.channels
    ]


def _reference_timing_buffers(circuit, target_cp_ns):
    """The timing pass as first written: SCCs recomputed and the channel
    list scanned for every buffer it inserts."""
    from repro.analysis.buffers import _splice
    from repro.analysis.timing_buffers import _scc_ids
    from repro.resources.library import BASE_PATH_OVERHEAD_NS
    from repro.resources.timing import longest_comb_chain

    inserted = []
    budget = max(0.0, target_cp_ns - BASE_PATH_OVERHEAD_NS)
    blocked = set()
    for _ in range(400):
        total, path = longest_comb_chain(circuit) or (0.0, [])
        if total <= budget or not path or tuple(path) in blocked:
            break
        scc = _scc_ids(circuit)
        hops = list(zip(path, path[1:]))
        if not hops:
            break
        mid = len(hops) // 2
        chosen = None
        for i in sorted(range(len(hops)), key=lambda i: abs(i - mid)):
            a, b = hops[i]
            ch = next(
                (ch for ch in circuit.channels
                 if ch.src.unit == a and ch.dst.unit == b),
                None,
            )
            if ch is None:
                continue
            if scc[a] == scc[b] and scc[a] >= 0 and ch.width > 1:
                continue
            chosen = ch
            break
        if chosen is None:
            blocked.add(tuple(path))
            continue
        buf = circuit.add(ElasticBuffer(
            circuit.fresh_name("cpbuf"), slots=2, width_hint=chosen.width,
        ))
        _splice(circuit, chosen, buf)
        inserted.append(buf.name)
    return inserted
