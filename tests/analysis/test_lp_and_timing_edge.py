"""Edge cases of the LP sizing and timing-buffer passes."""

from fractions import Fraction

import pytest

from repro.analysis import (
    cfc_of_units,
    critical_cfcs,
    insert_timing_buffers,
    slack_lp,
)
from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    Merge,
    Sequence,
    Sink,
)


class TestSlackLP:
    def test_empty_cfc_gives_empty_slack(self):
        c = DataflowCircuit("t")
        s = c.add(Sequence("s", [1]))
        k = c.add(Sink("k"))
        c.connect(s, 0, k, 0)
        cfc = cfc_of_units(c, ["k"], name="solo")
        assert slack_lp(cfc) == {}

    def test_balanced_paths_get_zero_slack(self):
        # fork -> two identical-latency paths -> join: no slack anywhere.
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1.0] * 4))
        fork = c.add(EagerFork("fork", 2))
        p1 = c.add(FunctionalUnit("p1", "pass", latency_override=3))
        p2 = c.add(FunctionalUnit("p2", "pass", latency_override=3))
        join = c.add(FunctionalUnit("join", "fadd", latency_override=1))
        out = c.add(Sink("out"))
        c.connect(src, 0, fork, 0)
        c.connect(fork, 0, p1, 0)
        c.connect(fork, 1, p2, 0)
        c.connect(p1, 0, join, 0)
        c.connect(p2, 0, join, 1)
        c.connect(join, 0, out, 0)
        cfc = cfc_of_units(c, ["fork", "p1", "p2", "join"], name="cfc")
        slack = slack_lp(cfc)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in slack.values())

    def test_chain_slack_equals_latency_difference(self):
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1.0] * 4))
        fork = c.add(EagerFork("fork", 2))
        slow = c.add(FunctionalUnit("slow", "pass", latency_override=7))
        join = c.add(FunctionalUnit("join", "fadd", latency_override=1))
        out = c.add(Sink("out"))
        c.connect(src, 0, fork, 0)
        c.connect(fork, 0, slow, 0)
        c.connect(slow, 0, join, 0)
        c.connect(fork, 1, join, 1)
        c.connect(join, 0, out, 0)
        cfc = cfc_of_units(c, ["fork", "slow", "join"], name="cfc")
        assert sum(slack_lp(cfc).values()) == pytest.approx(7.0)


class TestTimingBuffers:
    def _chain(self, n):
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [1]))
        prev, port = src, 0
        for i in range(n):
            fu = c.add(FunctionalUnit(f"a{i}", "iadd", const_ops={1: 1}))
            c.connect(prev, port, fu, 0)
            prev, port = fu, 0
        s = c.add(Sink("s"))
        c.connect(prev, port, s, 0)
        return c

    def test_no_insertions_below_target(self):
        c = self._chain(2)
        assert insert_timing_buffers(c, target_cp_ns=20.0) == []

    def test_inserted_buffers_keep_semantics(self):
        from repro.sim import Engine

        c = self._chain(10)
        inserted = insert_timing_buffers(c, target_cp_ns=5.0)
        assert inserted
        sink = c.unit("s")
        Engine(c).run(lambda: sink.count == 1, max_cycles=100)
        assert sink.received == [11]

    def test_max_inserts_bound(self):
        c = self._chain(12)
        inserted = insert_timing_buffers(c, target_cp_ns=3.0, max_inserts=2)
        assert len(inserted) <= 2

    def test_data_scc_not_cut(self):
        # A 32-bit data ring: merge -> fadd -> buffer -> merge.  All wide
        # channels are in one SCC; the pass must not register them.
        c = DataflowCircuit("t")
        src = c.add(Sequence("src", [0.0]))
        m = c.add(Merge("m", 2))
        fu = c.add(FunctionalUnit("fu", "fadd"))
        k = c.add(Sequence("k", [1.0] * 10))
        eb = c.add(ElasticBuffer("eb", 2))
        c.connect(src, 0, m, 0)
        c.connect(m, 0, fu, 0)
        c.connect(k, 0, fu, 1)
        c.connect(fu, 0, eb, 0)
        c.connect(eb, 0, m, 1).attrs["tokens"] = 1
        before = set(c.units)
        insert_timing_buffers(c, target_cp_ns=0.1)
        ring_channels = [
            ch for ch in c.channels
            if {ch.src.unit, ch.dst.unit} <= {"m", "fu", "eb"}
        ]
        # The wide ring edges m->fu / fu->eb / eb->m are untouched.
        assert len(ring_channels) == 3


class TestSolverImport:
    def test_import_repro_leaves_the_lp_solver_unloaded(self):
        """``import repro`` does not pay for ``scipy.optimize``: the solve
        path imports it, and ``load_solver`` (which ``prepare_circuit``
        calls before its optimization timer starts) loads it up front."""
        import subprocess
        import sys

        code = (
            "import sys, repro\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from repro.analysis.lp_sizing import load_solver\n"
            "load_solver()\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_pooled_sweep_children_inherit_the_lp_solver(self):
        """A pooled sweep loads the solver before its first fork, so no
        child process imports it again."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.sweep import SweepJob, run_sweep\n"
            "def probe(jobs):\n"
            "    raise RuntimeError(str('scipy.optimize' in sys.modules))\n"
            "job = SweepJob(kernel='gsum', technique='crush', scale='small')\n"
            "out = run_sweep([job], workers=1, retries=0, worker_fn=probe)\n"
            "print(out.records[0].error)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]
