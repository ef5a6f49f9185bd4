"""Runtime handshake-protocol sanitizer tests (SAN001..SAN004).

The direct tests feed :meth:`HandshakeSanitizer.observe` synthetic
valid/ready/data/fired vectors (backend-independent and deterministic);
the integration tests run real kernels on both backends and assert the
sanitizer is a pure observer: zero violations and bit-identical results.
"""

import pytest

from repro.circuit import (
    Branch,
    DataflowCircuit,
    ElasticBuffer,
    Join,
    Merge,
    Sequence,
    Sink,
)
from repro.errors import LintError
from repro.frontend.runner import simulate_kernel
from repro.pipeline import prepare_circuit
from repro.sim import (
    CompiledEngine,
    Engine,
    HandshakeSanitizer,
    create_engine,
    sanitize_default,
)


def chain_circuit():
    """src -> eb -> sink: channel 0 is src->eb, channel 1 is eb->sink."""
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", [1.0, 2.0, 3.0]))
    eb = c.add(ElasticBuffer("eb", slots=2))
    sink = c.add(Sink("sink"))
    c.connect(src, 0, eb, 0)
    c.connect(eb, 0, sink, 0)
    return c


class TestObserve:
    def test_san001_valid_retracted(self):
        san = HandshakeSanitizer(chain_circuit())
        san.observe(0, [1, 0], [0, 0], [5.0, None], [0, 0])  # pending
        san.observe(1, [0, 0], [0, 0], [None, None], [0, 0])  # retracted!
        assert not san.ok
        assert [d.code for d in san.diagnostics] == ["SAN001"]
        assert san.diagnostics[0].cycle == 1
        with pytest.raises(LintError) as exc:
            san.raise_if_violations()
        assert exc.value.diagnostics

    def test_san002_data_changed_while_pending(self):
        san = HandshakeSanitizer(chain_circuit())
        san.observe(0, [1, 0], [0, 0], [5.0, None], [0, 0])
        san.observe(1, [1, 0], [0, 0], [6.0, None], [0, 0])  # mutated!
        assert [d.code for d in san.diagnostics] == ["SAN002"]

    def test_clean_transfer_has_no_violations(self):
        san = HandshakeSanitizer(chain_circuit())
        # Fired transfers release the persistence obligation.
        san.observe(0, [1, 0], [1, 0], [5.0, None], [1, 0])
        san.observe(1, [0, 1], [0, 1], [None, 5.0], [0, 1])
        san.observe_quiet()
        assert san.ok
        assert san.cycles_checked == 3
        san.raise_if_violations()  # no-op when clean

    def test_merge_outputs_are_exempt_from_hold(self):
        c = DataflowCircuit("m")
        a = c.add(Sequence("a", [1.0]))
        b = c.add(Sequence("b", [2.0]))
        m = c.add(Merge("m", 2))
        sink = c.add(Sink("sink"))
        c.connect(a, 0, m, 0)   # cid 0
        c.connect(b, 0, m, 1)   # cid 1
        c.connect(m, 0, sink, 0)  # cid 2: non-persistent producer
        san = HandshakeSanitizer(c)
        san.observe(0, [0, 0, 1], [0, 0, 0], [None, None, 1.0], [0, 0, 0])
        san.observe(1, [0, 0, 0], [0, 0, 0], [None] * 3, [0, 0, 0])
        assert san.ok  # a persistent producer would have tripped SAN001

    def test_san003_partial_join_fire(self):
        c = DataflowCircuit("j")
        a = c.add(Sequence("a", [1.0]))
        b = c.add(Sequence("b", [2.0]))
        j = c.add(Join("j", 2))
        sink = c.add(Sink("sink"))
        c.connect(a, 0, j, 0)
        c.connect(b, 0, j, 1)
        c.connect(j, 0, sink, 0)
        san = HandshakeSanitizer(c)
        # Only one of the join's three lockstep channels fires.
        san.observe(0, [1, 1, 1], [1, 1, 1], [1.0, 2.0, 1.0], [1, 0, 0])
        assert any(d.code == "SAN003" and "lockstep" in d.message
                   for d in san.diagnostics)

    def branch_circuit(self):
        c = DataflowCircuit("b")
        cond = c.add(Sequence("cond", [1.0]))
        data = c.add(Sequence("data", [5.0]))
        br = c.add(Branch("br"))
        t = c.add(Sink("t"))
        f = c.add(Sink("f"))
        c.connect(cond, 0, br, 0)  # cid 0
        c.connect(data, 0, br, 1)  # cid 1 (the routed data input)
        c.connect(br, 0, t, 0)     # cid 2
        c.connect(br, 1, f, 0)     # cid 3
        return c

    def test_san003_route_dropped_token(self):
        san = HandshakeSanitizer(self.branch_circuit())
        # Both inputs fire but no output does: the token vanished.
        san.observe(0, [1, 1, 0, 0], [1, 1, 0, 0],
                    [1.0, 5.0, None, None], [1, 1, 0, 0])
        assert any(d.code == "SAN003" and "fired 0 outputs" in d.message
                   for d in san.diagnostics)

    def test_san003_route_duplicated_token(self):
        san = HandshakeSanitizer(self.branch_circuit())
        # An output fires with no input token behind it.
        san.observe(0, [0, 0, 1, 0], [0, 0, 1, 0],
                    [None, None, 5.0, None], [0, 0, 1, 0])
        assert any(d.code == "SAN003" and "duplicated" in d.message
                   for d in san.diagnostics)


class TestFinish:
    def test_san004_tampered_buffer_occupancy(self):
        c = chain_circuit()
        eng = Engine(c, sanitize=True)
        eng.run_cycles(4)  # observe some real traffic, no finish yet
        assert eng.sanitizer is not None and eng.sanitizer.ok
        c.units["eb"]._q.append(99.0)  # token out of thin air
        eng.sanitizer.finish()
        codes = [d.code for d in eng.sanitizer.diagnostics]
        assert "SAN004" in codes
        assert any("queue occupancy" in d.message
                   for d in eng.sanitizer.diagnostics)

    def test_san004_tampered_sink_count(self):
        c = chain_circuit()
        eng = Engine(c, sanitize=True)
        eng.run_cycles(8)
        c.units["sink"].received.append(123.0)
        eng.sanitizer.finish()
        assert any(d.code == "SAN004" and "received count" in d.message
                   for d in eng.sanitizer.diagnostics)

    def test_clean_run_finishes_clean(self):
        c = chain_circuit()
        eng = Engine(c, sanitize=True)
        eng.run(lambda: len(c.units["sink"].received) == 3, max_cycles=100)
        assert eng.sanitizer.ok


class TestEnableSwitches:
    def test_sanitize_default_env_parsing(self, monkeypatch):
        for val, expect in [("1", True), ("true", True), ("YES", True),
                            ("on", True), ("0", False), ("", False),
                            ("off", False)]:
            monkeypatch.setenv("REPRO_SIM_SANITIZE", val)
            assert sanitize_default() is expect
        monkeypatch.delenv("REPRO_SIM_SANITIZE")
        assert sanitize_default() is False

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_env_enables_sanitizer_on_both_backends(self, monkeypatch,
                                                    backend):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        eng = create_engine(chain_circuit(), backend=backend)
        assert eng.sanitizer is not None
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "0")
        eng = create_engine(chain_circuit(), backend=backend)
        assert eng.sanitizer is None

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        assert CompiledEngine(chain_circuit(), sanitize=False).sanitizer \
            is None

    def test_env_reaches_run_technique_and_the_cli(self, monkeypatch,
                                                   capsys):
        # Neither entry point may turn the variable off by passing an
        # explicit sanitize=False down to the engine.
        import repro.sim.sanitize as sanitize_module
        from repro.cli import main
        from repro.pipeline import run_technique

        built = []

        class Counting(HandshakeSanitizer):
            def __init__(self, circuit, *args, **kwargs):
                super().__init__(circuit, *args, **kwargs)
                built.append(circuit.name)

        monkeypatch.setattr(sanitize_module, "HandshakeSanitizer", Counting)
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        run_technique("gsum", "crush", scale="small")
        assert len(built) == 1
        assert main(["run", "gsum", "crush", "--scale", "small"]) == 0
        assert len(built) == 2
        assert main(["profile", "gsum", "--backend", "event"]) == 0
        assert len(built) == 3


DIFF_KERNELS = ["gsum", "gsumif", "atax", "bicg", "gemm"]


@pytest.mark.parametrize("kernel", DIFF_KERNELS)
def test_sanitized_runs_are_bit_identical_and_clean(kernel):
    """The sanitizer is a pure observer: enabling it changes nothing
    (same cycles, same fire count, results still reference-checked) and
    real pipeline circuits produce zero violations on both backends."""
    prep = prepare_circuit(kernel, "crush", scale="small")
    baseline = {}
    for backend in ("event", "compiled"):
        plain = simulate_kernel(prep.lowered, backend=backend,
                                sanitize=False)
        sane = simulate_kernel(prep.lowered, backend=backend, sanitize=True)
        assert sane.cycles == plain.cycles
        assert sane.fires == plain.fires
        baseline[backend] = (sane.cycles, sane.fires)
    assert baseline["event"] == baseline["compiled"]


class TestAliasWatch:
    """SAN005: the opt-in alias check backing the static memory-
    dependence verdicts (``repro.analysis.memdep``)."""

    def _prep(self, kernel, technique="naive"):
        return prepare_circuit(kernel, technique, scale="small")

    def test_san005_fires_when_independent_claim_is_false(self):
        # Deliberately mislabel histogram's colliding self-store pair as
        # independent: 16 samples into 8 bins repeat by pigeonhole, so
        # the run must raise SAN005 regardless of seed.
        prep = self._prep("histogram")
        san = HandshakeSanitizer(
            prep.circuit,
            alias_pairs=[("store_h_0", "store_h_0", "h",
                          "h#st0 x h#st0")],
        )
        with pytest.raises(LintError) as exc:
            simulate_kernel(prep.lowered, sanitize=san)
        assert any(d.code == "SAN005" for d in exc.value.diagnostics)
        assert any("aliased at runtime" in d.message
                   for d in exc.value.diagnostics)
        # The witness address was recorded by the watcher.
        assert san.addresses_of("store_h_0")

    def test_san005_cross_pair_fires_on_shared_address(self):
        # Load and store of the same bucket array touch common cells.
        prep = self._prep("histogram")
        san = HandshakeSanitizer(
            prep.circuit,
            alias_pairs=[("load_h_0", "store_h_0", "h",
                          "h#ld0 x h#st0")],
        )
        with pytest.raises(LintError) as exc:
            simulate_kernel(prep.lowered, sanitize=san)
        assert any(d.code == "SAN005" for d in exc.value.diagnostics)

    def test_armed_but_clean_run_stays_bit_identical(self):
        # atax's truly independent pairs never alias: the armed watcher
        # is a pure observer — same cycles, same fires, no findings.
        prep = self._prep("atax", "crush")
        from repro.analysis.memdep import (
            analyze_kernel, measure_dependences, site_ports,
        )

        report = analyze_kernel(prep.lowered.kernel)
        ports = site_ports(prep.circuit)
        pairs = [
            (ports[p.a], ports[p.b], p.array, p.label())
            for p in report.independent_pairs
        ]
        assert pairs
        plain = simulate_kernel(prep.lowered, sanitize=False)
        san = HandshakeSanitizer(prep.circuit, alias_pairs=pairs)
        sane = simulate_kernel(prep.lowered, sanitize=san)
        assert san.ok
        assert sane.cycles == plain.cycles
        assert sane.fires == plain.fires
        # Every memory port issued addresses — recording really ran.
        assert all(san.addresses_of(u) for u in set(ports.values()))
        # measure_dependences packages exactly this check per pair.
        for m in measure_dependences(prep.lowered, report=report):
            assert m.sound

    def test_unarmed_sanitizer_records_nothing(self):
        prep = self._prep("atax", "crush")
        san = HandshakeSanitizer(prep.circuit)  # no alias_pairs
        simulate_kernel(prep.lowered, sanitize=san)
        assert san.ok
        assert san.addresses_of("load_A_0") == {}

    def test_batched_engines_refuse_sanitizer_instances(self):
        from repro.errors import SimulationError
        from repro.frontend import simulate_kernel_batch

        prep = self._prep("atax", "crush")
        san = HandshakeSanitizer(prep.circuit)
        with pytest.raises(SimulationError, match="batched mode"):
            simulate_kernel_batch(prep.lowered, [1, 2], sanitize=san)

    def test_engine_rejects_foreign_circuit_sanitizer(self):
        from repro.errors import SimulationError

        other = HandshakeSanitizer(chain_circuit())
        prep = self._prep("atax", "crush")
        with pytest.raises(SimulationError, match="different circuit"):
            simulate_kernel(prep.lowered, sanitize=other)
