"""Differential and cache tests for the specializing codegen backend.

The codegen backend (`repro.sim.codegen`) emits one specialized Python
module per circuit structure, compiled in bounded pieces, and must stay
*bit-identical* to the event-driven oracle — same cycle counts, same
per-channel firing traces, same final memory and sink state — on every
golden (kernel, technique) pair and on randomized circuits in lockstep.
The event engine computes the handshake fixpoint by iteration, with no
knowledge of the static schedule, so any divergence indicates a
generation bug.  Also covered here: the schedule compiler's acyclicity
check, the profiled source variant, the content-addressed
generated-module cache (in-process, disk, and salted invalidation), the
piece budget and the cells the pieces share, and backend selection.
"""

import dis
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import SIM_BACKENDS, main as cli_main
from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    Entry,
    FunctionalUnit,
    Join,
    Merge,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.errors import CombinationalCycleError, ReproError, SimulationError
from repro.frontend import simulate_kernel
from repro.frontend.kernels import KERNEL_NAMES
from repro.pipeline import TECHNIQUES, prepare_circuit, run_technique
from repro.sim import BACKENDS, SimProfile, Trace, create_engine
from repro.sim.codegen import CodegenEngine
from repro.sim.signal_graph import compile_schedule

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    """Isolated disk cache + empty in-process memo for every test."""
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    return tmp_path / "cgc"


def _prepare(kernel_name, technique, style="bb"):
    """One golden configuration's circuit, built by the pipeline itself."""
    return prepare_circuit(
        kernel_name, technique, style=style, scale="small"
    ).lowered


def _assert_runs_identical(runs, traces, ref):
    """Cycles, fires, per-channel trace and final memory, bit for bit."""
    want = runs[ref]
    for name, run in runs.items():
        assert want.cycles == run.cycles, name
        assert want.fires == run.fires, name
        # Per-channel firing trace: same channels, same cycle lists.
        assert traces[ref].fires == traces[name].fires, name
        # Final memory state, array by array, bit for bit.
        assert set(want.arrays) == set(run.arrays), name
        for array in want.arrays:
            assert np.array_equal(want.arrays[array], run.arrays[array]), \
                (name, array)


# ---------------------------------------------------------------------------
# every golden (kernel, technique) pair: cycles, traces, memory


@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_backends_bit_identical_on_goldens(kernel, technique):
    lowered = _prepare(kernel, technique)
    runs, traces = {}, {}
    for backend in BACKENDS:
        traces[backend] = Trace(record_all=True)
        runs[backend] = simulate_kernel(
            lowered, max_cycles=2_000_000, backend=backend,
            trace=traces[backend],
        )
    _assert_runs_identical(runs, traces, "event")


def test_backends_bit_identical_fast_token_sample():
    # The fast-token style exercises mux/branch loops whose precise
    # comb_deps the schedule depends on; one pair per technique suffices
    # here (the bb sweep above covers the full kernel matrix).
    for technique in TECHNIQUES:
        lowered = _prepare("gsum", technique, style="fast-token")
        cycles = {
            backend: simulate_kernel(
                lowered, max_cycles=2_000_000, backend=backend
            ).cycles
            for backend in BACKENDS
        }
        assert len(set(cycles.values())) == 1, cycles


# ---------------------------------------------------------------------------
# hypothesis lockstep: event oracle vs codegen, cycle by cycle


def _lockstep_codegen(build_circuit, max_cycles=3_000, profile=None):
    c1, done1 = build_circuit()
    c2, done2 = build_circuit()
    t1, t2 = Trace(record_all=True), Trace(record_all=True)
    e1 = create_engine(c1, backend="event", trace=t1)
    e2 = create_engine(c2, backend="codegen", trace=t2, profile=profile)
    for cycle in range(max_cycles):
        f1, f2 = e1.step(), e2.step()
        assert f1 == f2, f"fire count diverged at cycle {cycle}: {f1} != {f2}"
        if done1() and done2():
            break
    assert done1() and done2(), "circuits did not complete in lockstep"
    assert t1.fires == t2.fires
    for u1, u2 in zip(c1.units.values(), c2.units.values()):
        assert u1.state() == u2.state(), u1.name
    if profile is not None:
        assert profile.backend == "codegen"
        assert profile.cycles == e2.cycle == e1.cycle
        assert profile.fires == e2.total_fires == e1.total_fires
    return c1, c2


def _random_pipeline(values, stages, slots, transparent):
    """A builder of Sequence -> (buffer, FU with constant operand)* -> Sink."""
    def build_circuit():
        c = DataflowCircuit("rand")
        src = c.add(Sequence("src", list(values)))
        prev, port = src, 0
        for i, (op, const) in enumerate(stages):
            buf_cls = TransparentFifo if transparent else ElasticBuffer
            buf = c.add(buf_cls(f"buf{i}", slots=slots))
            fu = c.add(FunctionalUnit(f"fu{i}", op))
            k = c.add(Sequence(f"k{i}", [const] * len(values)))
            c.connect(prev, port, buf, 0)
            c.connect(buf, 0, fu, 0)
            c.connect(k, 0, fu, 1)
            prev, port = fu, 0
        sink = c.add(Sink("out"))
        c.connect(prev, port, sink, 0)
        c.validate()
        return c, lambda: sink.count == len(values)
    return build_circuit


def _random_fork_join(values, n_out, latency):
    """A builder of Sequence -> EagerFork -> buffers -> Join -> FU -> Sink."""
    def build_circuit():
        c = DataflowCircuit("rand")
        src = c.add(Sequence("src", list(values)))
        f = c.add(EagerFork("f", n_out))
        j = c.add(Join("j", n_out))
        fu = c.add(FunctionalUnit("fu", "pass", latency_override=latency))
        sink = c.add(Sink("out"))
        c.connect(src, 0, f, 0)
        for i in range(n_out):
            b = c.add(ElasticBuffer(f"b{i}", slots=1 + i % 2))
            c.connect(f, i, b, 0)
            c.connect(b, 0, j, i)
        c.connect(j, 0, fu, 0)
        c.connect(fu, 0, sink, 0)
        c.validate()
        return c, lambda: sink.count == len(values)
    return build_circuit


values_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=10,
)
stages_strategy = st.lists(
    st.tuples(st.sampled_from(["fadd", "fmul", "fsub"]),
              st.floats(min_value=-4, max_value=4, allow_nan=False)),
    min_size=1, max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(values=values_strategy, stages=stages_strategy,
       slots=st.integers(min_value=1, max_value=3),
       transparent=st.booleans())
def test_random_pipelines_lockstep_event_codegen(values, stages, slots,
                                                 transparent):
    build_circuit = _random_pipeline(values, stages, slots, transparent)
    c1, c2 = _lockstep_codegen(build_circuit)
    assert c1.units["out"].received == c2.units["out"].received


@settings(max_examples=15, deadline=None)
@given(values=values_strategy,
       n_out=st.integers(min_value=2, max_value=4),
       latency=st.integers(min_value=0, max_value=6))
def test_random_fork_join_lockstep_event_codegen(values, n_out, latency):
    build_circuit = _random_fork_join(values, n_out, latency)
    c1, c2 = _lockstep_codegen(build_circuit)
    assert c1.units["out"].received == c2.units["out"].received


# The profiled variant is generated from its own source (the instrumented
# loop), so it gets the same cycle-by-cycle differential as the plain one.


@settings(max_examples=25, deadline=None)
@given(values=values_strategy, stages=stages_strategy,
       slots=st.integers(min_value=1, max_value=3),
       transparent=st.booleans())
def test_random_pipelines_lockstep_event_profiled_codegen(values, stages,
                                                          slots, transparent):
    build_circuit = _random_pipeline(values, stages, slots, transparent)
    c1, c2 = _lockstep_codegen(build_circuit, profile=SimProfile())
    assert c1.units["out"].received == c2.units["out"].received


@settings(max_examples=15, deadline=None)
@given(values=values_strategy,
       n_out=st.integers(min_value=2, max_value=4),
       latency=st.integers(min_value=0, max_value=6))
def test_random_fork_join_lockstep_event_profiled_codegen(values, n_out,
                                                          latency):
    build_circuit = _random_fork_join(values, n_out, latency)
    c1, c2 = _lockstep_codegen(build_circuit, profile=SimProfile())
    assert c1.units["out"].received == c2.units["out"].received


# ---------------------------------------------------------------------------
# backend plumbing


def _streaming_circuit(n_tokens):
    """Entry -> buffered FU pipeline -> Sink."""
    c = DataflowCircuit("stream")
    prev = c.add(Entry("src", value=1.5, count=n_tokens))
    for i in range(4):
        buf = c.add(ElasticBuffer(f"b{i}", slots=2))
        fu = c.add(FunctionalUnit(f"fu{i}", "fneg"))
        c.connect(prev, 0, buf, 0)
        c.connect(buf, 0, fu, 0)
        prev = fu
    sink = c.add(Sink("out"))
    c.connect(prev, 0, sink, 0)
    c.validate()
    return c


def test_codegen_rejects_non_catalogue_units():
    class OddFU(FunctionalUnit):
        pass

    c = DataflowCircuit("odd")
    src = c.add(Sequence("src", [1.0]))
    fu = c.add(OddFU("fu", "fneg"))
    sink = c.add(Sink("out"))
    c.connect(src, 0, fu, 0)
    c.connect(fu, 0, sink, 0)
    c.validate()
    with pytest.raises(SimulationError, match="OddFU") as exc:
        create_engine(c, backend="codegen")
    assert "--sim-backend event" in str(exc.value)
    # The event backend is the generic path: it simulates the unit.
    create_engine(c, backend="event")


def test_create_engine_rejects_unknown_backend():
    c = DataflowCircuit("t")
    src = c.add(Sequence("src", [1.0]))
    sink = c.add(Sink("out"))
    c.connect(src, 0, sink, 0)
    with pytest.raises(ReproError):
        create_engine(c, backend="verilator")


def test_cli_backend_choices_are_the_backends():
    assert SIM_BACKENDS == tuple(BACKENDS)
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "gsum", "--sim-backend", "compiled"])
    assert exc.value.code == 2


def test_run_technique_records_backend_provenance():
    rows = [run_technique("gsum", "crush", scale="small", sim_backend=b)
            for b in BACKENDS]
    for backend, row in zip(BACKENDS, rows):
        assert row.sim_backend == backend
    # All backends must produce the same row metrics.
    for row in rows[1:]:
        assert (rows[0].deterministic_metrics()
                == row.deterministic_metrics())


def test_run_cli_accepts_codegen(capsys):
    rc = cli_main(["run", "gsum", "crush", "--scale", "small",
                   "--sim-backend", "codegen"])
    assert rc == 0
    assert "codegen backend" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# generated-module cache: memory, disk, and salted invalidation


def test_module_cache_origins(codegen_cache):
    import repro.sim.codegen as cg

    e1 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e1.codegen_origin == "generated"
    # Same structure, same process: served from the namespace memo.
    e2 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e2.codegen_origin == "memory"
    assert e2.codegen_key == e1.codegen_key
    # Fresh process simulated by clearing the memo: marshalled bytecode
    # comes back from disk.
    cg._MODULE_CACHE.clear()
    e3 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e3.codegen_origin == "disk"
    # The source is published next to the bytecode for inspection.
    py = list(codegen_cache.rglob("*.py"))
    assert len(py) == 1 and e1.codegen_key in py[0].name
    assert "def loop(" in py[0].read_text()


def test_memo_serves_no_module_to_a_circuit_it_was_not_generated_for(
    codegen_cache,
):
    """Guard for keying the in-process memo: the schedule leaves out
    buffer depths, merge priorities, credit counts and array names, but
    the generated code embeds them (a buffer's ``nr = len(q) < slots``).
    Two circuits with one schedule need two modules, so a memo keyed by
    the schedule alone is unsound."""

    def chain(slots):
        c = DataflowCircuit(f"chain{slots}")
        src = c.add(Sequence("src", [1.0, 2.0, 3.0]))
        eb = c.add(ElasticBuffer("eb", slots=slots))
        sink = c.add(Sink("sink"))
        c.connect(src, 0, eb, 0)
        c.connect(eb, 0, sink, 0)
        return c

    e2 = create_engine(chain(2), backend="codegen")
    e5 = create_engine(chain(5), backend="codegen")
    assert e5.schedule == e2.schedule
    assert e5.codegen_key != e2.codegen_key
    # Generated for this circuit, not served the first circuit's module.
    assert e5.codegen_origin == "generated"


def test_only_a_codegen_edit_invalidates_cached_modules(codegen_cache,
                                                       monkeypatch):
    """An edit to the generator never serves stale code; an edit elsewhere
    in repro that leaves the generated text alone keeps the module warm."""
    import repro.sim.codegen as cg
    import repro.sweep.cache as sweep_cache

    e1 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e1.codegen_origin == "generated"
    # An edit outside the generator: the sweep cache's repo-wide salt
    # changes, the module key does not.
    monkeypatch.setattr(sweep_cache, "_code_salt_cache", "edited-repo")
    cg._MODULE_CACHE.clear()
    e2 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e2.codegen_key == e1.codegen_key
    assert e2.codegen_origin == "disk"
    # An edit to the generator: its salt changes, and so does the key.
    monkeypatch.setattr(cg, "_codegen_salt", lambda: b"edited-codegen")
    cg._MODULE_CACHE.clear()
    e3 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e3.codegen_key != e1.codegen_key
    assert e3.codegen_origin == "generated"  # disk entry no longer matches
    # Both keyed artifacts coexist; neither clobbered the other.
    assert len(list(codegen_cache.rglob("*.pyc"))) == 2


def test_disk_cache_corruption_is_self_healing(codegen_cache):
    import repro.sim.codegen as cg

    e1 = create_engine(_streaming_circuit(4), backend="codegen")
    pyc = list(codegen_cache.rglob("*.pyc"))[0]
    pyc.write_bytes(b"RCG1garbage")
    cg._MODULE_CACHE.clear()
    e2 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e2.codegen_origin == "generated"  # recompiled, not crashed
    c = _streaming_circuit(4)
    sink = c.units["out"]
    eng = CodegenEngine(c)
    eng.run(lambda: sink.count >= 4, max_cycles=10_000)
    assert sink.count == 4


# ---------------------------------------------------------------------------
# acyclicity check


def _comb_loop_circuit():
    """A handshake loop with no sequential element: a combinational cycle."""
    c = DataflowCircuit("loop")
    src = c.add(Sequence("src", [1.0]))
    m = c.add(Merge("m", 2))
    fu = c.add(FunctionalUnit("fu", "pass"))  # latency 0: fully comb
    f = c.add(EagerFork("f", 2))
    sink = c.add(Sink("out"))
    c.connect(src, 0, m, 0)
    c.connect(m, 0, fu, 0)
    c.connect(fu, 0, f, 0)
    c.connect(f, 0, sink, 0)
    c.connect(f, 1, m, 1)  # back-edge with no buffer
    c.validate()
    return c


def test_compiler_rejects_combinational_cycle():
    with pytest.raises(CombinationalCycleError) as exc:
        CodegenEngine(_comb_loop_circuit())
    msg = str(exc.value)
    # The diagnostic must name the cycle and suggest the fix.
    assert "combinational cycle" in msg
    assert "depends on" in msg
    assert "ElasticBuffer" in msg
    # Units on the loop are identified by name.
    assert "fu" in msg and "m" in msg


def test_buffered_loop_compiles():
    # The same loop with a sequential element on the back-edge is legal.
    c = DataflowCircuit("loop")
    src = c.add(Sequence("src", [1.0]))
    m = c.add(Merge("m", 2))
    fu = c.add(FunctionalUnit("fu", "pass"))
    f = c.add(EagerFork("f", 2))
    b = c.add(ElasticBuffer("b", slots=1))
    sink = c.add(Sink("out"))
    c.connect(src, 0, m, 0)
    c.connect(m, 0, fu, 0)
    c.connect(fu, 0, f, 0)
    c.connect(f, 0, sink, 0)
    c.connect(f, 1, b, 0)
    c.connect(b, 0, m, 1)
    c.validate()
    CodegenEngine(c)  # must not raise


# ---------------------------------------------------------------------------
# profiling: the event engine's step, codegen's profiled variant


def test_profile_hook_on_instrumented_backends():
    lowered = _prepare("gsum", "crush")
    for backend in BACKENDS:
        prof = SimProfile()
        run = simulate_kernel(
            lowered, max_cycles=2_000_000, backend=backend, profile=prof,
        )
        assert prof.backend == backend
        assert prof.cycles == run.cycles
        assert prof.fires == run.fires
        assert prof.total_evals > 0
        assert prof.wall_s > 0
        report = prof.report(top=3)
        assert backend in report
        assert "cycles/s" in report or "throughput" in report
        d = prof.to_dict()
        assert d["backend"] == backend
        assert d["cycles"] == run.cycles


def test_profile_hot_units_ranked():
    lowered = _prepare("gsum", "crush")
    prof = SimProfile()
    simulate_kernel(lowered, backend="codegen", profile=prof)
    hot = prof.hot_units(top=5)
    assert len(hot) <= 5
    counts = [n for _, n in hot]
    assert counts == sorted(counts, reverse=True)


def test_profiled_loop_counts_quiet_cycles():
    # Past the last token nothing fires or ticks; the profile counts
    # those cycles with every other.
    prof = SimProfile()
    engine = create_engine(_streaming_circuit(4), backend="codegen",
                           profile=prof)
    fires = engine.run_cycles(200) + engine.step()
    assert prof.cycles == engine.cycle == 201
    assert prof.fires == fires == engine.total_fires


@pytest.mark.parametrize("kernel", ["gsum", "gsumif"])
def test_profiled_codegen_run_equals_unprofiled(kernel):
    _assert_profiled_run_equals_unprofiled(kernel, "codegen")


@pytest.mark.parametrize("kernel", ["gsum", "gsumif"])
def test_profiled_event_run_equals_unprofiled(kernel):
    _assert_profiled_run_equals_unprofiled(kernel, "event")


def test_profiled_parity_tests_cover_every_backend():
    assert set(BACKENDS) == {"codegen", "event"}


def _assert_profiled_run_equals_unprofiled(kernel, backend):
    """A profile only observes: on every backend (codegen's profiled
    variant, the event engine's ``step``) a profiled run equals an
    unprofiled one, and the profile's cycles and fires are the run's."""
    lowered = _prepare(kernel, "crush")
    prof = SimProfile()
    runs, traces = {}, {}
    for name, profile in (("plain", None), ("profiled", prof)):
        traces[name] = Trace(record_all=True)
        runs[name] = simulate_kernel(
            lowered, max_cycles=2_000_000, backend=backend,
            trace=traces[name], profile=profile,
        )
    _assert_runs_identical(runs, traces, "plain")
    run = runs["profiled"]
    assert prof.backend == backend
    assert prof.cycles == run.cycles
    assert prof.fires == run.fires
    assert prof.total_evals > 0
    assert prof.wall_s > 0


def test_profiled_module_is_keyed_apart_from_the_plain_one(codegen_cache):
    """The profiled variant's header names it, so a profiled engine and
    an unprofiled one over the same circuit load different modules:
    neither is served the other's from the memo or the disk cache."""
    plain = create_engine(_streaming_circuit(4), backend="codegen")
    profiled = create_engine(_streaming_circuit(4), backend="codegen",
                             profile=SimProfile())
    assert profiled.codegen_key != plain.codegen_key
    assert plain.codegen_origin == "generated"
    assert profiled.codegen_origin == "generated"
    again = create_engine(_streaming_circuit(4), backend="codegen")
    assert again.codegen_key == plain.codegen_key
    assert again.codegen_origin == "memory"


def test_profile_cli_reports_event_and_codegen(capsys):
    rc = cli_main(["profile", "gsum", "--scale", "small"])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^backend +event$", out, re.M)
    assert re.search(r"^backend +codegen$", out, re.M)
    assert "identical results" in out
    assert cli_main(["profile", "gsum", "--scale", "small",
                     "--sim-backend", "codegen"]) == 0
    assert re.search(r"^backend +codegen$", capsys.readouterr().out, re.M)
    # The lane-parallel loop stays unprofiled.
    assert cli_main(["profile", "gsum", "--scale", "small",
                     "--lanes", "2"]) == 2


# ---------------------------------------------------------------------------
# pieces: bounded compile units sharing one set of cells

#: Names the pieces share through cells.  A piece that assigned one
#: without declaring it ``nonlocal`` (a plain local) or read one it does
#: not bind (a global) would silently desynchronize the pieces.
CELL_NAME = re.compile(
    r"(?:v|r|d|a|ga|fg|t|tb|tg|tgb|k|adv)\d+|kany|fires|ticked|cycle|_rec"
)


def _leaked_cell_names(circuit, **variant):
    import repro.sim.codegen as cg

    pieces = cg.generate_pieces(circuit, compile_schedule(circuit),
                                **variant)
    leaks = {}
    for code in (cg._compile_piece(p, "<piece>") for p in pieces):
        if code.co_name == "make_mask_loop":
            continue  # one function over its own locals
        globals_ = [i.argval for i in dis.get_instructions(code)
                    if i.opname in ("LOAD_GLOBAL", "STORE_GLOBAL")]
        names = [n for n in globals_ + list(code.co_varnames)
                 if CELL_NAME.fullmatch(n)]
        if names:
            leaks[code.co_name] = names
    return pieces, leaks


def test_paper_scale_3mm_compiles_in_pieces_within_budget():
    import repro.sim.codegen as cg

    circuit = prepare_circuit("3mm", "crush", scale="paper").circuit
    pieces, leaks = _leaked_cell_names(circuit)
    # One compile() call per piece, none larger than the budget.
    assert len(pieces) > 1
    assert max(len(p) for p in pieces) <= cg.PIECE_BUDGET
    assert leaks == {}


def test_laned_pieces_bind_every_shared_name_to_a_cell():
    circuit = prepare_circuit("gsumif", "crush", scale="small").circuit
    _pieces, leaks = _leaked_cell_names(circuit, lanes=True)
    assert leaks == {}


def test_profiled_pieces_bind_every_shared_name_to_a_cell():
    circuit = prepare_circuit("gsumif", "crush", scale="small").circuit
    _pieces, leaks = _leaked_cell_names(circuit, profiled=True)
    assert leaks == {}


def test_one_group_per_piece_stays_bit_identical(codegen_cache,
                                                 monkeypatch):
    """With every group in a piece of its own, signals and flags cross a
    piece boundary at every group: the lockstep and golden differentials
    then check that the pieces share one set of cells."""
    import repro.sim.codegen as cg

    circuit = _streaming_circuit(4)
    schedule = compile_schedule(circuit)
    default = len(cg.generate_pieces(circuit, schedule))
    monkeypatch.setattr(cg, "PIECE_BUDGET", 1)
    assert len(cg.generate_pieces(circuit, schedule)) > default
    test_random_pipelines_lockstep_event_codegen()
    test_random_fork_join_lockstep_event_codegen()
    for kernel, technique in (("gsumif", "crush"), ("atax", "inorder")):
        test_backends_bit_identical_on_goldens(kernel, technique)


def test_finished_engine_is_freed_without_the_cyclic_gc():
    c = _streaming_circuit(4)
    sink = c.units["out"]
    engine = create_engine(c, backend="codegen")
    engine.run(lambda: sink.count >= 4, max_cycles=10_000)
    ref = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert ref() is None
    finally:
        gc.enable()
