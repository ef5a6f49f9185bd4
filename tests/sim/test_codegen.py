"""Differential and cache tests for the specializing codegen backend.

The codegen backend (`repro.sim.codegen`) emits one specialized Python
module per circuit structure, compiled in bounded pieces, and must stay
*bit-identical* to the event-driven oracle — same cycle counts, same
per-channel firing traces, same final memory and sink state — on golden
kernels (covered three-ways in test_compiled.py) and on randomized
circuits in lockstep.  Also covered here: the content-addressed
generated-module cache (in-process, disk, and salted invalidation), the
piece budget and the cells the pieces share, the observer restrictions,
and the CLI's clean error exits for unsupported combinations.
"""

import dis
import gc
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.circuit import (
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    Entry,
    FunctionalUnit,
    Join,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.errors import SimulationError
from repro.sim import SimProfile, Trace, create_engine
from repro.sim.codegen import CodegenEngine
from repro.sim.signal_graph import compile_schedule


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    """Isolated disk cache + empty in-process memo for every test."""
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    return tmp_path / "cgc"


# ---------------------------------------------------------------------------
# hypothesis lockstep: event oracle vs codegen, cycle by cycle


def _lockstep_codegen(build_circuit, max_cycles=3_000):
    c1, done1 = build_circuit()
    c2, done2 = build_circuit()
    t1, t2 = Trace(record_all=True), Trace(record_all=True)
    e1 = create_engine(c1, backend="event", trace=t1)
    e2 = create_engine(c2, backend="codegen", trace=t2)
    for cycle in range(max_cycles):
        f1, f2 = e1.step(), e2.step()
        assert f1 == f2, f"fire count diverged at cycle {cycle}: {f1} != {f2}"
        if done1() and done2():
            break
    assert done1() and done2(), "circuits did not complete in lockstep"
    assert t1.fires == t2.fires
    for u1, u2 in zip(c1.units.values(), c2.units.values()):
        assert u1.state() == u2.state(), u1.name
    return c1, c2


values_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=10,
)


@settings(max_examples=25, deadline=None)
@given(values=values_strategy,
       stages=st.lists(
           st.tuples(st.sampled_from(["fadd", "fmul", "fsub"]),
                     st.floats(min_value=-4, max_value=4, allow_nan=False)),
           min_size=1, max_size=4),
       slots=st.integers(min_value=1, max_value=3),
       transparent=st.booleans())
def test_random_pipelines_lockstep_event_codegen(values, stages, slots,
                                                 transparent):
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

    c1, c2 = _lockstep_codegen(build_circuit)
    assert c1.units["out"].received == c2.units["out"].received


@settings(max_examples=15, deadline=None)
@given(values=values_strategy,
       n_out=st.integers(min_value=2, max_value=4),
       latency=st.integers(min_value=0, max_value=6))
def test_random_fork_join_lockstep_event_codegen(values, n_out, latency):
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

    c1, c2 = _lockstep_codegen(build_circuit)
    assert c1.units["out"].received == c2.units["out"].received


# ---------------------------------------------------------------------------
# observer restrictions and backend plumbing


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


def test_codegen_rejects_profile():
    with pytest.raises(SimulationError, match="SimProfile"):
        create_engine(_streaming_circuit(4), backend="codegen",
                      profile=SimProfile())


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
    with pytest.raises(SimulationError, match="OddFU"):
        create_engine(c, backend="codegen")
    # The compiled backend still accepts it (generic fallback).
    create_engine(c, backend="compiled")


def test_profile_cli_errors_cleanly_on_codegen(capsys):
    # Exit code 2 and a one-line error, not a traceback.
    rc = cli_main(["profile", "gsum", "--scale", "small",
                   "--sim-backend", "codegen"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "SimProfile" in err or "profile" in err


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
    """Guard for keying the in-process memo: ``structure_key`` (the
    schedule's key) leaves out buffer depths, merge priorities, credit
    counts and array names, but the generated code embeds them (a
    buffer's ``nr = len(q) < slots``).  Two circuits with one schedule
    need two modules, so a memo keyed by the schedule alone is unsound."""

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
    assert e5.schedule.key == e2.schedule.key
    assert e5.codegen_key != e2.codegen_key
    # Generated for this circuit, not served the first circuit's module.
    assert e5.codegen_origin == "generated"


def test_salted_source_change_invalidates_cache(codegen_cache, monkeypatch):
    """A repro source change must never serve stale generated code."""
    import repro.sim.codegen as cg
    import repro.sweep.cache as sweep_cache

    e1 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e1.codegen_origin == "generated"
    # Simulate an edit to a repro module: the source salt changes.
    monkeypatch.setattr(sweep_cache, "_code_salt_cache", "poisoned-salt")
    cg._MODULE_CACHE.clear()
    e2 = create_engine(_streaming_circuit(4), backend="codegen")
    assert e2.codegen_key != e1.codegen_key
    assert e2.codegen_origin == "generated"  # disk entry no longer matches
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
# schedule memoization (shared with the compiled backend)


def test_schedule_memoized_across_engines_and_backends():
    c1 = _streaming_circuit(4)
    c2 = _streaming_circuit(4)
    s1 = compile_schedule(c1)
    s2 = compile_schedule(c2)
    assert s1 is s2  # same structure hash -> same cached schedule
    e_compiled = create_engine(c1, backend="compiled")
    e_codegen = create_engine(c2, backend="codegen")
    assert e_codegen.schedule is s1


# ---------------------------------------------------------------------------
# pieces: bounded compile units sharing one set of cells

#: Names the pieces share through cells.  A piece that assigned one
#: without declaring it ``nonlocal`` (a plain local) or read one it does
#: not bind (a global) would silently desynchronize the pieces.
CELL_NAME = re.compile(
    r"(?:v|r|d|a|ga|fg|t|tb|tg|tgb|k|adv)\d+|kany|fires|ticked|cycle|_rec"
)


def _leaked_cell_names(circuit, lanes=False):
    import repro.sim.codegen as cg

    pieces = cg.generate_pieces(circuit, compile_schedule(circuit),
                                lanes=lanes)
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
    from repro.pipeline import prepare_circuit

    circuit = prepare_circuit("3mm", "crush", scale="paper").circuit
    pieces, leaks = _leaked_cell_names(circuit)
    # One compile() call per piece, none larger than the budget.
    assert len(pieces) > 1
    assert max(len(p) for p in pieces) <= cg.PIECE_BUDGET
    assert leaks == {}


def test_laned_pieces_bind_every_shared_name_to_a_cell():
    from repro.pipeline import prepare_circuit

    circuit = prepare_circuit("gsumif", "crush", scale="small").circuit
    _pieces, leaks = _leaked_cell_names(circuit, lanes=True)
    assert leaks == {}


def test_one_group_per_piece_stays_bit_identical(codegen_cache,
                                                 monkeypatch):
    """With every group in a piece of its own, signals and flags cross a
    piece boundary at every group: the lockstep and golden differentials
    then check that the pieces share one set of cells."""
    import repro.sim.codegen as cg
    from tests.sim import test_compiled

    circuit = _streaming_circuit(4)
    schedule = compile_schedule(circuit)
    default = len(cg.generate_pieces(circuit, schedule))
    monkeypatch.setattr(cg, "PIECE_BUDGET", 1)
    assert len(cg.generate_pieces(circuit, schedule)) > default
    test_random_pipelines_lockstep_event_codegen()
    test_random_fork_join_lockstep_event_codegen()
    for kernel, technique in (("gsumif", "crush"), ("atax", "inorder")):
        test_compiled.test_backends_bit_identical_on_goldens(kernel,
                                                             technique)


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
