"""Differential and contract tests for batched (lane-parallel) simulation.

The one laned engine (`repro.sim.batched.BatchedEngine`) promises
bit-identical results to B scalar runs — per-lane cycle counts, fire
counts, memory contents and sink values — whether the batch runs
lockstep (shared control, lane tuples for data) or promotes to mask-lane
(MIMD) execution after a :class:`LaneDivergence`.  The scalar engines
are the oracle.  Event batches have no laned engine and run seed by
seed.

Also covered: the observer refusal contract (batched mode rejects
Trace/SimProfile/sanitizer with clean errors, the profile CLI exits 2
on ``--lanes``), per-seed sweep cache rows
(batched-vs-scalar and warm-vs-cold equivalence), and the codegen disk
cache's laned/scalar key separation (a laned module must never poison a
scalar run, or vice versa).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import (
    DataflowCircuit,
    ElasticBuffer,
    EagerFork,
    FunctionalUnit,
    Join,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.errors import SimulationError
from repro.frontend import simulate_kernel, simulate_kernel_batch
from repro.frontend.interp import run_reference
from repro.frontend.kernels import KERNEL_NAMES
from repro.frontend.runner import default_inputs
from repro.pipeline import (
    TECHNIQUES,
    prepare_circuit,
    run_technique,
    run_technique_batch,
)
from repro.sim import (
    BatchedEngine,
    Memory,
    SimProfile,
    Trace,
    create_engine,
)
from repro.sim.codegen import CodegenEngine, generate_source, source_key
from repro.sim.signal_graph import compile_schedule

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]

#: Distinct input sets; lane l of a B-lane batch simulates SEEDS[l].
SEEDS = (7, 11, 13, 17, 19, 23, 29)
LANE_COUNTS = (1, 2, 7)


def _prepare(kernel_name, technique, style="bb"):
    """One golden configuration's circuit, built by the pipeline itself."""
    return prepare_circuit(
        kernel_name, technique, style=style, scale="small"
    ).lowered


def _lane_memories(kernel, seeds):
    """One initialized Memory + expected-writes target per seed."""
    memories, expected = [], []
    for s in seeds:
        inputs = default_inputs(kernel, seed=s)
        ref = run_reference(kernel, inputs)
        mem = Memory()
        for arr in kernel.arrays:
            size = arr.resolved_size(kernel.params)
            mem.allocate(arr.name, size, init=inputs[arr.name])
        memories.append(mem)
        expected.append(ref.writes)
    return memories, expected


def _run_batched(lowered, seeds, backend):
    """Drive one batched engine the way ``simulate_kernel_batch`` does."""
    kernel = lowered.kernel
    memories, expected = _lane_memories(kernel, seeds)
    engine = create_engine(
        lowered.circuit, backend=backend, lanes=len(seeds), memories=memories,
    )
    end = lowered.end_sink

    def done_lane(lane):
        return (
            engine.sink_count(end, lane) >= 1
            and memories[lane].writes >= expected[lane]
        )

    cycles = engine.run_lanes(
        done_lane, max_cycles=2_000_000,
        uniform_done=(len(set(expected)) == 1),
    )
    return engine, memories, cycles


# ---------------------------------------------------------------------------
# all 42 goldens x B in {1, 2, 7}: the laned engine bit-identical to scalar


@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_batched_bit_identical_on_goldens(kernel, technique):
    lowered = _prepare(kernel, technique)
    scalar = {
        s: simulate_kernel(lowered, seed=s, backend="event")
        for s in SEEDS[:max(LANE_COUNTS)]
    }
    for lanes in LANE_COUNTS:
        seeds = SEEDS[:lanes]
        engine, memories, cycles = _run_batched(lowered, seeds, "codegen")
        for lane, seed in enumerate(seeds):
            want = scalar[seed]
            label = f"B={lanes} lane={lane}"
            assert cycles[lane] == want.cycles, label
            assert engine.lane_fires[lane] == want.fires, label
            assert memories[lane].writes == want.reference.writes, label
            for name in want.arrays:
                got = memories[lane].dump(name)
                assert np.array_equal(got, want.arrays[name]), (
                    f"{label}: array {name}"
                )


def test_simulate_kernel_batch_matches_scalar_runs():
    lowered = _prepare("bicg", "crush")
    seeds = [7, 11, 13]
    runs = simulate_kernel_batch(lowered, seeds, backend="codegen")
    for seed, run in zip(seeds, runs):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        assert run.cycles == want.cycles
        assert run.fires == want.fires
        for name in want.arrays:
            assert np.array_equal(run.arrays[name], want.arrays[name])


def test_event_batch_runs_seed_by_seed():
    # The event backend has no laned engine: its batch is the list of
    # scalar runs, sharing one batch wall time like a laned batch.
    lowered = _prepare("gsumif", "crush")
    seeds = [7, 11, 13]
    runs = simulate_kernel_batch(lowered, seeds, backend="event")
    for seed, run in zip(seeds, runs):
        want = simulate_kernel(lowered, seed=seed, backend="event")
        assert (run.cycles, run.fires) == (want.cycles, want.fires)
        assert run.data_plane == "scalar"
        assert run.mask_promotions == 0 and run.fallback_lanes == 0
    assert len({run.sim_wall_s for run in runs}) == 1
    # Seed by seed, each run can carry its own sanitizer.
    sanitized = simulate_kernel_batch(lowered, seeds, backend="event",
                                      sanitize=True)
    assert [(r.cycles, r.fires) for r in sanitized] == \
        [(r.cycles, r.fires) for r in runs]


def test_run_technique_batch_rows_match_scalar():
    rows = run_technique_batch(
        "atax", "crush", seeds=[7, 11], scale="small", sim_backend="codegen",
    )
    for row in rows:
        want = run_technique(
            "atax", "crush", scale="small", sim_backend="codegen",
            seed=row.seed,
        )
        assert row.deterministic_metrics() == want.deterministic_metrics()
        assert row.seed == want.seed


# ---------------------------------------------------------------------------
# divergence mechanics (mask promotion, done-mask freezing, per-lane results)


def test_lockstep_kernel_runs_without_divergence():
    lowered = _prepare("atax", "crush")
    engine, _, _ = _run_batched(lowered, SEEDS[:3], "codegen")
    assert engine.mask_promotions == 0
    assert engine.divergence is None
    assert engine.done_mask == 0b111


def test_divergent_kernel_promotes_to_mask_lanes():
    # gsumif branches on input data: distinct lanes must diverge, and the
    # engine must promote to mask-lane execution (no scalar fallback) yet
    # still deliver bit-exact per-lane results.
    lowered = _prepare("gsumif", "crush")
    engine, memories, cycles = _run_batched(lowered, SEEDS[:3], "codegen")
    assert engine.mask_promotions == 1
    assert engine.divergence is not None
    assert engine.divergence.channel
    assert engine.divergence.cycle is not None
    assert engine.promotion_cycle == engine.divergence.cycle
    assert engine.done_mask == 0b111
    for lane, seed in enumerate(SEEDS[:3]):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        assert cycles[lane] == want.cycles
        assert engine.lane_fires[lane] == want.fires
        for name in want.arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  want.arrays[name])


def _chain_circuit(values):
    """values -> fadd(+1) -> sink; scalar-control, no memory."""
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", list(values)))
    one = c.add(Sequence("one", [1.0] * len(values)))
    buf = c.add(ElasticBuffer("buf", slots=2))
    fu = c.add(FunctionalUnit("fu", "fadd"))
    sink = c.add(Sink("out"))
    c.connect(src, 0, buf, 0)
    c.connect(buf, 0, fu, 0)
    c.connect(one, 0, fu, 1)
    c.connect(fu, 0, sink, 0)
    c.validate()
    return c


def test_partial_done_mask_freezes_lanes_via_mask_promotion():
    # Per-lane done predicates that complete at different times force a
    # partial done-mask: the engine must freeze early lanes exactly where
    # a scalar run with the same predicate would stop.
    values = [2.0, 3.0, 5.0, 8.0]
    targets = [1, 4, 2]  # lane l is done after targets[l] sink tokens
    c = _chain_circuit(values)
    engine = create_engine(c, backend="codegen", lanes=3)
    cycles = engine.run_lanes(
        lambda lane: engine.sink_count("out", lane) >= targets[lane],
        uniform_done=False,
    )
    assert engine.mask_promotions == 1  # partial mask -> promotion
    assert engine.divergence is not None
    assert engine.divergence.channel == "done"
    for lane, target in enumerate(targets):
        c_ref = _chain_circuit(values)
        ref = create_engine(c_ref, backend="event")
        sink = c_ref.units["out"]
        ref_cycles = ref.run(lambda: sink.count >= target)
        assert cycles[lane] == ref_cycles, lane
        assert engine.sink_count("out", lane) == target
        assert engine.sink_received("out", lane) == sink.received


# ---------------------------------------------------------------------------
# hypothesis: random circuits x lane counts, batched lanes == scalar run


values_strategy = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=10,
)
stages_strategy = st.lists(
    st.tuples(st.sampled_from(["fadd", "fmul", "fsub"]),
              st.floats(min_value=-4, max_value=4, allow_nan=False)),
    min_size=1, max_size=4,
)


def _pipeline_circuit(values, stages, slots, transparent):
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
    return c


def _assert_lanes_match_scalar(make_circuit, n_tokens, lanes):
    c_ref = make_circuit()
    ref = create_engine(c_ref, backend="event")
    sink = c_ref.units["out"]
    ref_cycles = ref.run(lambda: sink.count >= n_tokens, max_cycles=3_000)

    c_b = make_circuit()
    engine = create_engine(c_b, backend="codegen", lanes=lanes)
    cycles = engine.run_lanes(
        lambda lane: engine.sink_count("out", lane) >= n_tokens,
        max_cycles=3_000, uniform_done=True,
    )
    for lane in range(lanes):
        assert cycles[lane] == ref_cycles, lane
        assert engine.lane_fires[lane] == ref.total_fires, lane
        assert engine.sink_received("out", lane) == sink.received, lane


@settings(max_examples=20, deadline=None)
@given(values=values_strategy, stages=stages_strategy,
       slots=st.integers(min_value=1, max_value=3),
       transparent=st.booleans(),
       lanes=st.integers(min_value=1, max_value=5))
def test_random_pipelines_batched_lanes_match_scalar(
        values, stages, slots, transparent, lanes):
    _assert_lanes_match_scalar(
        lambda: _pipeline_circuit(values, stages, slots, transparent),
        len(values), lanes,
    )


@settings(max_examples=12, deadline=None)
@given(values=values_strategy,
       n_out=st.integers(min_value=2, max_value=4),
       latency=st.integers(min_value=0, max_value=6),
       lanes=st.integers(min_value=1, max_value=4))
def test_random_fork_join_batched_lanes_match_scalar(
        values, n_out, latency, lanes):
    def make_circuit():
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
        return c

    _assert_lanes_match_scalar(make_circuit, len(values), lanes)


# ---------------------------------------------------------------------------
# observer refusal contract


def test_event_backend_has_no_laned_engine():
    with pytest.raises(SimulationError, match="simulate_kernel_batch"):
        create_engine(_chain_circuit([1.0]), backend="event", lanes=2)
    # The generated-loop backend gets the laned engine.
    engine = create_engine(_chain_circuit([1.0]), backend="codegen", lanes=2)
    assert type(engine) is BatchedEngine


@pytest.mark.parametrize("backend", ["codegen"])
def test_batched_refuses_observers(backend):
    c = _chain_circuit([1.0, 2.0])
    with pytest.raises(SimulationError, match="Trace"):
        create_engine(c, backend=backend, lanes=2, trace=Trace())
    with pytest.raises(SimulationError, match="SimProfile"):
        create_engine(c, backend=backend, lanes=2, profile=SimProfile())
    with pytest.raises(SimulationError, match="[Ss]anitizer"):
        create_engine(c, backend=backend, lanes=2, sanitize=True)


def test_batched_refuses_env_defaulted_observers(monkeypatch):
    c = _chain_circuit([1.0])
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    with pytest.raises(SimulationError, match="[Ss]anitizer"):
        create_engine(c, backend="codegen", lanes=2)


def test_create_engine_lane_argument_validation():
    c = _chain_circuit([1.0])
    with pytest.raises(SimulationError, match="lanes"):
        create_engine(c, backend="codegen", lanes=0)
    with pytest.raises(SimulationError, match="memories"):
        create_engine(c, backend="codegen", memories=[Memory()])
    with pytest.raises(SimulationError, match="memor"):
        create_engine(c, backend="codegen", lanes=2, memory=Memory())
    # This circuit has no load/store ports: lane memories are meaningless.
    with pytest.raises(SimulationError, match="memor"):
        create_engine(c, backend="codegen", lanes=2,
                      memories=[Memory(), Memory()])
    # And a memory-using circuit must get exactly one memory per lane.
    lowered = _prepare("atax", "crush")
    memories, _ = _lane_memories(lowered.kernel, SEEDS[:2])
    with pytest.raises(SimulationError, match="per lane"):
        create_engine(lowered.circuit, backend="codegen", lanes=3,
                      memories=memories)


def test_profile_cli_rejects_lanes_with_exit_2(capsys):
    from repro.cli import main

    rc = main(["profile", "atax", "--lanes", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scalar-only" in err and "--lanes" in err


def test_run_cli_rejects_observers_with_multi_seed_batch(capsys):
    from repro.cli import main

    rc = main(["run", "atax", "crush", "--seeds", "7,11", "--sanitize",
               "--lanes", "2"])
    assert rc == 2
    assert "scalar-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep cache rows: batched == scalar, warm == cold, per input set


def test_batched_sweep_writes_scalar_equivalent_cache_rows(tmp_path):
    from repro.sweep import ResultCache, build_matrix, run_sweep

    jobs = build_matrix(
        kernels=["atax"], techniques=["crush"], scale="small",
        sim_backend="codegen", seeds=(7, 11, 13),
    )
    cache_scalar = ResultCache(tmp_path / "scalar")
    cache_batched = ResultCache(tmp_path / "batched")

    out_scalar = run_sweep(jobs, cache=cache_scalar).raise_on_failure()
    out_batched = run_sweep(
        jobs, cache=cache_batched, lanes=3
    ).raise_on_failure()

    for rec_s, rec_b in zip(out_scalar.records, out_batched.records):
        assert rec_s.job == rec_b.job
        assert (rec_s.result.deterministic_metrics()
                == rec_b.result.deterministic_metrics())

    # Content-addressed row files: same keys, one per input set.
    keys_scalar = sorted(p.name for p in (tmp_path / "scalar").glob("*/*.json"))
    keys_batched = sorted(p.name for p in (tmp_path / "batched").glob("*/*.json"))
    assert keys_scalar == keys_batched
    assert len(keys_scalar) == len(jobs)

    # Warm-vs-cold, both directions: a batched sweep fully hits a cache a
    # scalar sweep wrote, and vice versa.
    warm_b = run_sweep(jobs, cache=cache_scalar, lanes=3)
    assert warm_b.cache_hits == len(jobs)
    warm_s = run_sweep(jobs, cache=cache_batched)
    assert warm_s.cache_hits == len(jobs)


def test_batched_sweep_isolates_failing_batches(tmp_path):
    # A job doomed to fail (max_cycles far too small, which also gives it
    # a batch key of its own) fails as its own record while the batch of
    # its siblings completes; tests/sweep covers a batch that fails.
    from repro.sweep import ResultCache, SweepJob, run_sweep

    good = [SweepJob("atax", "crush", scale="small", sim_backend="codegen",
                     seed=s) for s in (7, 11)]
    bad = SweepJob("atax", "crush", scale="small", sim_backend="codegen",
                   seed=13, max_cycles=3)
    out = run_sweep(good + [bad], cache=ResultCache(tmp_path), lanes=4,
                    retries=0)
    assert [r.ok for r in out.records] == [True, True, False]
    assert out.records[2].error_type == "SimulationError"


# ---------------------------------------------------------------------------
# codegen disk cache: laned and scalar modules must never collide


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    """Isolated disk cache + an empty in-process memo for every test."""
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    return tmp_path / "cgc"


def test_laned_and_scalar_sources_have_distinct_keys(codegen_cache):
    c = _chain_circuit([1.0, 2.0])
    schedule = compile_schedule(c)
    scalar_src = generate_source(c, schedule)
    laned_src = generate_source(c, schedule, lanes=True)
    assert scalar_src != laned_src
    assert source_key(scalar_src) != source_key(laned_src)


def test_laned_module_cannot_poison_scalar_runs(codegen_cache):
    values = [1.0, 2.0, 3.0]
    # Populate the disk cache with the laned module first.
    c_b = _chain_circuit(values)
    batched = BatchedEngine(c_b, lanes=2)
    batched.run_lanes(
        lambda lane: batched.sink_count("out", lane) >= len(values),
        uniform_done=True,
    )
    # A scalar engine on the same circuit must get the scalar module...
    c_s = _chain_circuit(values)
    scalar = CodegenEngine(c_s)
    assert scalar.codegen_key != batched.codegen_key
    sink = c_s.units["out"]
    scalar.run(lambda: sink.count >= len(values))
    assert sink.received == batched.sink_received("out", 0)
    # ...and both modules coexist on disk under their own keys.
    cached = {p.stem for p in codegen_cache.glob("*/*.py")}
    assert {scalar.codegen_key, batched.codegen_key} <= cached


def test_batched_codegen_reloads_laned_module_from_disk(codegen_cache):
    import repro.sim.codegen as cg

    values = [4.0, 5.0]
    before = dict(cg.CODEGEN_STATS)
    first = BatchedEngine(_chain_circuit(values), lanes=3)
    assert first.codegen_origin == "generated"
    # New in-process memo: the second construction must come from disk.
    cg._MODULE_CACHE.clear()
    second = BatchedEngine(_chain_circuit(values), lanes=3)
    assert second.codegen_key == first.codegen_key
    assert second.codegen_origin == "disk"
    # Same module object serves any lane count: it binds LB at runtime.
    third = create_engine(_chain_circuit(values), backend="codegen",
                          lanes=5)
    assert third.codegen_key == first.codegen_key
    assert third.codegen_origin == "memory"
    # Lane batches count in CODEGEN_STATS like every generated module.
    assert {k: cg.CODEGEN_STATS[k] - before[k] for k in before} == {
        "generated": 1, "disk": 1, "memory": 1,
    }
