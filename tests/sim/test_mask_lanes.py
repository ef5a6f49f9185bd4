"""Mask-lane (MIMD) execution tests: divergence without scalar fallback.

The generated-loop batched engines promote from lockstep to mask-lane
execution at the first control divergence (`repro.sim.batched`): every
1-bit control signal becomes a per-lane bitmask integer and each lane
gets its own done/cycle-freeze bit.  These tests pin the promotion
contract:

* divergent batches (``gsumif``, and a synthetic load→branch circuit)
  stay lane-parallel — ``fallback_lanes == 0`` — yet remain bit-identical
  to scalar runs per lane, across lane counts up to 64;
* lanes frozen by an early ``done`` predicate never perturb survivors
  (hypothesis property);
* the mask-capable laned module has its own content-addressed disk-cache
  key and still promotes correctly when reloaded from disk;
* every golden configuration survives being *forced* through the mask
  loop from cycle 0 (``start_masked=True``) bit-identically on the lane
  tuple data plane;
* mid-run lockstep→mask promotion lifts live state into lane tuples
  correctly, and batched runs record that plane as their provenance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import critical_cfcs, insert_timing_buffers, place_buffers
from repro.baselines import inorder_share, naive_share
from repro.circuit import (
    Branch,
    DataflowCircuit,
    ElasticBuffer,
    FunctionalUnit,
    LoadPort,
    Sequence,
    Sink,
)
from repro.core import crush
from repro.frontend import lower_kernel, simulate_kernel
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.frontend.runner import default_inputs
from repro.frontend.interp import run_reference
from repro.pipeline import TECHNIQUES
from repro.sim import Memory, create_engine
from repro.sim.batched import BatchedCodegenEngine
from repro.sim.codegen import generate_source, source_key
from repro.sim.signal_graph import compile_schedule

PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]
SHARE = {"naive": naive_share, "inorder": inorder_share, "crush": crush}

#: Lane counts the issue calls out: small, a byte, and beyond the word
#: sizes any packed-bool representation would be tempted to assume.
LANE_COUNTS = (2, 8, 64)


def _prepare(kernel_name, technique, style="bb"):
    kernel = build(kernel_name, scale="small")
    lowered = lower_kernel(kernel, style=style)
    circuit = lowered.circuit
    cfcs = critical_cfcs(circuit)
    place_buffers(circuit, cfcs)
    SHARE[technique](circuit, cfcs)
    insert_timing_buffers(circuit)
    return lowered


def _lane_memories(kernel, seeds):
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


def _run_batched(lowered, seeds, backend, start_masked=False):
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
        start_masked=start_masked,
    )
    return engine, memories, cycles


# ---------------------------------------------------------------------------
# gsumif: a real data-dependent kernel, across the issue's lane counts


@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_gsumif_mask_lanes_bit_identical_to_scalar(lanes):
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 100 + lanes))
    engine, memories, cycles = _run_batched(lowered, seeds, "codegen")
    # Distinct input sets must diverge — and stay lane-parallel.
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    assert engine.divergence is not None
    assert engine.done_mask == (1 << lanes) - 1
    for lane, seed in enumerate(seeds):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        label = f"lane {lane} (seed {seed})"
        assert cycles[lane] == want.cycles, label
        assert engine.lane_fires[lane] == want.fires, label
        for name in want.arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  want.arrays[name]), f"{label}: {name}"


# ---------------------------------------------------------------------------
# synthetic forced-divergence circuit: per-lane memory steers a branch


N_FLAGS = 12


def _divergent_circuit():
    """addr → load("flags") → branch.cond; branch steers data to 2 sinks.

    The branch condition is *loaded from memory*, so per-lane memories
    with different flag patterns force control divergence by
    construction — the minimal circuit whose lanes cannot stay lockstep.
    """
    c = DataflowCircuit("diverge")
    addr = c.add(Sequence("addr", [float(i) for i in range(N_FLAGS)]))
    data = c.add(Sequence("data", [float(10 + i) for i in range(N_FLAGS)]))
    buf = c.add(ElasticBuffer("buf", slots=2))
    load = c.add(LoadPort("load", "flags"))
    br = c.add(Branch("br"))
    st = c.add(Sink("st"))
    sf = c.add(Sink("sf"))
    c.connect(addr, 0, load, 0)
    c.connect(load, 0, br, 0)   # cond
    c.connect(data, 0, buf, 0)
    c.connect(buf, 0, br, 1)    # data
    c.connect(br, 0, st, 0)     # true side
    c.connect(br, 1, sf, 0)     # false side
    c.validate()
    return c


def _flag_pattern(lane):
    # Lane-dependent 0/1 pattern; lane 0 and lane 1 already differ at
    # flag 0, so any batch of >= 2 lanes diverges on the first branch.
    return [float((i * (lane + 1) + lane) % 3 == 0) for i in range(N_FLAGS)]


def _flags_memory(lane):
    mem = Memory()
    mem.allocate("flags", N_FLAGS, init=_flag_pattern(lane))
    return mem


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("backend", ["compiled", "codegen"])
def test_synthetic_divergence_bit_identical_to_scalar(backend, lanes):
    c = _divergent_circuit()
    memories = [_flags_memory(lane) for lane in range(lanes)]
    engine = create_engine(c, backend=backend, lanes=lanes,
                           memories=memories)
    cycles = engine.run_lanes(
        lambda lane: (engine.sink_count("st", lane)
                      + engine.sink_count("sf", lane)) >= N_FLAGS,
        max_cycles=10_000, uniform_done=True,
    )
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    assert engine.divergence is not None
    assert "br" in engine.divergence.channel

    for lane in range(lanes):
        c_ref = _divergent_circuit()
        ref = create_engine(c_ref, backend=backend,
                            memory=_flags_memory(lane))
        st_u, sf_u = c_ref.units["st"], c_ref.units["sf"]
        ref_cycles = ref.run(
            lambda: st_u.count + sf_u.count >= N_FLAGS, max_cycles=10_000,
        )
        assert cycles[lane] == ref_cycles, lane
        assert engine.lane_fires[lane] == ref.total_fires, lane
        assert engine.sink_received("st", lane) == st_u.received, lane
        assert engine.sink_received("sf", lane) == sf_u.received, lane


# ---------------------------------------------------------------------------
# hypothesis: lanes frozen by early `done` never perturb the survivors


def _chain_circuit(values, slots):
    c = DataflowCircuit("chain")
    src = c.add(Sequence("src", list(values)))
    one = c.add(Sequence("one", [1.0] * len(values)))
    buf = c.add(ElasticBuffer("buf", slots=slots))
    fu = c.add(FunctionalUnit("fu", "fadd"))
    sink = c.add(Sink("out"))
    c.connect(src, 0, buf, 0)
    c.connect(buf, 0, fu, 0)
    c.connect(one, 0, fu, 1)
    c.connect(fu, 0, sink, 0)
    c.validate()
    return c


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2, max_size=8,
    ),
    data=st.data(),
    slots=st.integers(min_value=1, max_value=3),
    backend=st.sampled_from(["compiled", "codegen"]),
)
def test_frozen_lanes_never_perturb_survivors(values, data, slots, backend):
    # Each lane stops after its own number of sink tokens; lanes with a
    # small target freeze early (partial done-mask → mask promotion) and
    # must coast without changing what the surviving lanes compute.
    lanes = data.draw(st.integers(min_value=2, max_value=5))
    targets = data.draw(st.lists(
        st.integers(min_value=1, max_value=len(values)),
        min_size=lanes, max_size=lanes,
    ))
    c = _chain_circuit(values, slots)
    engine = create_engine(c, backend=backend, lanes=lanes)
    cycles = engine.run_lanes(
        lambda lane: engine.sink_count("out", lane) >= targets[lane],
        max_cycles=5_000, uniform_done=False,
    )
    assert engine.fallback_lanes == 0
    if len(set(targets)) > 1:
        assert engine.mask_promotions == 1
    for lane, target in enumerate(targets):
        c_ref = _chain_circuit(values, slots)
        ref = create_engine(c_ref, backend=backend)
        sink = c_ref.units["out"]
        ref_cycles = ref.run(lambda: sink.count >= target, max_cycles=5_000)
        assert cycles[lane] == ref_cycles, lane
        assert engine.sink_count("out", lane) == target, lane
        assert engine.sink_received("out", lane) == sink.received, lane


# ---------------------------------------------------------------------------
# disk cache: the mask-capable laned module has its own key and survives
# a disk round-trip with the promotion machinery intact


@pytest.fixture
def codegen_cache(tmp_path, monkeypatch):
    import repro.sim.batched as bt
    import repro.sim.codegen as cg

    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    monkeypatch.setattr(cg, "_MODULE_CACHE", type(cg._MODULE_CACHE)())
    monkeypatch.setattr(bt, "_INPROC_CACHE", type(bt._INPROC_CACHE)())
    return tmp_path / "cgc"


def test_mask_variant_has_its_own_cache_key(codegen_cache):
    c = _divergent_circuit()
    schedule = compile_schedule(c)
    scalar_src = generate_source(c, schedule)
    laned_src = generate_source(c, schedule, lanes=True)
    # The mask loop lives in the laned module only: a pre-mask scalar
    # module (or any module without make_mask_loop) can never be served
    # for a laned run, because the key hashes the full source.
    assert "make_mask_loop" in laned_src
    assert "make_mask_loop" not in scalar_src
    assert source_key(scalar_src) != source_key(laned_src)
    stripped = laned_src[:laned_src.index("def make_mask_loop")]
    assert source_key(stripped) != source_key(laned_src)


def test_disk_loaded_module_still_promotes(codegen_cache):
    def run_batch():
        memories = [_flags_memory(lane) for lane in range(3)]
        engine = BatchedCodegenEngine(
            _divergent_circuit(), lanes=3, memories=memories,
        )
        cycles = engine.run_lanes(
            lambda lane: (engine.sink_count("st", lane)
                          + engine.sink_count("sf", lane)) >= N_FLAGS,
            max_cycles=10_000, uniform_done=True,
        )
        received = [engine.sink_received("st", lane) for lane in range(3)]
        return engine, cycles, received

    import repro.sim.codegen as cg

    first, cycles_a, recv_a = run_batch()
    assert first.codegen_origin == "generated"
    assert first.mask_promotions == 1
    # Fresh in-process memo: the module must come back from disk with the
    # mask loop attached — a poisoned/stale artifact would fail here.
    cg._MODULE_CACHE.clear()
    second, cycles_b, recv_b = run_batch()
    assert second.codegen_key == first.codegen_key
    assert second.codegen_origin == "disk"
    assert second.mask_promotions == 1
    assert second.fallback_lanes == 0
    assert cycles_b == cycles_a
    assert recv_b == recv_a


# ---------------------------------------------------------------------------
# all 42 goldens forced through the mask loop from cycle 0


@pytest.mark.parametrize("plane", ["tuple"])
@pytest.mark.parametrize("kernel,technique", PAIRS,
                         ids=[f"{k}-{t}" for k, t in PAIRS])
def test_goldens_forced_mask_bit_identical(kernel, technique, plane):
    # start_masked=True promotes before the first cycle: the whole run
    # executes in mask mode, so lockstep-only kernels also prove the
    # masked emitters bit-identical to scalar execution, with zero
    # scalar-fallback lanes.  ``plane`` is the data plane the batch must
    # report running on.
    lowered = _prepare(kernel, technique)
    seeds = [7, 11]
    engine, memories, cycles = _run_batched(
        lowered, seeds, "codegen", start_masked=True,
    )
    assert engine.data_plane == plane
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    for lane, seed in enumerate(seeds):
        want = simulate_kernel(lowered, seed=seed, backend="compiled")
        label = f"{kernel}-{technique} lane={lane}"
        assert cycles[lane] == want.cycles, label
        assert engine.lane_fires[lane] == want.fires, label
        assert memories[lane].writes == want.reference.writes, label
        for name in want.arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  want.arrays[name]), f"{label}: {name}"


# ---------------------------------------------------------------------------
# mid-run lockstep -> mask promotion lifts state into lane tuples


@pytest.mark.parametrize("plane", ["tuple"])
def test_promotion_lifts_state_into_plane(plane):
    # gsumif diverges mid-run with fadd (latency 10) pipes in flight, so
    # the promotion lifts per-stage pipe contents, FIFO queues and data
    # locals from live lockstep state, not from reset.
    lowered = _prepare("gsumif", "crush")
    seeds = list(range(100, 108))
    engine, memories, cycles = _run_batched(lowered, seeds, "codegen")
    assert engine.data_plane == plane
    assert engine.mask_promotions == 1
    assert engine.fallback_lanes == 0
    for lane, seed in enumerate(seeds):
        want = simulate_kernel(lowered, seed=seed, backend="codegen")
        assert cycles[lane] == want.cycles, (plane, lane)
        assert engine.lane_fires[lane] == want.fires, (plane, lane)
        for name in want.arrays:
            assert np.array_equal(memories[lane].dump(name),
                                  want.arrays[name]), (plane, lane, name)


# ---------------------------------------------------------------------------
# provenance


def test_data_plane_provenance_on_runs():
    from repro.frontend import simulate_kernel_batch

    lowered = _prepare("gsumif", "crush")
    scalar = simulate_kernel(lowered, backend="codegen")
    assert scalar.data_plane == "scalar"
    batch = simulate_kernel_batch(lowered, seeds=[100, 101],
                                  backend="codegen")
    assert {r.data_plane for r in batch} == {"tuple"}
