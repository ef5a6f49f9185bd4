"""Simulation-backend throughput benchmark.

Measures, for both simulation backends (the ``event`` oracle and the
default ``codegen``) on three representative Table 2 kernels in one
process:

* **setup** — engine construction time, cold (first engine on the
  structure, with the generated-module memo cleared and the codegen
  disk cache pointed at an empty per-module directory: for codegen
  schedule levelization, source emission and ``compile()``) and warm
  (second engine: levelization and source emission again, then a
  module memo hit), and
* **steady-state throughput** — cycles/sec over the engine run loop
  only, measured on a warm engine.

A fourth column measures the batched (lane-parallel) codegen backend at
8 lanes of distinct input sets, reporting per-dataset throughput
against a one-seed batch (the ``lanes1`` keys), which runs on scalar
codegen.  A dedicated ``divergent_lanes`` section runs
``gsumif`` — whose data-dependent branch diverges immediately, so
pre-mask the batch fell back to scalar and gained nothing — at 64 lanes
of divergent seeds through the mask loop, reporting per-dataset
throughput against the 64 scalar codegen runs it replaces and against
the event backend's sequential per-lane path.  On fully divergent
control every comb block keeps at least one live lane nearly every
cycle, so per-block Python dispatch dominates and per-dataset cost
lands at ~parity with scalar codegen; the asserted floors pin that
parity (no regression back toward the fallback's per-lane engine setup
cost) and the multiple over sequential event execution.

Results land in ``BENCH_sim.json`` at the repo root so the simulator's
perf trajectory accumulates PR over PR.  Correctness assertions
(identical cycle counts across all backends) are gating;
the speedup floors are asserted here but CI runs this file as a
non-gating step and uploads the artifact.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time

import pytest

import repro.sim.codegen as codegen
from repro.analysis import critical_cfcs, insert_timing_buffers, place_buffers
from repro.core import crush
from repro.frontend import lower_kernel, simulate_kernel, simulate_kernel_batch
from repro.frontend.kernels import build
from repro.frontend.runner import default_inputs
from repro.sim import Memory, create_engine

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARTIFACT = os.path.join(REPO_ROOT, "BENCH_sim.json")

#: Representative Table 2 kernels: small (atax), medium (bicg), and the
#: suite's cycle-count heavyweight (gemm, ~82k cycles at paper scale).
KERNELS = ("atax", "bicg", "gemm")
SCALE = "paper"
#: Scalar backends, measured in this order: the event oracle last, so
#: its large heap does not put GC pauses into the codegen runs.
BACKENDS_MEASURED = ("codegen", "event")

#: Lane count for the batched-throughput column; seeds are distinct so
#: every lane simulates a different input set (the interesting case).
LANES = 8
LANE_SEEDS = tuple(range(7, 7 + LANES))

#: Divergent-control benchmark: gsumif's branch depends on loaded data,
#: so lanes with distinct seeds diverge within a few cycles and the
#: whole run executes in mask-lane mode.
DIVERGENT_KERNEL = "gsumif"
DIVERGENT_LANES = 64
DIVERGENT_SEEDS = tuple(range(100, 100 + DIVERGENT_LANES))


def _prepare(kernel_name: str):
    """Lower + share one kernel exactly like the evaluation pipeline."""
    kernel = build(kernel_name, scale=SCALE)
    lowered = lower_kernel(kernel, style="bb")
    circuit = lowered.circuit
    cfcs = critical_cfcs(circuit)
    place_buffers(circuit, cfcs)
    crush(circuit, cfcs)
    insert_timing_buffers(circuit)
    return lowered


def _fresh_memory(lowered):
    kernel = lowered.kernel
    inputs = default_inputs(kernel)
    memory = Memory()
    for arr in kernel.arrays:
        memory.allocate(arr.name, arr.resolved_size(kernel.params),
                        init=inputs[arr.name])
    return memory


def _time_setup(lowered, backend: str) -> float:
    """Time one engine construction (units are reset again before runs)."""
    memory = _fresh_memory(lowered)
    t0 = time.perf_counter()
    create_engine(lowered.circuit, backend=backend, memory=memory)
    return time.perf_counter() - t0


def _clear_memos() -> None:
    """Forget every generated module loaded so far in this process, so
    the next engine build compiles from scratch."""
    codegen._MODULE_CACHE.clear()


@pytest.fixture(scope="module")
def empty_codegen_cache(tmp_path_factory):
    """Point the codegen disk cache at a fresh directory for this module,
    so cold setup compiles instead of loading an earlier run's bytecode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(codegen.CODEGEN_CACHE_ENV,
                  str(tmp_path_factory.mktemp("codegen-cache")))
        yield


def _measure(lowered, backend: str, repeats: int = 2):
    _clear_memos()
    setup_cold = _time_setup(lowered, backend)
    setup_warm = _time_setup(lowered, backend)
    # The run's own engine build now hits the module memo, so
    # run.sim_wall_s is warm steady-state throughput; best-of-``repeats``
    # damps scheduler noise (cycle counts are identical by construction).
    wall = math.inf
    for _ in range(repeats):
        run = simulate_kernel(lowered, max_cycles=4_000_000, backend=backend)
        wall = min(wall, run.sim_wall_s)
    return {
        "cycles": run.cycles,
        "fires": run.fires,
        "setup_cold_s": round(setup_cold, 4),
        "setup_warm_s": round(setup_warm, 4),
        "sim_wall_s": round(wall, 4),
        "cycles_per_sec": round(run.cycles / wall, 1),
    }


def _measure_lanes(lowered, repeats: int = 2):
    """Batched-codegen throughput: LANES distinct input sets per pass.

    ``simulate_kernel_batch`` times ``run_lanes`` only, so the laned
    module compile (cached after the first call) never pollutes the
    number.  The figure of merit is *datasets per second*: a lanes=B
    batch finishes B input sets in one wall interval, so per-dataset
    speedup over a one-seed batch — a scalar codegen run, since one seed
    has no lanes to share — is ``B * wall_1 / wall_B``.
    """
    walls = {}
    cycles = {}
    for label, seeds in (("lanes1", LANE_SEEDS[:1]), ("lanes8", LANE_SEEDS)):
        wall = math.inf
        for _ in range(repeats):
            runs = simulate_kernel_batch(
                lowered, seeds, max_cycles=4_000_000, backend="codegen"
            )
            wall = min(wall, runs[0].sim_wall_s)
        walls[label] = wall
        cycles[label] = [r.cycles for r in runs]
    # Affine kernels are lane-lockstep: every lane costs the scalar
    # cycle count, so datasets/sec is a pure wall-clock comparison.
    assert len(set(cycles["lanes8"])) == 1, cycles
    assert cycles["lanes8"][0] == cycles["lanes1"][0], cycles
    return {
        "lanes": LANES,
        "cycles": cycles["lanes8"][0],
        "sim_wall_s_lanes1": round(walls["lanes1"], 4),
        "sim_wall_s_lanes8": round(walls["lanes8"], 4),
        "datasets_per_sec_lanes1": round(1.0 / walls["lanes1"], 2),
        "datasets_per_sec_lanes8": round(LANES / walls["lanes8"], 2),
        "speedup_per_dataset": round(
            LANES * walls["lanes1"] / walls["lanes8"], 2
        ),
    }


def _measure_divergent(lowered, repeats: int = 2):
    """Mask-lane throughput on control-divergent input sets.

    Runs the 64-lane divergent batch against two baselines: the same
    seeds one at a time on the scalar codegen backend (the work the
    batch replaces), and the event backend's sequential per-lane batch.
    Gating correctness: every lane must match its scalar run
    bit-for-bit with zero scalar-fallback lanes and exactly one mask
    promotion per batch.

    Honest figures: on *fully* divergent control every comb block has
    some live lane nearly every cycle, so the mask loop's block count
    stays at full occupancy and the per-block Python dispatch dominates
    — per-dataset throughput lands at ~scalar parity (~0.9–1.2x, host
    noise ±15%); the structural win is vs the event backend's
    sequential per-lane path (~3x) and vs the pre-mask scalar fallback
    this mode replaced (per-lane engine setup, lost
    bit-identity-under-one-engine).
    """
    scalar_wall = 0.0
    scalar = {}
    for seed in DIVERGENT_SEEDS:
        run = simulate_kernel(lowered, max_cycles=4_000_000,
                              backend="codegen", seed=seed)
        scalar_wall += run.sim_wall_s
        scalar[seed] = (run.cycles, run.fires)
    event_runs = simulate_kernel_batch(
        lowered, DIVERGENT_SEEDS, max_cycles=4_000_000, backend="event"
    )
    event_wall = event_runs[0].sim_wall_s
    wall = math.inf
    for _ in range(repeats):
        runs = simulate_kernel_batch(
            lowered, DIVERGENT_SEEDS, max_cycles=4_000_000, backend="codegen",
        )
        wall = min(wall, runs[0].sim_wall_s)
    for seed, run in zip(DIVERGENT_SEEDS, runs):
        assert run.fallback_lanes == 0, (seed, run.fallback_lanes)
        assert run.mask_promotions == 1, (seed, run.mask_promotions)
        assert (run.cycles, run.fires) == scalar[seed], seed
    cycles = [c for c, _ in scalar.values()]
    return {
        "kernel": DIVERGENT_KERNEL,
        "lanes": DIVERGENT_LANES,
        "cycles_min": min(cycles),
        "cycles_max": max(cycles),
        "divergence": runs[0].divergence,
        "data_plane": runs[0].data_plane,
        "sim_wall_s_scalar_sum": round(scalar_wall, 4),
        "sim_wall_s_event_sequential": round(event_wall, 4),
        "sim_wall_s_lanes64": round(wall, 4),
        "speedup_per_dataset": round(scalar_wall / wall, 2),
        "speedup_vs_event_sequential": round(event_wall / wall, 2),
    }


def _geomean(values):
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 2)


@pytest.fixture(scope="module")
def measurements(empty_codegen_cache):
    out = {}
    for name in KERNELS:
        lowered = _prepare(name)
        per = {b: _measure(lowered, b) for b in BACKENDS_MEASURED}
        per["codegen_lanes"] = _measure_lanes(lowered)
        out[name] = per
    return out


@pytest.fixture(scope="module")
def divergent_measurement(empty_codegen_cache):
    return _measure_divergent(_prepare(DIVERGENT_KERNEL))


def test_backends_agree_on_bench_kernels(measurements):
    for name, per_backend in measurements.items():
        cycles = {b: m["cycles"] for b, m in per_backend.items()}
        fires = {b: m["fires"] for b, m in per_backend.items()
                 if "fires" in m}
        assert len(set(cycles.values())) == 1, (name, cycles)
        assert len(set(fires.values())) == 1, (name, fires)


def test_batched_lanes_speedup_per_dataset(measurements):
    """Lane-parallelism floor: 8 input sets per pass must finish each
    dataset at least 3x faster than running them one at a time."""
    for name, per in measurements.items():
        assert per["codegen_lanes"]["speedup_per_dataset"] >= 3.0, (
            name, per["codegen_lanes"])


def test_divergent_mask_lanes_speedup_per_dataset(divergent_measurement):
    """Divergent-control floors.  On *fully* divergent control every
    comb block has a live lane nearly every cycle, so block count stays
    at full occupancy and per-block Python dispatch dominates.  Honest
    per-dataset figures vs scalar codegen: ~0.9–1.2x (host noise
    ±15%); the structural win is vs the event backend's sequential
    per-lane path (~3x) and vs the pre-mask scalar fallback (per-lane
    engine setup, no bit-identity under one engine).  The parity floor
    guards against regressing below the fallback the mask loop
    replaced; the event-sequential floor pins the multiple where lane
    batching genuinely pays."""
    assert divergent_measurement["speedup_per_dataset"] >= 0.7, (
        divergent_measurement)
    assert divergent_measurement["speedup_vs_event_sequential"] >= 2.0, (
        divergent_measurement)


def test_write_bench_artifact(measurements, divergent_measurement):
    kernels = {}
    sp_codegen, sp_lanes = [], []
    for name, per in measurements.items():
        spg = round(per["codegen"]["cycles_per_sec"]
                    / per["event"]["cycles_per_sec"], 2)
        spl = per["codegen_lanes"]["speedup_per_dataset"]
        sp_codegen.append(spg)
        sp_lanes.append(spl)
        kernels[name] = dict(
            per,
            cycles=per["codegen"]["cycles"],
            speedup_codegen_vs_event=spg,
            speedup_lanes8_per_dataset=spl,
        )
    geo_codegen = _geomean(sp_codegen)
    geo_lanes = _geomean(sp_lanes)
    artifact = {
        "bench": "sim_backend_throughput",
        "scale": SCALE,
        "style": "bb",
        "technique": "crush",
        "mode": "single process; setup = engine construction (cold: "
                "empty module memo and codegen disk cache; then warm), "
                "cycles/sec measured over the engine run loop on a warm "
                "engine",
        "python": platform.python_version(),
        "kernels": kernels,
        "geomean_speedup_codegen_vs_event": geo_codegen,
        "geomean_speedup_lanes8_per_dataset": geo_lanes,
        "divergent_lanes": divergent_measurement,
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # Perf floors: the specialized codegen backend against the event
    # oracle, and lane batches against one-seed runs.
    assert geo_codegen >= 3.5, sp_codegen
    assert min(sp_lanes) >= 3.0, sp_lanes
