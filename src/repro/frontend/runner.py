"""Kernel runner: simulate a lowered kernel and check it against the reference.

Drives the full loop the paper's methodology describes (Section 6.1):
generate inputs, run the cycle-accurate simulation (the ModelSim stand-in),
confirm the circuit computes exactly what the C semantics say and does not
deadlock, and report the cycle count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..sim import Memory, SimProfile, Trace, create_engine
from .interp import RefResult, run_reference
from .ir import Kernel
from .lower import LoweredKernel


@dataclass
class KernelRun:
    """Outcome of one simulated kernel execution."""

    cycles: int
    fires: int
    checked: bool
    arrays: Dict[str, np.ndarray]
    reference: RefResult
    sim_wall_s: float
    mismatches: Dict[str, float] = field(default_factory=dict)
    #: Batched-run provenance (all zero/None on scalar runs and on
    #: lockstep batches): lanes re-executed on a scalar engine after a
    #: divergence, lockstep→mask-lane promotions performed, and the
    #: diverging control site as ``"<channel>@<cycle>"``.
    fallback_lanes: int = 0
    mask_promotions: int = 0
    divergence: Optional[str] = None
    #: Which data representation executed the run: ``"scalar"`` for the
    #: one-lane backends (and the event backend's per-lane batches),
    #: ``"tuple"`` for the generated-loop batched engines.  Provenance
    #: only — both are bit-identical by construction.
    data_plane: str = "scalar"


def default_inputs(kernel: Kernel, seed: int = 7) -> Dict[str, np.ndarray]:
    """Reproducible random input data for every kernel array.

    Values are drawn from a small range and rounded so that accumulated
    floating-point results stay well-conditioned for exact comparison.

    Index arrays (``Array.index_of``) instead hold uniformly random valid
    indices into their target array, so data-dependent kernels address
    in-bounds cells.  The draw *sequence* is one call per array in
    declaration order either way, keeping inputs for index-free kernels
    byte-identical to what they were before index arrays existed.
    """
    rng = np.random.default_rng(seed)
    sizes = {a.name: a.resolved_size(kernel.params) for a in kernel.arrays}
    data = {}
    for arr in kernel.arrays:
        size = sizes[arr.name]
        if arr.index_of is not None:
            target = sizes[arr.index_of]
            data[arr.name] = rng.integers(0, target, size).astype(float)
        else:
            data[arr.name] = np.round(rng.uniform(-2.0, 2.0, size), 3)
    return data


def simulate_kernel(
    lowered: LoweredKernel,
    inputs: Optional[Dict[str, np.ndarray]] = None,
    check: bool = True,
    max_cycles: int = 2_000_000,
    trace: Optional[Trace] = None,
    seed: int = 7,
    backend: Optional[str] = None,
    profile: Optional[SimProfile] = None,
    sanitize: object = None,
) -> KernelRun:
    """Run ``lowered`` to completion; verify results against the reference.

    Completion is reached when the final control token arrives at the end
    sink *and* the circuit has committed every memory write the reference
    performed (drains stores still in flight when control exits early).

    ``backend`` selects the simulation backend (``"event"`` /
    ``"compiled"`` / ``"codegen"``; None uses
    :data:`repro.sim.DEFAULT_BACKEND`), ``profile`` optionally collects
    hot-loop statistics, ``sanitize`` turns on the runtime
    handshake-protocol sanitizer (None defers to the
    ``REPRO_SIM_SANITIZE`` environment variable; a pre-built
    :class:`~repro.sim.sanitize.HandshakeSanitizer` instance is adopted
    as-is, e.g. one armed with SAN005 alias pairs).
    """
    kernel = lowered.kernel
    if inputs is None:
        inputs = default_inputs(kernel, seed=seed)
    reference = run_reference(kernel, inputs)

    memory = Memory()
    for arr in kernel.arrays:
        size = arr.resolved_size(kernel.params)
        memory.allocate(arr.name, size, init=inputs[arr.name])

    engine = create_engine(
        lowered.circuit, backend=backend,
        memory=memory, trace=trace, profile=profile, sanitize=sanitize,
    )
    end = lowered.circuit.unit(lowered.end_sink)
    expected_writes = reference.writes

    def done() -> bool:
        return end.count >= 1 and memory.writes >= expected_writes

    t0 = time.perf_counter()
    cycles = engine.run(done, max_cycles=max_cycles)
    wall = time.perf_counter() - t0

    if memory.writes != expected_writes:
        raise SimulationError(
            f"{kernel.name}: circuit performed {memory.writes} writes, "
            f"reference performed {expected_writes}"
        )

    arrays = {a.name: memory.dump(a.name) for a in kernel.arrays}
    mismatches: Dict[str, float] = {}
    if check:
        for name, got in arrays.items():
            want = reference.arrays[name]
            if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                mismatches[name] = float(np.max(np.abs(got - want)))
        if mismatches:
            raise SimulationError(
                f"{kernel.name}: simulation diverges from the reference "
                f"semantics: {mismatches}"
            )

    return KernelRun(
        cycles=cycles,
        fires=engine.total_fires,
        checked=check,
        arrays=arrays,
        reference=reference,
        sim_wall_s=wall,
        data_plane=engine.data_plane,
    )


def simulate_kernel_batch(
    lowered: LoweredKernel,
    seeds: Sequence[int],
    check: bool = True,
    max_cycles: int = 2_000_000,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
) -> List[KernelRun]:
    """Run one input set per seed through a single batched engine.

    Equivalent to ``[simulate_kernel(lowered, seed=s, ...) for s in seeds]``
    — same per-lane cycle counts, fire counts, memory contents and
    reference checks, bit for bit — but the lane-parallel backends
    (:mod:`repro.sim.batched`) evaluate all lanes in one generated-loop
    pass, so the batch costs far less wall clock than ``len(seeds)``
    scalar runs.

    ``sim_wall_s`` on every returned :class:`KernelRun` is the wall time
    of the *whole batch* (lanes do not run separately, so there is no
    per-lane time to report).  Observers (trace/profile/sanitizer) are
    scalar-only; requesting them here raises :class:`SimulationError`.
    """
    kernel = lowered.kernel
    lanes = len(seeds)
    if lanes < 1:
        raise SimulationError("simulate_kernel_batch needs at least one seed")

    references: List[RefResult] = []
    memories: List[Memory] = []
    for s in seeds:
        inputs = default_inputs(kernel, seed=s)
        references.append(run_reference(kernel, inputs))
        memory = Memory()
        for arr in kernel.arrays:
            size = arr.resolved_size(kernel.params)
            memory.allocate(arr.name, size, init=inputs[arr.name])
        memories.append(memory)
    expected = [ref.writes for ref in references]

    engine = create_engine(
        lowered.circuit, backend=backend, lanes=lanes, memories=memories,
        sanitize=sanitize,
    )
    end_name = lowered.end_sink

    def done_lane(lane: int) -> bool:
        return (
            engine.sink_count(end_name, lane) >= 1
            and memories[lane].writes >= expected[lane]
        )

    # The predicate only reads quantities the lockstep pass advances
    # uniformly (shared sink count, per-lane write counters that tick
    # together), so when the per-lane targets agree lane 0 speaks for
    # the whole batch.  Distinct targets mean the executions differ by
    # construction; the engine then checks every lane each cycle and
    # promotes to mask-lane execution at the first partial completion
    # (the event backend re-runs every lane scalar instead).
    uniform = len(set(expected)) == 1

    t0 = time.perf_counter()
    lane_cycles = engine.run_lanes(
        done_lane, max_cycles=max_cycles, uniform_done=uniform
    )
    wall = time.perf_counter() - t0

    div = getattr(engine, "divergence", None)
    div_site = f"{div.channel}@{div.cycle}" if div is not None else None
    fallback_lanes = getattr(engine, "fallback_lanes", 0)
    mask_promotions = getattr(engine, "mask_promotions", 0)

    runs: List[KernelRun] = []
    for lane, (memory, reference) in enumerate(zip(memories, references)):
        if memory.writes != expected[lane]:
            raise SimulationError(
                f"{kernel.name}: lane {lane} performed {memory.writes} "
                f"writes, reference performed {expected[lane]}"
            )
        arrays = {a.name: memory.dump(a.name) for a in kernel.arrays}
        mismatches: Dict[str, float] = {}
        if check:
            for name, got in arrays.items():
                want = reference.arrays[name]
                if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                    mismatches[name] = float(np.max(np.abs(got - want)))
            if mismatches:
                raise SimulationError(
                    f"{kernel.name}: lane {lane} diverges from the "
                    f"reference semantics: {mismatches}"
                )
        runs.append(KernelRun(
            cycles=lane_cycles[lane],
            fires=engine.lane_fires[lane],
            checked=check,
            arrays=arrays,
            reference=reference,
            sim_wall_s=wall,
            fallback_lanes=fallback_lanes,
            mask_promotions=mask_promotions,
            divergence=div_site,
            data_plane=engine.data_plane,
        ))
    return runs
