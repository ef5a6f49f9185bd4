"""Kernel runner: simulate a lowered kernel and check it against the reference.

Drives the full loop the paper's methodology describes (Section 6.1):
generate inputs, run the cycle-accurate simulation (the ModelSim stand-in),
confirm the circuit computes exactly what the C semantics say and does not
deadlock, and report the cycle count.

Every seed, alone (:func:`simulate_kernel`) or as one lane of a batch
(:func:`simulate_kernel_batch`), gets the same set-up — inputs, the
interpreter reference, a seeded :class:`~repro.sim.Memory` — and the same
verification, which raises :class:`~repro.errors.SimulationError` on any
difference.  Event and one-seed batches run seed by seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..sim import DEFAULT_BACKEND, Memory, SimProfile, Trace, create_engine
from ..sim.batched import refuse_observers
from .interp import RefResult, run_reference
from .ir import Kernel
from .lower import LoweredKernel


@dataclass
class KernelRun:
    """Outcome of one simulated kernel execution, verified against the
    reference (a returned run always matched it)."""

    cycles: int
    fires: int
    arrays: Dict[str, np.ndarray]
    reference: RefResult
    sim_wall_s: float
    #: Always 0 — a lane batch never re-runs a lane on a scalar engine;
    #: kept for tools that total it.
    fallback_lanes: int = 0
    #: Batched-run provenance (0/None on scalar runs and on lockstep
    #: batches): lockstep→mask-lane promotions performed, and the
    #: diverging control site as ``"<channel>@<cycle>"``.
    mask_promotions: int = 0
    divergence: Optional[str] = None
    #: Which data representation executed the run: ``"scalar"`` for the
    #: one-lane engines (event and one-seed batches included, which run
    #: seed by seed), ``"tuple"`` for the lane-parallel engine.
    #: Provenance only — both are bit-identical by construction.
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


def _seeded(kernel: Kernel, seed: int) -> Tuple[RefResult, Memory]:
    """One seed's set-up: inputs, the interpreter reference, and a
    :class:`Memory` holding the inputs."""
    inputs = default_inputs(kernel, seed=seed)
    reference = run_reference(kernel, inputs)
    memory = Memory()
    for arr in kernel.arrays:
        size = arr.resolved_size(kernel.params)
        memory.allocate(arr.name, size, init=inputs[arr.name])
    return reference, memory


def _verify(kernel: Kernel, seed: int, memory: Memory,
            reference: RefResult) -> Dict[str, np.ndarray]:
    """Check one simulated seed against its reference; return its arrays.

    The write count must match (no store lost or duplicated), then every
    array must equal the reference's.  Either difference raises
    :class:`SimulationError`.
    """
    if memory.writes != reference.writes:
        raise SimulationError(
            f"{kernel.name} (seed {seed}): circuit performed "
            f"{memory.writes} writes, reference performed {reference.writes}"
        )
    arrays = {a.name: memory.dump(a.name) for a in kernel.arrays}
    mismatches: Dict[str, float] = {}
    for name, got in arrays.items():
        want = reference.arrays[name]
        if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
            mismatches[name] = float(np.max(np.abs(got - want)))
    if mismatches:
        raise SimulationError(
            f"{kernel.name} (seed {seed}): simulation diverges from the "
            f"reference semantics: {mismatches}"
        )
    return arrays


def simulate_kernel(
    lowered: LoweredKernel,
    *,
    max_cycles: int = 2_000_000,
    trace: Optional[Trace] = None,
    seed: int = 7,
    backend: Optional[str] = None,
    profile: Optional[SimProfile] = None,
    sanitize: object = None,
) -> KernelRun:
    """Run ``lowered`` on seed ``seed``'s inputs; verify the result.

    Completion is reached when the final control token arrives at the end
    sink *and* the circuit has committed every memory write the reference
    performed (drains stores still in flight when control exits early).
    A result that differs from the reference raises
    :class:`SimulationError`.

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
    reference, memory = _seeded(kernel, seed)
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
    return KernelRun(
        cycles=cycles,
        fires=engine.total_fires,
        arrays=_verify(kernel, seed, memory, reference),
        reference=reference,
        sim_wall_s=wall,
        data_plane=engine.data_plane,
    )


def simulate_kernel_batch(
    lowered: LoweredKernel,
    seeds: Sequence[int],
    *,
    max_cycles: int = 2_000_000,
    backend: Optional[str] = None,
    sanitize: Optional[bool] = None,
) -> List[KernelRun]:
    """Run one input set per seed, as the lanes of one batched simulation.

    Equivalent to ``[simulate_kernel(lowered, seed=s, ...) for s in seeds]``
    — same per-lane cycle counts, fire counts, memory contents and
    reference checks, bit for bit — but the lane-parallel engine
    (:class:`~repro.sim.batched.BatchedEngine`, used for ``"compiled"``
    and ``"codegen"``) evaluates all lanes in one generated-loop pass,
    so the batch costs far less wall clock than ``len(seeds)`` scalar
    runs.  A batch with no lane loop to use — the event backend, or a
    single seed — is exactly that list of scalar runs.

    ``sim_wall_s`` on every returned :class:`KernelRun` is the wall time
    of the *whole batch* (lanes do not run separately, so there is no
    per-lane time to report; a seed-by-seed batch reports the sum of its
    seeds' simulation times).  Observers (trace/profile/sanitizer) are
    scalar-only; requesting them here raises :class:`SimulationError`.
    """
    if len(seeds) < 1:
        raise SimulationError("simulate_kernel_batch needs at least one seed")
    refuse_observers(sanitize=sanitize)
    backend = backend or DEFAULT_BACKEND
    if backend == "event" or len(seeds) == 1:
        runs = [
            simulate_kernel(lowered, max_cycles=max_cycles, seed=s,
                            backend=backend, sanitize=False)
            for s in seeds
        ]
        wall = sum(run.sim_wall_s for run in runs)
        for run in runs:
            run.sim_wall_s = wall
        return runs

    kernel = lowered.kernel
    references, memories = zip(*(_seeded(kernel, s) for s in seeds))
    expected = [ref.writes for ref in references]
    engine = create_engine(
        lowered.circuit, backend=backend, lanes=len(seeds),
        memories=memories, sanitize=False,
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
    # promotes to mask-lane execution at the first partial completion.
    uniform = len(set(expected)) == 1

    t0 = time.perf_counter()
    lane_cycles = engine.run_lanes(
        done_lane, max_cycles=max_cycles, uniform_done=uniform
    )
    wall = time.perf_counter() - t0

    div = engine.divergence
    div_site = f"{div.channel}@{div.cycle}" if div is not None else None
    return [
        KernelRun(
            cycles=lane_cycles[lane],
            fires=engine.lane_fires[lane],
            arrays=_verify(kernel, seed, memories[lane], references[lane]),
            reference=references[lane],
            sim_wall_s=wall,
            mask_promotions=engine.mask_promotions,
            divergence=div_site,
            data_plane=engine.data_plane,
        )
        for lane, seed in enumerate(seeds)
    ]
