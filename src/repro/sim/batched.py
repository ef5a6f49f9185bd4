"""Batched (lane-parallel) multi-input simulation.

One batched engine evaluates ``B`` independent input sets — *lanes* —
of the same circuit in a single pass.  The representation exploits the
structure of Monte-Carlo sweeps over a dataflow circuit: the circuit and
therefore the *control* behaviour is shared, only the data differs.

* **Control signals stay scalar.**  Each channel has one shared
  valid/ready bit, one activation schedule, one fire scan — exactly the
  scalar codegen loop (:mod:`repro.sim.codegen`), reused verbatim.
* **Data signals are lane tuples.**  A valid channel's data local holds
  a tuple of ``B`` per-lane values; functional units map their compute
  across the tuples, load/store ports dispatch through per-lane
  :class:`~repro.sim.memory.Memory` objects, sinks append whole lane
  tuples.
* **Lockstep is checked, not assumed.**  Everywhere data feeds a control
  decision (branch condition, mux/demux select, the per-lane ``done``
  predicate) the generated code verifies the lanes agree; a disagreement
  raises :class:`~repro.errors.LaneDivergence`.  The generated-loop
  engines catch it (loop exit status 4) and **promote the batch to
  mask-lane (MIMD) execution**: the same module's ``make_mask_loop``
  re-runs the pass with every 1-bit control signal packed as a per-lane
  bitmask integer, data still in lane tuples (recorded as the engine's
  ``data_plane``, ``"tuple"``), per-unit sequential state split per lane
  (:func:`~repro.sim.codegen_blocks.mask_state`), and a ``live`` mask
  giving each lane its own done/cycle-freeze bit.  Lanes keep executing
  in parallel through arbitrary control divergence; nothing falls back
  to scalar.  Batched results are **bit-identical to B scalar runs by
  construction**: in lockstep because every lane's values evolve exactly
  as they would alone (shared control is *verified* equal), and in mask
  mode because every masked block is the scalar block's logic applied
  lane-wise under the lane's own control bits.  The promotion itself is
  sound because the combinational pass never mutates unit state and the
  engine re-arms every activation flag first, so the mask loop's first
  pass recomputes the fixpoint from scratch — exactly like engine
  initialization.  (The event backend has no generated loop; it simply
  runs every lane sequentially on scalar engines.)

Per-lane termination uses a done-mask: the engine tracks which lanes
have satisfied their ``done`` predicate.  In lockstep the mask can only
go from empty to full in one step (per-lane completion cycles are
recorded then); a *partial* mask is itself a divergence and promotes to
mask mode, where the finished lanes' ``live`` bits are cleared and they
coast with frozen state while the rest run to completion.

Three batched backends mirror the scalar trio:

``BatchedCodegenEngine``
    Runs the laned generated module, content-addressed in the same disk
    cache as scalar modules (laned and scalar sources always differ, so
    their keys can never collide).
``BatchedCompiledEngine``
    Runs the same laned program but compiles it in-process only (no disk
    artifacts), mirroring the scalar compiled backend's contract.
``BatchedEventEngine``
    The reference: always executes lanes sequentially on the scalar
    event engine.  Slow and trivially correct — the differential anchor.

Observers are refused up front: a ``Trace``/``SimProfile``/sanitizer
observes one circuit execution, and a batched pass is ``B`` of them
folded together.  Use scalar runs (``lanes=None``) for observed
simulations.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence

from ..circuit import DataflowCircuit, Sink
from ..errors import (
    CircuitError,
    DeadlockError,
    LaneDivergence,
    SimulationError,
)
from .codegen import CodegenEngine, generate_source, load_module, source_key
from .codegen_blocks import mask_state
from .compiled import CompiledEngine
from .deadlock import diagnose
from .engine import DEFAULT_DEADLOCK_WINDOW, Engine
from .memory import Memory
from .sanitize import sanitize_default
from .signal_graph import compile_schedule

#: Environment variable giving ``run``/``sweep`` their ``--lanes``
#: default, matching the ``REPRO_SIM_BACKEND`` convention.
LANES_ENV = "REPRO_SIM_LANES"


def lanes_default() -> Optional[int]:
    """``--lanes`` default from ``$REPRO_SIM_LANES`` (None unless set).

    ``1`` (and unset/empty) means scalar execution — no batching; a
    malformed value fails loudly rather than silently running scalar.
    """
    raw = os.environ.get(LANES_ENV, "").strip()
    if not raw:
        return None
    try:
        lanes = int(raw)
    except ValueError:
        raise SimulationError(
            f"{LANES_ENV} wants a positive integer, got {raw!r}"
        ) from None
    if lanes < 1:
        raise SimulationError(
            f"{LANES_ENV} wants a positive integer, got {lanes}"
        )
    return lanes if lanes > 1 else None


#: In-process namespace memo for the compiled (no-disk) batched backend.
_INPROC_CACHE: "OrderedDict[str, dict]" = OrderedDict()
_INPROC_CACHE_MAX = 32


def _load_inprocess(source: str):
    """Compile a laned module in-process; never touches the disk cache."""
    key = hashlib.sha256(source.encode()).hexdigest()
    ns = _INPROC_CACHE.get(key)
    if ns is not None:
        _INPROC_CACHE.move_to_end(key)
        return ns, "memory"
    ns = {"CircuitError": CircuitError, "LaneDivergence": LaneDivergence}
    exec(compile(source, "<laned>", "exec"), ns)
    _INPROC_CACHE[key] = ns
    while len(_INPROC_CACHE) > _INPROC_CACHE_MAX:
        _INPROC_CACHE.popitem(last=False)
    return ns, "generated"


class BatchedEngineBase:
    """Validation, per-lane bookkeeping and the scalar fallback."""

    backend = "?"
    #: Scalar engine family the fallback (and the event backend) runs.
    scalar_backend = "?"
    #: Lanes run on scalar engines here; the generated-loop engines
    #: override this with their lane representation.
    data_plane = "scalar"

    def _init_batched(
        self,
        circuit: DataflowCircuit,
        lanes: int,
        memories: Optional[Sequence[Memory]],
        trace,
        profile,
        sanitize: Optional[bool],
        deadlock_window: int,
    ) -> None:
        if not isinstance(lanes, int) or lanes < 1:
            raise SimulationError(
                f"lanes must be a positive integer (got {lanes!r})"
            )
        if trace is not None:
            raise SimulationError(
                "batched mode cannot drive a Trace: a trace observes one "
                "execution and a batched pass folds several together; "
                "run lanes=None (scalar) to trace"
            )
        if profile is not None:
            raise SimulationError(
                "batched mode cannot drive a SimProfile: the lane-parallel "
                "loop has no per-unit instrumentation points; profile a "
                "scalar run (lanes=None) instead"
            )
        # Reject a pre-built HandshakeSanitizer instance too (truthy
        # non-bool), not just sanitize=True.
        if (
            sanitize is True
            or (sanitize is not None and sanitize is not False)
            or (sanitize is None and sanitize_default())
        ):
            raise SimulationError(
                "batched mode cannot drive the HandshakeSanitizer: it "
                "checks one execution's handshake contract per cycle; "
                "drop --sanitize/REPRO_SIM_SANITIZE or run scalar "
                "(lanes=None)"
            )
        circuit.validate()
        self.circuit = circuit
        self.lanes = lanes
        self.deadlock_window = deadlock_window

        needs_mem = any(
            getattr(u, "needs_memory", False)
            for u in circuit.units.values()
        )
        mems = list(memories) if memories else []
        if needs_mem:
            if len(mems) != lanes:
                raise SimulationError(
                    f"batched run needs one Memory per lane "
                    f"({lanes} lanes, got {len(mems)})"
                )
        elif mems:
            raise SimulationError(
                "memories given but no unit of this circuit uses a memory"
            )
        self.memories: List[Memory] = mems
        #: Initial per-lane memory contents, for per-lane re-execution
        #: (the event backend's strategy; never needed after a mask-mode
        #: promotion, which continues in place).
        self._mem0 = [m.snapshot() for m in mems]
        self._sink_names = [
            n for n, u in circuit.units.items() if isinstance(u, Sink)
        ]

        #: Bit l set once lane l's ``done`` predicate held.
        self.done_mask = 0
        self.lane_cycles: List[int] = [0] * lanes
        self._lane_fires: List[int] = [0] * lanes
        #: Lanes re-executed on a scalar engine after a divergence
        #: (0 = the whole batch ran lane-parallel; the generated-loop
        #: engines keep this 0 even under divergence, via mask mode).
        self.fallback_lanes = 0
        #: Lockstep→mask promotions performed (0 = stayed lockstep).
        self.mask_promotions = 0
        #: Cycle of the first promotion, or None.
        self.promotion_cycle: Optional[int] = None
        #: The :class:`LaneDivergence` that triggered it, or None.
        self.divergence: Optional[LaneDivergence] = None
        self._divergence: Optional[LaneDivergence] = None
        self._masked = False
        self._fb_lane: Optional[int] = None
        self._fb_done: Dict[int, Dict[str, list]] = {}

    # ------------------------------------------------------- per-lane views
    @property
    def lane_fires(self) -> List[int]:
        return list(self._lane_fires)

    def sink_count(self, name: str, lane: int) -> int:
        """Number of tokens lane ``lane`` delivered to sink ``name``."""
        if self._fb_lane is not None or self._fb_done:
            if lane == self._fb_lane:
                return len(self.circuit.units[name].received)
            got = self._fb_done.get(lane)
            return len(got[name]) if got is not None else 0
        # Lockstep: every append carries one value per lane.
        return len(self.circuit.units[name].received)

    def sink_received(self, name: str, lane: int) -> list:
        """Values lane ``lane`` delivered to sink ``name``, in order."""
        if self._fb_lane is not None or self._fb_done:
            if lane == self._fb_lane:
                return list(self.circuit.units[name].received)
            got = self._fb_done.get(lane)
            return list(got[name]) if got is not None else []
        return [t[lane] for t in self.circuit.units[name].received]

    # --------------------------------------------------------- the fallback
    def _scalar_engine(self, lane: int):
        mem = self.memories[lane] if self.memories else None
        if self.scalar_backend == "event":
            return Engine(
                self.circuit, memory=mem, sanitize=False,
                deadlock_window=self.deadlock_window,
            )
        if self.scalar_backend == "compiled":
            return CompiledEngine(
                self.circuit, memory=mem, sanitize=False,
                deadlock_window=self.deadlock_window,
            )
        return CodegenEngine(
            self.circuit, memory=mem, sanitize=False,
            deadlock_window=self.deadlock_window,
        )

    def _run_per_lane(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int,
    ) -> List[int]:
        """Run every lane on a scalar engine; bit-exact by construction.

        Restores each lane's memory to its initial contents first, so the
        path is correct both as the from-scratch strategy (event backend)
        and as the fallback after a partially executed lockstep attempt.
        """
        for mem, snap in zip(self.memories, self._mem0):
            mem.restore(snap)
        self.fallback_lanes = self.lanes
        self._fb_done = {}
        lane_cycles: List[int] = []
        for lane in range(self.lanes):
            self._fb_lane = lane
            try:
                eng = self._scalar_engine(lane)
                cycles = eng.run(
                    (lambda l=lane: done_lane(l)), max_cycles=max_cycles
                )
            finally:
                # Snapshot even on error: completed lanes stay readable.
                self._fb_done[lane] = {
                    n: list(self.circuit.units[n].received)
                    for n in self._sink_names
                }
                self._fb_lane = None
            self._fb_done[lane] = {
                n: list(self.circuit.units[n].received)
                for n in self._sink_names
            }
            lane_cycles.append(cycles)
            self._lane_fires[lane] = eng.total_fires
            self.lane_cycles[lane] = cycles
            self.done_mask |= 1 << lane
        return list(lane_cycles)


class _LanedLoopEngine(BatchedEngineBase):
    """Common machinery of the two lane-parallel generated-loop engines."""

    #: The mask loop carries per-lane data as lane tuples.
    data_plane = "tuple"

    def __init__(
        self,
        circuit: DataflowCircuit,
        lanes: int,
        memories: Optional[Sequence[Memory]] = None,
        trace=None,
        profile=None,
        sanitize: Optional[bool] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
    ):
        self._init_batched(
            circuit, lanes, memories, trace, profile, sanitize,
            deadlock_window,
        )
        schedule = compile_schedule(circuit)
        self.schedule = schedule
        units = [circuit.units[n] for n in schedule.names]
        self._units = units
        for u in units:
            u.reset()

        nch = schedule.nch
        self.valid = bytearray(nch)
        self.ready = bytearray(nch)
        self.fired = bytearray(nch)
        self.data: List = [None] * nch
        self._zeros = bytes(nch)
        self._aflags = bytearray(b"\x01" * schedule.n_occ)
        self._kflags = bytearray(schedule.n_units)
        self._quiet = False
        self.cycle = 0
        self.total_fires = 0
        self._idle_cycles = 0
        self._mrd = [m.read for m in self.memories]
        self._mwr = [m.write for m in self.memories]

        self._slot_of: Dict[str, int] = {
            n: i for i, n in enumerate(schedule.names)
        }

        # Mask-mode (MIMD) state; populated by ``_promote``.
        self._mv: Optional[List[int]] = None
        self._mr: Optional[List[int]] = None
        self._mstate: Optional[List[Optional[dict]]] = None
        self._live = 0
        self._fa = 0
        self._mask_loop = None

        source = generate_source(circuit, schedule, lanes=True)
        ns, key, origin = self._load(source)
        self.codegen_key = key
        self.codegen_origin = origin
        self._ns = ns
        self._loop = ns["make_loop"](self)

    def _load(self, source: str):  # pragma: no cover - overridden
        raise NotImplementedError

    # -------------------------------------------------- mask-mode lane views
    def sink_count(self, name: str, lane: int) -> int:
        if self._masked:
            return len(self._mstate[self._slot_of[name]]["recv"][lane])
        return super().sink_count(name, lane)

    def sink_received(self, name: str, lane: int) -> list:
        if self._masked:
            return list(self._mstate[self._slot_of[name]]["recv"][lane])
        return super().sink_received(name, lane)

    # ------------------------------------------------------------- promotion
    def _promote(self) -> None:
        """Switch from the lockstep loop to the mask-lane (MIMD) loop.

        Sound at any point where the lockstep loop stopped — after a
        completed cycle (partial done-mask) or mid-combinational-pass
        (data→control divergence) — because the combinational pass never
        mutates unit state: promoting the synced signal arrays to lane
        masks and re-arming every activation flag makes the mask loop's
        first pass recompute the handshake fixpoint from scratch, with
        semantics identical to engine initialization.
        """
        lb = self.lanes
        full = (1 << lb) - 1
        # Control bits -> lane bitmasks.
        self._mv = [full if b else 0 for b in self.valid]
        self._mr = [full if b else 0 for b in self.ready]
        zt = (None,) * lb
        # Data locals -> always lane tuples (``zt`` stands in wherever no
        # lane is valid).
        self.data = [zt if d is None else d for d in self.data]
        self._mstate = [mask_state(u, lb, full) for u in self._units]
        self._aflags[:] = b"\x01" * len(self._aflags)
        self._quiet = False
        # Lanes already retired by a partial done-mask coast from the
        # start; everyone else is checked on first fire activity.
        self._live = full & ~self.done_mask
        self._fa = self._live
        baseline = self.total_fires
        for lane in range(lb):
            # In lockstep every lane saw every channel fire, so each
            # lane's own fire count *is* the shared total so far.
            self._lane_fires[lane] = baseline
            if self.done_mask >> lane & 1:
                self.lane_cycles[lane] = self.cycle
        self.mask_promotions += 1
        if self.promotion_cycle is None:
            self.promotion_cycle = self.cycle
        self._masked = True
        self._mask_loop = self._ns["make_mask_loop"](self)

    def _raise_mask_status(self, status: int, max_cycles: int) -> None:
        if status == 2:
            liv = self._live
            valid = bytearray(1 if m & liv else 0 for m in self._mv)
            ready = bytearray(1 if m & liv else 0 for m in self._mr)
            blocked = diagnose(self.circuit, valid, ready)
            raise DeadlockError(
                f"deadlock at cycle {self.cycle}: no activity for "
                f"{self._idle_cycles} cycles across the "
                f"{liv.bit_count()} live lane(s)\n  "
                + "\n  ".join(blocked),
                cycle=self.cycle,
                blocked=blocked,
            )
        if status == 3:
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles without "
                f"completing ({self.total_fires} transfers so far)"
            )

    def _run_masked(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int,
    ) -> List[int]:
        while True:
            budget = max(max_cycles - self.cycle, 0) + 1
            status, _ = self._mask_loop(
                budget, done_lane, max_cycles, self.deadlock_window
            )
            if status == 1:
                return list(self.lane_cycles)
            self._raise_mask_status(status, max_cycles)

    def _raise_status(self, status: int, max_cycles: int) -> None:
        if status == 2:
            blocked = diagnose(self.circuit, self.valid, self.ready)
            raise DeadlockError(
                f"deadlock at cycle {self.cycle}: no activity for "
                f"{self._idle_cycles} cycles\n  " + "\n  ".join(blocked),
                cycle=self.cycle,
                blocked=blocked,
            )
        if status == 3:
            raise SimulationError(
                f"simulation exceeded {max_cycles} cycles without "
                f"completing ({self.total_fires} transfers so far)"
            )

    def run_lanes(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int = 1_000_000,
        uniform_done: bool = False,
        start_masked: bool = False,
    ) -> List[int]:
        """Run until every lane's ``done_lane(l)`` holds; per-lane cycles.

        ``uniform_done=True`` promises that under lockstep execution the
        predicate is lane-independent (true whenever it only reads lane
        counters the lockstep pass advances uniformly — per-lane memory
        read/write counts against equal targets, shared sink counts), so
        checking lane 0 suffices.  Without the promise every lane is
        checked each cycle and a *partial* done-mask — some lanes done,
        others not — is itself a divergence.

        Divergence (loop exit status 4, or the partial done-mask raise)
        *promotes* the batch to mask-lane execution: the run continues
        in place with per-lane control bitmasks, no lane ever re-runs on
        a scalar engine, and ``fallback_lanes`` stays 0.

        In mask mode ``done_lane`` is re-checked only for lanes with a
        fire into a ``Sink`` or ``StorePort`` since their previous
        check: predicates must observe lane progress through sink
        receptions and/or memory writes (as the kernel runner's and all
        repo predicates do) — both are monotone and advance exactly on
        those fires, so no completion can be missed.

        ``start_masked=True`` is a test hook: promote before the first
        cycle (the pristine state — everything armed, nothing fired — is
        exactly what promotion produces) so lockstep-only workloads can
        be forced through the mask loop for differential testing.
        """
        full = (1 << self.lanes) - 1
        rng = range(self.lanes)

        if start_masked and not self._masked:
            self._promote()
        if self._masked:
            return self._run_masked(done_lane, max_cycles)

        if uniform_done:
            def done() -> bool:
                return done_lane(0)
        else:
            def done() -> bool:
                mask = 0
                for l in rng:
                    if done_lane(l):
                        mask |= 1 << l
                if mask == full:
                    return True
                if mask:
                    # Caught by the generated loop's status-4 handler.
                    self.done_mask = mask
                    raise LaneDivergence(
                        "done", tuple(bool(mask >> l & 1) for l in rng)
                    )
                return False

        while True:
            budget = max(max_cycles - self.cycle, 0) + 1
            status, _ = self._loop(
                budget, done, max_cycles, self.deadlock_window,
                None, None,
            )
            if status == 1:
                break
            if status == 4:
                exc = self._divergence
                if exc is not None and exc.cycle is None:
                    exc.cycle = self.cycle
                self.divergence = exc
                self._promote()
                return self._run_masked(done_lane, max_cycles)
            self._raise_status(status, max_cycles)

        self.done_mask = full
        self.lane_cycles = [self.cycle] * self.lanes
        self._lane_fires = [self.total_fires] * self.lanes
        return list(self.lane_cycles)


class BatchedCodegenEngine(_LanedLoopEngine):
    """Lane-parallel generated loop, disk-cached like scalar codegen."""

    backend = "codegen"
    scalar_backend = "codegen"

    def _load(self, source: str):
        key = source_key(source)
        ns, origin = load_module(source, key=key)
        return ns, key, origin


class BatchedCompiledEngine(_LanedLoopEngine):
    """Lane-parallel generated loop, compiled in-process (no disk cache)."""

    backend = "compiled"
    scalar_backend = "compiled"

    def _load(self, source: str):
        ns, origin = _load_inprocess(source)
        return ns, source_key(source), origin


class BatchedEventEngine(BatchedEngineBase):
    """Reference batched backend: lanes run sequentially on the event
    engine.  No lane-parallelism — the differential anchor the two
    lockstep engines are tested against."""

    backend = "event"
    scalar_backend = "event"

    def __init__(
        self,
        circuit: DataflowCircuit,
        lanes: int,
        memories: Optional[Sequence[Memory]] = None,
        trace=None,
        profile=None,
        sanitize: Optional[bool] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
    ):
        self._init_batched(
            circuit, lanes, memories, trace, profile, sanitize,
            deadlock_window,
        )

    def run_lanes(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int = 1_000_000,
        uniform_done: bool = False,
        start_masked: bool = False,
    ) -> List[int]:
        # ``start_masked`` is accepted for API parity and ignored: the
        # event backend has no generated loop to promote.
        cycles = self._run_per_lane(done_lane, max_cycles)
        self.fallback_lanes = 0  # by design, not a divergence
        return cycles


#: Batched engine classes by (scalar) backend name.
BATCHED_BACKENDS = {
    "event": BatchedEventEngine,
    "compiled": BatchedCompiledEngine,
    "codegen": BatchedCodegenEngine,
}


def create_batched_engine(
    circuit: DataflowCircuit,
    backend: str,
    lanes: int,
    memories: Optional[Sequence[Memory]] = None,
    **kwargs,
):
    """Instantiate the batched engine mirroring scalar ``backend``."""
    try:
        cls = BATCHED_BACKENDS[backend]
    except KeyError:
        raise SimulationError(
            f"unknown simulation backend {backend!r}; "
            f"choose from {sorted(BATCHED_BACKENDS)}"
        ) from None
    return cls(circuit, lanes, memories=memories, **kwargs)
