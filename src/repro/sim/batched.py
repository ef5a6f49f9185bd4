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
  raises :class:`~repro.errors.LaneDivergence`.  The engine catches it
  (loop exit status 4) and **promote the batch to
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
  initialization.

Per-lane termination uses a done-mask: the engine tracks which lanes
have satisfied their ``done`` predicate.  In lockstep the mask can only
go from empty to full in one step (per-lane completion cycles are
recorded then); a *partial* mask is itself a divergence and promotes to
mask mode, where the finished lanes' ``live`` bits are cleared and they
coast with frozen state while the rest run to completion.

One engine, :class:`BatchedEngine`, serves every lane count and both
generated-loop backends (``create_engine(..., lanes=B)`` returns it for
``"compiled"`` and ``"codegen"``).  It shares its set-up with the scalar
:class:`~repro.sim.codegen.CodegenEngine`
(:func:`~repro.sim.codegen.bind_loop_state`: schedule, signal arrays,
activation flags, module load), so the laned module is memoized
in-process and content-addressed in the same disk cache as scalar
modules (laned and scalar sources always differ, so their keys can
never collide), and it reports deadlocks and cycle-limit overruns
through the scalar engines' :func:`~repro.sim.engine.raise_stopped`.
Lanes are a width, not a backend: the event backend has no generated
loop and therefore no batched engine, so
:func:`repro.frontend.simulate_kernel_batch` runs an event batch — and a
one-seed batch on any backend — seed by seed on scalar engines.

Observers are refused up front: a ``Trace``/``SimProfile``/sanitizer
observes one circuit execution, and a batched pass is ``B`` of them
folded together.  Use scalar runs (``lanes=None``) for observed
simulations.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..circuit import DataflowCircuit
from ..errors import LaneDivergence, SimulationError
from .codegen import bind_loop_state, run_generated
from .codegen_blocks import mask_state
from .engine import DEFAULT_DEADLOCK_WINDOW, raise_stopped
from .memory import Memory
from .sanitize import sanitize_default


def refuse_observers(trace=None, profile=None, sanitize=None) -> None:
    """Raise :class:`SimulationError` if any observer is requested.

    A trace, profile or sanitizer observes one execution; a batch folds
    several together.  ``sanitize=None`` defers to
    ``$REPRO_SIM_SANITIZE``, and a pre-built
    :class:`~repro.sim.sanitize.HandshakeSanitizer` (a truthy non-bool)
    counts as a request too.
    """
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
    if sanitize is not False and (sanitize is not None or sanitize_default()):
        raise SimulationError(
            "batched mode cannot drive the HandshakeSanitizer: it "
            "checks one execution's handshake contract per cycle; "
            "drop --sanitize/REPRO_SIM_SANITIZE or run scalar "
            "(lanes=None)"
        )


class BatchedEngine:
    """The lane-parallel generated loop: ``lanes`` input sets per pass."""

    #: The loop carries per-lane data as lane tuples.
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
        if not isinstance(lanes, int) or lanes < 1:
            raise SimulationError(
                f"lanes must be a positive integer (got {lanes!r})"
            )
        refuse_observers(trace, profile, sanitize)
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

        #: Bit l set once lane l's ``done`` predicate held.
        self.done_mask = 0
        self.lane_cycles: List[int] = [0] * lanes
        self._lane_fires: List[int] = [0] * lanes
        #: Lockstep→mask promotions performed (0 = stayed lockstep).
        self.mask_promotions = 0
        #: Cycle of the first promotion, or None.
        self.promotion_cycle: Optional[int] = None
        #: The :class:`LaneDivergence` that triggered it, or None.
        self.divergence: Optional[LaneDivergence] = None
        self._divergence: Optional[LaneDivergence] = None
        self._masked = False
        self.cycle = 0
        self.total_fires = 0
        self._idle_cycles = 0
        self._mrd = [m.read for m in self.memories]
        self._mwr = [m.write for m in self.memories]

        # Mask-mode (MIMD) state; populated by ``_promote``.
        self._mv: Optional[List[int]] = None
        self._mr: Optional[List[int]] = None
        self._mstate: Optional[List[Optional[dict]]] = None
        self._live = 0
        self._fa = 0
        self._mask_loop = None

        self._ns = bind_loop_state(self, circuit, lanes=True)
        for u in self._units:
            u.reset()
        self._loop = self._ns["make_loop"](self)

    # ------------------------------------------------------- per-lane views
    @property
    def lane_fires(self) -> List[int]:
        return list(self._lane_fires)

    def sink_count(self, name: str, lane: int) -> int:
        """Number of tokens lane ``lane`` delivered to sink ``name``."""
        if self._masked:
            return len(self._mstate[self._slot_of[name]]["recv"][lane])
        # Lockstep: every append carries one value per lane.
        return len(self.circuit.units[name].received)

    def sink_received(self, name: str, lane: int) -> list:
        """Values lane ``lane`` delivered to sink ``name``, in order."""
        if self._masked:
            return list(self._mstate[self._slot_of[name]]["recv"][lane])
        return [t[lane] for t in self.circuit.units[name].received]

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

    def _run_masked(
        self,
        done_lane: Callable[[int], bool],
        max_cycles: int,
    ) -> List[int]:
        status = run_generated(self, self._mask_loop, done_lane, max_cycles)
        self._raise_stopped(status, max_cycles)
        return list(self.lane_cycles)

    def _raise_stopped(self, status: int, max_cycles: int) -> None:
        """:func:`~repro.sim.engine.raise_stopped`, over the live lanes'
        control bits once the batch runs in mask mode."""
        view = {}
        if self._masked:
            liv = self._live
            view = dict(
                valid=bytearray(1 if m & liv else 0 for m in self._mv),
                ready=bytearray(1 if m & liv else 0 for m in self._mr),
                where=f" across the {liv.bit_count()} live lane(s)",
            )
        raise_stopped(self, status, max_cycles, **view)

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
        in place with per-lane control bitmasks and no lane ever re-runs
        on a scalar engine.

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

        status = run_generated(self, self._loop, done, max_cycles, None, None)
        if status == 4:
            exc = self._divergence
            if exc is not None and exc.cycle is None:
                exc.cycle = self.cycle
            self.divergence = exc
            self._promote()
            return self._run_masked(done_lane, max_cycles)
        self._raise_stopped(status, max_cycles)

        self.done_mask = full
        self.lane_cycles = [self.cycle] * self.lanes
        self._lane_fires = [self.total_fires] * self.lanes
        return list(self.lane_cycles)
