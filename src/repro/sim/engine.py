"""Cycle-accurate simulation of handshake dataflow circuits.

Each simulated cycle has two phases, mirroring synchronous hardware:

1. **Combinational fixpoint** — units' ``eval_comb`` functions are
   re-evaluated until the valid/ready/data signal vectors stabilize.  The
   evaluation is *event-driven*: a unit is (re)evaluated only when one of
   the signals it observes changed, or when its own sequential state
   changed at the previous clock edge.  Buffer placement guarantees no
   combinational cycle; a diverging evaluation (oscillating, i.e. a
   combinational loop) raises :class:`~repro.errors.ConvergenceError`.
2. **Clock edge** — a channel *fires* where valid & ready; the ``tick`` of
   every unit that fired a port or has in-flight pipeline state commits its
   sequential state.

The engine also watches for deadlock: if no channel fires and no unit makes
internal pipeline progress for ``deadlock_window`` consecutive cycles, the
run aborts with a :class:`~repro.errors.DeadlockError` carrying a diagnosis
of the blocking structure (see :mod:`repro.sim.deadlock`).

This module holds the *event-driven* engine — the reference semantics.  A
second backend (:mod:`repro.sim.compiled`) compiles the circuit into a
static evaluation schedule and replays it; it must be bit-identical to this
one and is differentially tested against it.  Shared machinery (the run
loop, deadlock accounting, memory binding) lives in :class:`BaseEngine`.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..circuit import DataflowCircuit, PortCtx

if TYPE_CHECKING:
    from .sanitize import HandshakeSanitizer
from ..errors import ConvergenceError, DeadlockError, SimulationError
from .deadlock import diagnose
from .memory import Memory
from .profile import SimProfile
from .trace import Trace

#: Cycles without any activity after which a deadlock is declared.  Must
#: exceed the deepest pipeline (an FU can drain internally for its full
#: latency without firing a channel).
DEFAULT_DEADLOCK_WINDOW = 96

#: Run-loop exit statuses that end a run with an error (the generated
#: loops of :mod:`repro.sim.codegen` return them as 2 and 3).
DEADLOCKED, OUT_OF_CYCLES = 2, 3


def raise_stopped(engine, status: int, max_cycles: int, valid=None,
                  ready=None, where: str = "") -> None:
    """Raise the error for a run that stopped with ``status``; any other
    status returns.

    The one place every engine formats its deadlock and cycle-limit
    errors.  The mask-lane loop passes its live lanes' ``valid``/``ready``
    view and a ``where`` note in place of ``engine``'s own arrays.
    """
    if status == DEADLOCKED:
        blocked = diagnose(engine.circuit, valid or engine.valid,
                           ready or engine.ready)
        raise DeadlockError(
            f"deadlock at cycle {engine.cycle}: no activity for "
            f"{engine._idle_cycles} cycles{where}\n  " + "\n  ".join(blocked),
            cycle=engine.cycle,
            blocked=blocked,
        )
    if status == OUT_OF_CYCLES:
        raise SimulationError(
            f"simulation exceeded {max_cycles} cycles without "
            f"completing ({engine.total_fires} transfers so far)"
        )


class BaseEngine:
    """Common harness shared by the event-driven and compiled backends.

    Subclasses implement ``step()`` (one clock cycle, returning the number
    of channel fires) and maintain ``cycle`` / ``total_fires`` /
    ``_idle_cycles``; everything above the per-cycle hot loop — the run
    loop, deadlock detection, memory binding, profile adoption — is
    identical across backends and lives here.
    """

    #: Backend name reported by profiles and the CLI.
    backend = "?"

    #: Data representation the engine executes with.  One-lane engines
    #: are always ``"scalar"``; the generated-loop batched engines run
    #: lane tuples (``"tuple"``).
    #: Recorded in :class:`~repro.frontend.runner.KernelRun` and
    #: :class:`~repro.pipeline.TechniqueResult` for provenance.
    data_plane = "scalar"

    def _init_common(
        self,
        circuit: DataflowCircuit,
        memory: Optional[Memory],
        trace: Optional[Trace],
        deadlock_window: int,
        profile: Optional[SimProfile],
        sanitize: Union[bool, "HandshakeSanitizer", None] = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.memory = memory
        self.trace = trace
        self.profile = profile
        self.deadlock_window = deadlock_window
        self.cycle = 0
        self.total_fires = 0
        self._idle_cycles = 0
        # Opt-in handshake-protocol sanitizer (--sanitize /
        # REPRO_SIM_SANITIZE).  A pure observer: it never writes a signal,
        # so sanitized runs stay bit-identical to unsanitized ones.  A
        # pre-built HandshakeSanitizer instance (e.g. one armed with
        # alias_pairs for SAN005) may be passed in place of a bool.
        from .sanitize import HandshakeSanitizer, sanitize_default

        if isinstance(sanitize, HandshakeSanitizer):
            if sanitize.circuit is not circuit:
                raise SimulationError(
                    "sanitize= was given a HandshakeSanitizer built for a "
                    "different circuit"
                )
            self.sanitizer: Optional[HandshakeSanitizer] = sanitize
        else:
            if sanitize is None:
                sanitize = sanitize_default()
            self.sanitizer = HandshakeSanitizer(circuit) if sanitize else None

    def _reset_units(self, units) -> None:
        """Power-on reset + memory binding for every unit."""
        for u in units:
            u.reset()
            if getattr(u, "needs_memory", False):
                if self.memory is None:
                    raise SimulationError(
                        f"{u.describe()} needs a memory model but none given"
                    )
                u.memory = self.memory

    def _adopt_profile(self, units) -> None:
        """Switch to the instrumented step loop when a profile was given."""
        if self.profile is not None:
            self.profile.bind([u.name for u in units], self.backend)
            self.step = self._step_profiled

    # ---------------------------------------------------------------- step
    def step(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def _step_profiled(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    # ----------------------------------------------------------------- run
    def run(
        self,
        done: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Run until ``done()`` holds; return the cycle count.

        Raises :class:`DeadlockError` when the circuit freezes and
        :class:`SimulationError` when ``max_cycles`` is exhausted.
        """
        while not done():
            if self.cycle >= max_cycles:
                raise_stopped(self, OUT_OF_CYCLES, max_cycles)
            self.step()
            if self._idle_cycles >= self.deadlock_window:
                raise_stopped(self, DEADLOCKED, max_cycles)
        return self._finish_run()

    def _finish_run(self) -> int:
        """End-of-run sanitizer checks; returns the cycle count."""
        if self.sanitizer is not None:
            # End-of-run conservation checks, then fail loudly if any
            # protocol violation was observed along the way.
            self.sanitizer.finish()
            self.sanitizer.raise_if_violations()
        return self.cycle

    def run_cycles(self, n: int) -> int:
        """Advance exactly ``n`` cycles (no deadlock abort); return fires."""
        fires = 0
        for _ in range(n):
            fires += self.step()
        return fires


class Engine(BaseEngine):
    """Event-driven simulator for one :class:`DataflowCircuit` instance."""

    backend = "event"

    def __init__(
        self,
        circuit: DataflowCircuit,
        memory: Optional[Memory] = None,
        trace: Optional[Trace] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
        profile: Optional[SimProfile] = None,
        sanitize: Union[bool, "HandshakeSanitizer", None] = None,
    ):
        self._init_common(
            circuit, memory, trace, deadlock_window, profile, sanitize
        )

        # Channel ids can be sparse after rewrites (removed units leave
        # gaps), so size the signal arrays by the largest id in use.
        nch = max((ch.cid for ch in circuit.channels), default=-1) + 1
        self.valid: List[bool] = [False] * nch
        self.ready: List[bool] = [False] * nch
        self.data: List = [None] * nch
        self.fired: List[bool] = [False] * nch

        names = list(circuit.units)
        self._slot_of: Dict[str, int] = {n: i for i, n in enumerate(names)}
        self._units = [circuit.units[n] for n in names]
        n_units = len(self._units)

        # Channel endpoint maps for change notification.
        self._cons_unit = [-1] * nch
        self._prod_unit = [-1] * nch
        for ch in circuit.channels:
            self._cons_unit[ch.cid] = self._slot_of[ch.dst.unit]
            self._prod_unit[ch.cid] = self._slot_of[ch.src.unit]

        #: Channel ids actually in use, in ascending order (skips the gaps
        #: left by rewrites so the fire scan never touches dead slots).
        self._live_cids = sorted(ch.cid for ch in circuit.channels)

        self._dirty = bytearray(n_units)
        self._queue: deque = deque()

        self._ctxs: List[PortCtx] = []
        for u in self._units:
            in_ch = [
                ch.cid if (ch := circuit.in_channel(u, i)) is not None else -1
                for i in range(u.n_in)
            ]
            out_ch = [
                ch.cid if (ch := circuit.out_channel(u, i)) is not None else -1
                for i in range(u.n_out)
            ]
            self._ctxs.append(
                PortCtx(
                    self.valid, self.ready, self.data, self.fired,
                    in_ch, out_ch,
                    self._cons_unit, self._prod_unit,
                    self._dirty, self._queue,
                )
            )

        #: Units whose ``quiescent()`` can be False (internal pipelines).
        from ..circuit import Unit as _Unit

        self._pipeline_units = [
            i for i, u in enumerate(self._units)
            if type(u).quiescent is not _Unit.quiescent
        ]

        #: Per-slot flag: does this unit's ``tick`` ever do anything?
        #: Ticking a stateless unit is a no-op and re-evaluating it next
        #: cycle cannot change any signal (eval_comb is pure), so the
        #: clock edge skips such units entirely.
        self._tickable = bytearray(
            1 if u.needs_tick() else 0 for u in self._units
        )
        #: Scratch membership flags for the per-cycle tick list.
        self._tick_pend = bytearray(n_units)

        self.max_evals_per_cycle = 60 * n_units + 200

        self._reset_units(self._units)

        # First cycle evaluates everything.
        self._seed_all()
        self._adopt_profile(self._units)

    def _seed_all(self) -> None:
        for i in range(len(self._units)):
            if not self._dirty[i]:
                self._dirty[i] = 1
                self._queue.append(i)

    def _mark(self, i: int) -> None:
        if not self._dirty[i]:
            self._dirty[i] = 1
            self._queue.append(i)

    # ------------------------------------------------------------------- step
    def step(self) -> int:
        """Simulate one clock cycle; return the number of channel fires."""
        units, ctxs = self._units, self._ctxs
        dirty, queue = self._dirty, self._queue

        evals = 0
        while queue:
            i = queue.popleft()
            dirty[i] = 0
            units[i].eval_comb(ctxs[i])
            evals += 1
            if evals > self.max_evals_per_cycle:
                raise ConvergenceError(
                    f"handshake signals did not stabilize at cycle "
                    f"{self.cycle} ({evals} evaluations); the circuit "
                    "likely has a combinational cycle (missing buffer)"
                )

        valid, ready, fired = self.valid, self.ready, self.fired
        cons, prod = self._cons_unit, self._prod_unit
        tickable, pend = self._tickable, self._tick_pend
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        cyc = self.cycle
        fires = 0
        fired_now: List[int] = []
        tlist: List[int] = []
        for c in self._live_cids:
            if valid[c] and ready[c]:
                fired[c] = True
                fired_now.append(c)
                fires += 1
                i = cons[c]
                if tickable[i] and not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                i = prod[c]
                if tickable[i] and not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                if rec is not None:
                    rec(c, cyc)

        if self.sanitizer is not None:
            # Observe at the cycle fixpoint: fired flags are set, ticks
            # have not yet rewritten any signal.
            self.sanitizer.observe(cyc, valid, ready, self.data, fired)

        progress = fires > 0
        for i in self._pipeline_units:
            if not units[i].quiescent():
                if not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                progress = True

        # Canonical (ascending-slot) tick order so both backends commit
        # sequential state — in particular same-cycle memory accesses — in
        # the same deterministic order.
        tlist.sort()
        for i in tlist:
            pend[i] = 0
            units[i].tick(ctxs[i])
            self._mark(i)  # state may have changed; re-evaluate next cycle
        # Fired flags must not leak into the next cycle's ticks; clear only
        # the channels that actually fired (the rest are already False).
        for c in fired_now:
            fired[c] = False

        self.total_fires += fires
        self._idle_cycles = 0 if progress else self._idle_cycles + 1
        self.cycle += 1
        return fires

    # ----------------------------------------------------- instrumented step
    def _step_profiled(self) -> int:
        """``step`` with per-phase timers and per-unit eval counts."""
        prof = self.profile
        units, ctxs = self._units, self._ctxs
        dirty, queue = self._dirty, self._queue
        counts = prof.eval_counts

        t0 = perf_counter()
        evals = 0
        while queue:
            i = queue.popleft()
            dirty[i] = 0
            units[i].eval_comb(ctxs[i])
            counts[i] += 1
            evals += 1
            if evals > self.max_evals_per_cycle:
                raise ConvergenceError(
                    f"handshake signals did not stabilize at cycle "
                    f"{self.cycle} ({evals} evaluations); the circuit "
                    "likely has a combinational cycle (missing buffer)"
                )
        t1 = perf_counter()

        valid, ready, fired = self.valid, self.ready, self.fired
        cons, prod = self._cons_unit, self._prod_unit
        tickable, pend = self._tickable, self._tick_pend
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        cyc = self.cycle
        fires = 0
        fired_now: List[int] = []
        tlist: List[int] = []
        for c in self._live_cids:
            if valid[c] and ready[c]:
                fired[c] = True
                fired_now.append(c)
                fires += 1
                i = cons[c]
                if tickable[i] and not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                i = prod[c]
                if tickable[i] and not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                if rec is not None:
                    rec(c, cyc)
        t2 = perf_counter()

        if self.sanitizer is not None:
            self.sanitizer.observe(cyc, valid, ready, self.data, fired)

        progress = fires > 0
        for i in self._pipeline_units:
            if not units[i].quiescent():
                if not pend[i]:
                    pend[i] = 1
                    tlist.append(i)
                progress = True

        tlist.sort()
        tcounts = prof.tick_counts
        for i in tlist:
            pend[i] = 0
            units[i].tick(ctxs[i])
            tcounts[i] += 1
            self._mark(i)
        for c in fired_now:
            fired[c] = False
        t3 = perf_counter()

        prof.comb_s += t1 - t0
        prof.fire_s += t2 - t1
        prof.tick_s += t3 - t2
        prof.wall_s += t3 - t0
        prof.cycles += 1
        prof.fires += fires

        self.total_fires += fires
        self._idle_cycles = 0 if progress else self._idle_cycles + 1
        self.cycle += 1
        return fires
