"""Specializing codegen simulation backend.

The compiled backend (:mod:`repro.sim.compiled`) already minimizes how
*often* each unit is evaluated; what it cannot remove is the interpreter
overhead of the evaluation itself — every active occurrence is a closure
call, every signal access an indexed container operation.  This backend
removes that floor the way RTL simulators do: it **emits specialized
Python source for the whole circuit** from the same levelized schedule —
one flat cycle loop in which

* every channel's valid/ready/data signal is a *local variable*
  (``v17``/``r17``/``d17``) of the generated function,
* every occurrence of every unit is an inlined straight-line block behind
  an ``if a{k}:`` activation-flag local (no closure calls, no dict
  dispatch on the hot path),
* activation propagation is *static*: a change-detected signal write
  stores ``1`` into the precomputed dependent flags directly
  (``a12 = 1``), because the activation lists are compile-time constants,
* the fire scan, trace recording, tick passes and deadlock accounting
  are unrolled over the precomputed channel/unit lists.

The generated module defines ``make_loop(rt)`` → ``loop(budget, done,
max_cycles, window, san, rec)``; one call simulates up to ``budget``
cycles entirely in local variables and only syncs the engine's signal
arrays on exit, returning ``(status, last_fires)`` with status ``0`` =
budget exhausted, ``1`` = ``done()`` satisfied, ``2`` = deadlock window
exceeded, ``3`` = ``max_cycles`` reached.  The per-unit blocks are exact
transcriptions of the compiled backend's specialized closures
(:mod:`repro.sim.codegen_blocks`), so the backend stays bit-identical to
both existing engines and is differentially tested against them.

Generated modules are cached at two levels: an in-process namespace memo
and a content-addressed disk cache under ``~/.cache/repro-codegen/``
(override with ``$REPRO_CODEGEN_CACHE``) storing the generated source
next to its marshalled bytecode.  Keys are a SHA-256 over the generated
source *plus* the sweep cache's repro-source salt and the interpreter's
bytecode magic, so editing any repro module — in particular this
generator — or switching Python versions can never serve stale code.

:class:`~repro.sim.profile.SimProfile` is rejected at construction: the
generated loop has no per-unit instrumentation points.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from ..circuit import (
    ArbiterMerge,
    Constant,
    DataflowCircuit,
    Entry,
    FixedOrderMerge,
    FunctionalUnit,
    LoadPort,
    Sequence,
    Sink,
    StorePort,
)
from ..errors import CircuitError, LaneDivergence, SimulationError
from .codegen_blocks import (
    CARRY_TYPES,
    EVAL_BLOCKS,
    GROUP,
    LANE_EVAL_BLOCKS,
    LANE_TICK_BLOCKS,
    MASK_EVAL_BLOCKS,
    MASK_TICK_BLOCKS,
    TICK_BLOCKS,
    mask_int_names,
    mask_local,
    mask_obj_names,
)
from .engine import DEFAULT_DEADLOCK_WINDOW, BaseEngine, raise_stopped

if TYPE_CHECKING:
    from .sanitize import HandshakeSanitizer
from .memory import Memory
from .profile import SimProfile
from .signal_graph import CircuitSchedule, compile_schedule
from .trace import Trace

#: Environment override for the generated-module disk cache directory.
CODEGEN_CACHE_ENV = "REPRO_CODEGEN_CACHE"

#: Magic prefix of the on-disk marshalled bytecode payloads.
_PYC_HEADER = b"RCG1"


def codegen_cache_dir() -> Path:
    """``$REPRO_CODEGEN_CACHE`` or ``~/.cache/repro-codegen``."""
    env = os.environ.get(CODEGEN_CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(xdg) / "repro-codegen"


# ---------------------------------------------------------------------------
# Source generation.
# ---------------------------------------------------------------------------


def _pack(lines: List[str], stmts: List[str], indent: str, per: int = 8):
    """Append ``stmts`` joined ``per`` to a line (keeps modules compact)."""
    for i in range(0, len(stmts), per):
        lines.append(indent + "; ".join(stmts[i:i + per]))


def unsupported_units(units, schedule: CircuitSchedule) -> List[str]:
    """Units the generator cannot specialize (non-catalogue types or
    unconnected ports).  The codegen backend refuses them outright — it
    has no generic fallback path by design."""
    bad: List[str] = []
    for s, u in enumerate(units):
        t = type(u)
        if t not in EVAL_BLOCKS:
            bad.append(f"{u.describe()} (no emitter for type {t.__name__})")
        elif any(c < 0 for c in schedule.in_chs[s] + schedule.out_chs[s]):
            bad.append(f"{u.describe()} (unconnected port)")
        elif schedule.tickable[s] and t not in TICK_BLOCKS:
            bad.append(f"{u.describe()} (no tick emitter)")
    return bad


def generate_source(circuit: DataflowCircuit,
                    schedule: CircuitSchedule,
                    lanes: bool = False) -> str:
    """Emit the specialized simulation module for ``circuit``.

    Deterministic: the same circuit structure and code-shaping parameters
    always produce byte-identical source, which is what the disk cache
    keys on.  Runtime-only parameters (token values, operand constants,
    compute functions, memory) are bound through ``rt`` in ``make_loop``.

    ``lanes=True`` emits the *laned* variant used by the batched engines
    (:mod:`repro.sim.batched`): same loop skeleton and scalar control
    signals, data locals widened to per-lane tuples, load/store dispatch
    through per-lane memory method lists, and ``LaneDivergence`` raised
    where per-lane values disagree on a control decision.  The laned
    lockstep loop catches that divergence itself (exit status 4) and the
    module additionally defines ``make_mask_loop(rt)`` — the mask-lane
    (MIMD) continuation the batched engine promotes to, where control
    bits are per-lane bitmask integers and lanes execute independently.
    The lane count itself is a runtime binding (``rt.lanes``), so one
    laned module serves every batch width — but laned and scalar source
    always differ (distinct disk-cache keys).
    """
    units = [circuit.units[n] for n in schedule.names]
    bad = unsupported_units(units, schedule)
    if bad:
        raise SimulationError(
            "the codegen backend cannot specialize this circuit:\n  "
            + "\n  ".join(bad)
            + "\nuse --sim-backend compiled (or event) for it"
        )
    eval_blocks = LANE_EVAL_BLOCKS if lanes else EVAL_BLOCKS
    tick_blocks = LANE_TICK_BLOCKS if lanes else TICK_BLOCKS

    n_units = len(units)
    in_chs, out_chs = schedule.in_chs, schedule.out_chs
    live = sorted(
        {c for cs in in_chs for c in cs} | {c for cs in out_chs for c in cs}
    )
    n_occ = schedule.n_occ
    tick_slots = [s for s in range(n_units) if schedule.tickable[s]]
    carry_slots = [s for s in tick_slots if isinstance(units[s], CARRY_TYPES)]
    needs_mem = any(isinstance(u, (LoadPort, StorePort)) for u in units)

    L: List[str] = []
    add = L.append
    variant = "laned" if lanes else "scalar"
    add(f"# Generated by repro.sim.codegen ({variant}) -- "
        "do not edit by hand.")
    add(f"# structure {schedule.key[:16]}: {n_units} units, "
        f"{len(live)} channels, {n_occ} occurrences, "
        f"{len(tick_slots)} tickable")
    add("")
    add("def make_loop(rt):")
    add("    U = rt._units")
    add("    V = rt.valid")
    add("    R = rt.ready")
    add("    D = rt.data")
    add("    F = rt.fired")
    add("    A = rt._aflags")
    add("    KF = rt._kflags")
    add("    ZB = rt._zeros")
    if lanes:
        add("    LB = rt.lanes")
    if needs_mem:
        if lanes:
            add("    mrd = rt._mrd")
            add("    mwr = rt._mwr")
        else:
            add("    mrd = rt.memory.read")
            add("    mwr = rt.memory.write")
    binds: List[str] = []
    for s, u in enumerate(units):
        binds.append(f"u{s} = U[{s}]")
        if isinstance(u, FunctionalUnit):
            binds.append(f"cp{s} = u{s}._compute")
            for slot in sorted(u.const_ops):
                binds.append(f"uc{s}_{slot} = u{s}.const_ops[{slot}]")
        if isinstance(u, (Entry, Constant)):
            if lanes:
                binds.append(f"uv{s} = (u{s}.value,) * LB")
            else:
                binds.append(f"uv{s} = u{s}.value")
        if lanes and isinstance(u, Sequence):
            binds.append(
                f"usq{s} = tuple((_x,) * LB for _x in u{s}.values)"
            )
        if lanes and isinstance(u, (ArbiterMerge, FixedOrderMerge)):
            binds.append(
                f"lsel{s} = tuple((_i,) * LB for _i in range({u.n_in}))"
            )
    _pack(L, binds, "    ", per=4)
    add("")
    add("    def loop(budget, done, max_cycles, window, san, rec):")
    P = "        "  # loop-prologue indent
    # The laned loop wraps its cycle loop in try/except LaneDivergence
    # (exit status 4: the batched engine promotes to the mask loop), so
    # its body sits one level deeper; scalar source is unchanged.
    W = P + ("    " if lanes else "")  # while-statement indent
    B = W + "    "  # cycle-body indent

    occ_groups = [
        list(range(g * GROUP, min((g + 1) * GROUP, n_occ)))
        for g in range((n_occ + GROUP - 1) // GROUP)
    ]
    fire_groups: "OrderedDict[int, List[int]]" = OrderedDict()
    for c in live:
        fire_groups.setdefault(c // GROUP, []).append(c)
    tick_groups = [tick_slots[i:i + GROUP]
                   for i in range(0, len(tick_slots), GROUP)]
    tgidx = {s: g for g, ss in enumerate(tick_groups) for s in ss}

    # -- prologue: pull everything into locals -----------------------------
    _pack(L, [f"v{c} = V[{c}]; r{c} = R[{c}]; d{c} = D[{c}]" for c in live],
          P, per=2)
    _pack(L, [f"a{k} = A[{k}]" for k in range(n_occ)], P)
    # Group-activity flags: ga{g} covers GROUP consecutive occurrences,
    # fg{g} GROUP consecutive channels (conservatively armed on entry).
    _pack(L, [f"ga{g} = " + " or ".join(f"a{k}" for k in ks) + " or 0"
              for g, ks in enumerate(occ_groups)], P, per=2)
    _pack(L, [f"fg{g} = 1" for g in fire_groups], P)
    _pack(L, [f"k{s} = KF[{s}]" for s in carry_slots], P)
    _pack(L, [f"t{s} = 0; tb{s} = 0" for s in tick_slots], P, per=4)
    # Tick-group flags: tg{g} is armed by the fire scan when any member's
    # t flag is set (member carries are ORed into the guard directly, so
    # they need no arming); tgb{g} gates the pass-2 group.
    _pack(L, [f"tg{g} = 0; tgb{g} = 0" for g in range(len(tick_groups))],
          P, per=4)
    if carry_slots:
        add(P + "kany = " + " or ".join([f"k{s}" for s in carry_slots] + ["0"]))
    else:
        add(P + "kany = 0")
    add(P + "quiet = rt._quiet")
    add(P + "cycle = rt.cycle")
    add(P + "idle = rt._idle_cycles")
    add(P + "total_fires = rt.total_fires")
    add(P + "status = 0")
    add(P + "fires = 0")
    if lanes:
        add(P + "try:")
    add(W + "while budget > 0:")
    add(B + "if done is not None:")
    add(B + "    if done():")
    add(B + "        status = 1")
    add(B + "        break")
    add(B + "    if cycle >= max_cycles:")
    add(B + "        status = 3")
    add(B + "        break")
    add(B + "budget -= 1")
    add(B + "if quiet:")
    add(B + "    fires = 0")
    add(B + "    if san is not None:")
    add(B + "        san.observe_quiet()")
    add(B + "    cycle += 1")
    add(B + "    idle += 1")
    add(B + "    if done is not None and idle >= window:")
    add(B + "        status = 2")
    add(B + "        break")
    add(B + "    continue")

    # -- combinational pass: active occurrences in schedule order ----------
    add(B + "# combinational pass")
    for g, ks in enumerate(occ_groups):
        add(B + f"if ga{g}:")
        add(B + f"    ga{g} = 0")
        for k in ks:
            s = schedule.occ_units[k]
            u = units[s]
            block = eval_blocks[type(u)](
                s, u, in_chs[s], out_chs[s], schedule
            )
            add(B + f"    if a{k}:")
            add(B + f"        a{k} = 0")
            for line in block:
                add(B + "        " + line)

    # -- fire scan ---------------------------------------------------------
    # A group's flag is armed by any write to a member signal; a firing
    # member re-arms it (v and r persist high until something changes).
    add(B + "# fire scan")
    add(B + "fires = 0")
    for g, cs in fire_groups.items():
        add(B + f"if fg{g}:")
        add(B + f"    fg{g} = 0")
        for c in cs:
            add(B + f"    if v{c} and r{c}:")
            add(B + "        fires += 1")
            add(B + f"        fg{g} = 1")
            for s in schedule.tick_mark[c]:
                add(B + f"        t{s} = 1")
            for tg in sorted({tgidx[s] for s in schedule.tick_mark[c]}):
                add(B + f"        tg{tg} = 1")
            add(B + "        if rec is not None:")
            add(B + f"            rec({c}, cycle)")

    # -- sanitizer observes the fixpoint (arrays synced on demand) ---------
    add(B + "if san is not None:")
    _pack(L, [f"V[{c}] = v{c}; R[{c}] = r{c}; D[{c}] = d{c}" for c in live],
          B + "    ", per=2)
    add(B + "    if fires:")
    for c in live:
        add(B + f"        if v{c} and r{c}:")
        add(B + f"            F[{c}] = 1")
    add(B + "    san.observe(cycle, V, R, D, F)")
    add(B + "    if fires:")
    add(B + "        F[:] = ZB")

    add(B + "total_fires += fires")
    add(B + "progress = 1 if fires else kany")
    add(B + "ticked = 0")

    # -- clock edge, pass 1: state transitions on the pristine fixpoint ----
    if tick_slots:
        add(B + "# clock edge: state transitions (pristine fixpoint)")
        for g, ss in enumerate(tick_groups):
            guard = " or ".join(
                [f"tg{g}"] + [f"k{s}" for s in ss if s in carry_slots]
            )
            add(B + f"if {guard}:")
            add(B + f"    tg{g} = 0")
            for s in ss:
                u = units[s]
                tk_gen, _pk_gen = tick_blocks[type(u)]
                member = (f"if t{s} or k{s}:" if s in carry_slots
                          else f"if t{s}:")
                add(B + "    " + member)
                add(B + f"        t{s} = 0")
                add(B + f"        tb{s} = 1")
                add(B + "        ticked = 1")
                add(B + f"        tgb{g} = 1")
                for line in tk_gen(s, u, in_chs[s], out_chs[s], schedule):
                    add(B + "        " + line)

        # -- pass 2: recompute ticked units' signals, refresh carries ------
        add(B + "if ticked:")
        for g, ss in enumerate(tick_groups):
            add(B + f"    if tgb{g}:")
            add(B + f"        tgb{g} = 0")
            for s in ss:
                u = units[s]
                _tk_gen, pk_gen = tick_blocks[type(u)]
                add(B + f"        if tb{s}:")
                add(B + f"            tb{s} = 0")
                for line in pk_gen(s, u, in_chs[s], out_chs[s], schedule):
                    add(B + "            " + line)
        if carry_slots:
            add(B + "    kany = "
                + " or ".join([f"k{s}" for s in carry_slots] + ["0"]))

    add(B + "quiet = 0 if (fires or ticked) else 1")
    add(B + "idle = 0 if progress else idle + 1")
    add(B + "cycle += 1")
    add(B + "if done is not None and idle >= window:")
    add(B + "    status = 2")
    add(B + "    break")
    if lanes:
        # Divergence aborts the current cycle mid-comb-pass; the loop
        # locals (synced below) are a valid promotion point because the
        # combinational pass never mutates unit state and the batched
        # engine re-arms every activation flag before the mask loop.
        add(P + "except LaneDivergence as _e:")
        add(P + "    rt._divergence = _e")
        add(P + "    status = 4")

    # -- epilogue: publish locals back to the engine -----------------------
    _pack(L, [f"V[{c}] = v{c}; R[{c}] = r{c}; D[{c}] = d{c}" for c in live],
          P, per=2)
    _pack(L, [f"A[{k}] = a{k}" for k in range(n_occ)], P)
    _pack(L, [f"KF[{s}] = k{s}" for s in carry_slots], P)
    add(P + "rt.cycle = cycle")
    add(P + "rt._idle_cycles = idle")
    add(P + "rt.total_fires = total_fires")
    add(P + "rt._quiet = quiet")
    add(P + "return status, fires")
    add("")
    add("    return loop")
    add("")

    if lanes:
        _emit_mask_loop(
            L, schedule, units, live, n_occ, needs_mem, occ_groups,
            fire_groups, tick_groups, tgidx, tick_slots, carry_slots,
        )
    return "\n".join(L)


def _emit_mask_loop(L, schedule, units, live, n_occ, needs_mem, occ_groups,
                    fire_groups, tick_groups, tgidx, tick_slots,
                    carry_slots) -> None:
    """Append ``make_mask_loop(rt)`` to a laned module's source.

    The mask loop is the MIMD continuation the batched engine promotes to
    after the first :class:`LaneDivergence`: every 1-bit control signal
    becomes a per-lane bitmask integer (``rt._mv``/``rt._mr``), data
    locals stay lane tuples, per-unit sequential state lives in per-slot
    dicts (``rt._mstate``, seeded by
    :func:`repro.sim.codegen_blocks.mask_state`), and each lane has its
    own done/cycle-freeze bit in the ``live`` mask — finished lanes coast
    with frozen state while the rest keep executing independently.

    ``mloop(budget, done_lane, max_cycles, window)`` returns the same
    status codes as the lockstep loop (0 budget, 1 all lanes done,
    2 deadlock, 3 max_cycles); per-lane completion cycles land in
    ``rt.lane_cycles`` and per-lane fire counts in ``rt._lane_fires``.
    ``done_lane`` is only consulted for lanes with **retirement
    activity** since their previous check: a fire on a channel feeding a
    ``Sink`` or ``StorePort``.  Done predicates observe progress through
    sink receptions and memory writes (both monotone and driven by
    exactly those fires), so a lane with no sink/store fire cannot have
    newly finished; gating the checks this way keeps the per-cycle
    predicate calls proportional to completions instead of to fires.

    Per-lane fire counts use carry-save vertical counters: each fired
    channel's lane mask is added into bit-plane accumulators (``VP``,
    a handful of big-int XOR/ANDs), and the planes are materialized
    into ``rt._lane_fires`` in the epilogue — O(lanes) once per
    ``mloop`` call instead of per fired channel per cycle.
    """
    in_chs, out_chs = schedule.in_chs, schedule.out_chs
    retire_chs = set()
    for s, u in enumerate(units):
        if isinstance(u, (Sink, StorePort)):
            retire_chs.update(in_chs[s])
    add = L.append
    add("")
    add("def make_mask_loop(rt):")
    add("    U = rt._units")
    add("    MV = rt._mv")
    add("    MR = rt._mr")
    add("    D = rt.data")
    add("    A = rt._aflags")
    add("    MS = rt._mstate")
    add("    LB = rt.lanes")
    add("    FULL = (1 << LB) - 1")
    add("    ztup = (None,) * LB")
    add("    LC = rt.lane_cycles")
    add("    LF = rt._lane_fires")
    if needs_mem:
        add("    mrd = rt._mrd")
        add("    mwr = rt._mwr")
    mbinds: List[str] = []
    for s, u in enumerate(units):
        if isinstance(u, FunctionalUnit):
            mbinds.append(f"cp{s} = U[{s}]._compute")
            for slot in sorted(u.const_ops):
                mbinds.append(f"uc{s}_{slot} = U[{s}].const_ops[{slot}]")
        if isinstance(u, (Entry, Constant)):
            mbinds.append(f"uv{s} = (U[{s}].value,) * LB")
        if isinstance(u, Sequence):
            mbinds.append(f"uvq{s} = U[{s}].values")
        if isinstance(u, (ArbiterMerge, FixedOrderMerge)):
            mbinds.append(
                f"lsel{s} = tuple((_i,) * LB for _i in range({u.n_in}))"
            )
        if isinstance(u, FixedOrderMerge):
            mbinds.append(f"uord{s} = tuple(U[{s}].order)")
    _pack(L, mbinds, "    ", per=4)
    add("")
    add("    def mloop(budget, done_lane, max_cycles, window):")
    P = "        "
    B = P + "    "

    # -- prologue ----------------------------------------------------------
    _pack(L, [f"v{c} = MV[{c}]; r{c} = MR[{c}]; d{c} = D[{c}]"
              for c in live], P, per=2)
    _pack(L, [f"a{k} = A[{k}]" for k in range(n_occ)], P)
    _pack(L, [f"ga{g} = " + " or ".join(f"a{k}" for k in ks) + " or 0"
              for g, ks in enumerate(occ_groups)], P, per=2)
    _pack(L, [f"fg{g} = 1" for g in fire_groups], P)
    sbinds: List[str] = []
    for s, u in enumerate(units):
        for nm in mask_int_names(u) + mask_obj_names(u):
            sbinds.append(f"{mask_local(nm, s)} = MS[{s}][{nm!r}]")
    _pack(L, sbinds, P, per=4)
    _pack(L, [f"t{s} = 0; tb{s} = 0" for s in tick_slots], P, per=4)
    _pack(L, [f"tg{g} = 0; tgb{g} = 0" for g in range(len(tick_groups))],
          P, per=4)
    if carry_slots:
        add(P + "kany = " + " | ".join(f"kc{s}" for s in carry_slots))
    else:
        add(P + "kany = 0")
    add(P + "VP = [0, 0, 0, 0, 0, 0, 0, 0]")
    add(P + "live = rt._live")
    add(P + "fa = rt._fa")
    add(P + "quiet = rt._quiet")
    add(P + "cycle = rt.cycle")
    add(P + "idle = rt._idle_cycles")
    add(P + "total_fires = rt.total_fires")
    add(P + "status = 0")
    add(P + "fires = 0")
    add(P + "while budget > 0:")

    # -- per-lane retirement (fire-activity gated) -------------------------
    add(B + "if fa:")
    add(B + "    _m = fa & live")
    add(B + "    fa = 0")
    add(B + "    while _m:")
    add(B + "        _b = _m & -_m")
    add(B + "        _m &= _m - 1")
    add(B + "        _i = _b.bit_length() - 1")
    add(B + "        if done_lane(_i):")
    add(B + "            live &= ~_b")
    add(B + "            LC[_i] = cycle")
    add(B + "    if not live:")
    add(B + "        status = 1")
    add(B + "        break")
    add(B + "if cycle >= max_cycles:")
    add(B + "    status = 3")
    add(B + "    break")
    add(B + "budget -= 1")
    add(B + "if quiet:")
    add(B + "    fires = 0")
    add(B + "    cycle += 1")
    add(B + "    idle += 1")
    add(B + "    if idle >= window:")
    add(B + "        status = 2")
    add(B + "        break")
    add(B + "    continue")

    # -- combinational pass (mask blocks, same group structure) ------------
    add(B + "# combinational pass (mask mode)")
    for g, ks in enumerate(occ_groups):
        add(B + f"if ga{g}:")
        add(B + f"    ga{g} = 0")
        for k in ks:
            s = schedule.occ_units[k]
            u = units[s]
            block = MASK_EVAL_BLOCKS[type(u)](
                s, u, in_chs[s], out_chs[s], schedule
            )
            add(B + f"    if a{k}:")
            add(B + f"        a{k} = 0")
            for line in block:
                add(B + "        " + line)

    # -- fire scan: a channel fires in lanes where v & r & live ------------
    add(B + "# fire scan (per-lane masks)")
    add(B + "fires = 0")
    for g, cs in fire_groups.items():
        add(B + f"if fg{g}:")
        add(B + f"    fg{g} = 0")
        for c in cs:
            add(B + f"    _f = v{c} & r{c} & live")
            add(B + "    if _f:")
            add(B + "        fires += 1")
            add(B + f"        fg{g} = 1")
            if c in retire_chs:
                add(B + "        fa |= _f")
            add(B + "        total_fires += _f.bit_count()")
            add(B + "        _c = _f")
            add(B + "        _p = 0")
            add(B + "        while _c:")
            add(B + "            if _p == len(VP):")
            add(B + "                VP.append(0)")
            add(B + "            _x = VP[_p]")
            add(B + "            VP[_p] = _x ^ _c")
            add(B + "            _c &= _x")
            add(B + "            _p += 1")
            for s in schedule.tick_mark[c]:
                add(B + f"        t{s} = 1")
            for tg in sorted({tgidx[s] for s in schedule.tick_mark[c]}):
                add(B + f"        tg{tg} = 1")

    add(B + "progress = 1 if fires else (kany & live)")
    add(B + "ticked = 0")

    # -- clock edge, pass 1: masked state transitions ----------------------
    if tick_slots:
        add(B + "# clock edge: masked state transitions")
        for g, ss in enumerate(tick_groups):
            guard = " or ".join(
                [f"tg{g}"] + [f"(kc{s} & live)" for s in ss
                              if s in carry_slots]
            )
            add(B + f"if {guard}:")
            add(B + f"    tg{g} = 0")
            for s in ss:
                u = units[s]
                tk_gen = MASK_TICK_BLOCKS[type(u)][0]
                tk = tk_gen(s, u, in_chs[s], out_chs[s], schedule)
                member = (f"if t{s} or (kc{s} & live):"
                          if s in carry_slots else f"if t{s}:")
                add(B + "    " + member)
                add(B + f"        t{s} = 0")
                add(B + f"        tb{s} = 1")
                add(B + "        ticked = 1")
                add(B + f"        tgb{g} = 1")
                for line in tk:
                    add(B + "        " + line)

        # -- pass 2: recompute ticked units' signals -----------------------
        add(B + "if ticked:")
        for g, ss in enumerate(tick_groups):
            add(B + f"    if tgb{g}:")
            add(B + f"        tgb{g} = 0")
            for s in ss:
                u = units[s]
                pk_gen = MASK_TICK_BLOCKS[type(u)][1]
                pk = pk_gen(s, u, in_chs[s], out_chs[s], schedule)
                add(B + f"        if tb{s}:")
                add(B + f"            tb{s} = 0")
                for line in pk:
                    add(B + "            " + line)
        if carry_slots:
            add(B + "    kany = "
                + " | ".join(f"kc{s}" for s in carry_slots))

    add(B + "quiet = 0 if (fires or ticked) else 1")
    add(B + "idle = 0 if progress else idle + 1")
    add(B + "cycle += 1")
    add(B + "if idle >= window:")
    add(B + "    status = 2")
    add(B + "    break")

    # -- epilogue ----------------------------------------------------------
    add(P + "for _p in range(len(VP)):")
    add(P + "    _x = VP[_p]")
    add(P + "    while _x:")
    add(P + "        _b = _x & -_x")
    add(P + "        _x &= _x - 1")
    add(P + "        LF[_b.bit_length() - 1] += 1 << _p")
    _pack(L, [f"MV[{c}] = v{c}; MR[{c}] = r{c}; D[{c}] = d{c}"
              for c in live], P, per=2)
    _pack(L, [f"A[{k}] = a{k}" for k in range(n_occ)], P)
    wbacks: List[str] = []
    for s, u in enumerate(units):
        for nm in mask_int_names(u):
            wbacks.append(f"MS[{s}][{nm!r}] = {mask_local(nm, s)}")
    _pack(L, wbacks, P, per=4)
    add(P + "rt.cycle = cycle")
    add(P + "rt._idle_cycles = idle")
    add(P + "rt.total_fires = total_fires")
    add(P + "rt._quiet = quiet")
    add(P + "rt._live = live")
    add(P + "rt._fa = fa")
    add(P + "rt.done_mask = FULL & ~live")
    add(P + "return status, fires")
    add("")
    add("    return mloop")
    add("")


# ---------------------------------------------------------------------------
# Module cache: in-process namespace memo + content-addressed disk cache.
# ---------------------------------------------------------------------------

#: Load origins observed this process, for cache tests and CI assertions.
CODEGEN_STATS = {"generated": 0, "disk": 0, "memory": 0}

_MODULE_CACHE: "OrderedDict[str, dict]" = OrderedDict()
_MODULE_CACHE_MAX = 64


def source_key(source: str) -> str:
    """Content address of one generated module.

    Covers the generated source itself, the repro source salt (any edit
    to a repro module — including this generator — changes it) and the
    interpreter's bytecode magic, so a cached module can never be served
    stale across code or interpreter changes.
    """
    from ..sweep.cache import code_salt

    h = hashlib.sha256()
    h.update(code_salt().encode())
    h.update(importlib.util.MAGIC_NUMBER)
    h.update(b"\0")
    h.update(source.encode())
    return h.hexdigest()


def _atomic_write(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_module(source: str, key: Optional[str] = None) -> Tuple[dict, str]:
    """Return ``(namespace, origin)`` for ``source``.

    ``origin`` is ``"memory"`` (in-process memo), ``"disk"`` (marshalled
    bytecode loaded from the cache directory) or ``"generated"``
    (compiled now; the source and bytecode are published to disk).
    """
    if key is None:
        key = source_key(source)
    ns = _MODULE_CACHE.get(key)
    if ns is not None:
        _MODULE_CACHE.move_to_end(key)
        CODEGEN_STATS["memory"] += 1
        return ns, "memory"

    cdir = codegen_cache_dir() / key[:2]
    py_path = cdir / f"{key}.py"
    pyc_path = cdir / f"{key}.pyc"

    code = None
    origin = "disk"
    try:
        blob = pyc_path.read_bytes()
        if blob[: len(_PYC_HEADER)] == _PYC_HEADER:
            code = marshal.loads(blob[len(_PYC_HEADER):])
    except (OSError, ValueError, EOFError, TypeError):
        code = None
    if code is None:
        origin = "generated"
        code = compile(source, str(py_path), "exec")
        try:
            cdir.mkdir(parents=True, exist_ok=True)
            _atomic_write(py_path, source.encode())
            _atomic_write(pyc_path, _PYC_HEADER + marshal.dumps(code))
        except OSError:
            pass  # cache is an optimization; never fail the simulation

    ns = {"CircuitError": CircuitError, "LaneDivergence": LaneDivergence}
    exec(code, ns)
    _MODULE_CACHE[key] = ns
    while len(_MODULE_CACHE) > _MODULE_CACHE_MAX:
        _MODULE_CACHE.popitem(last=False)
    CODEGEN_STATS[origin] += 1
    return ns, origin


def bind_loop_state(rt, circuit: DataflowCircuit, lanes: bool = False) -> dict:
    """The set-up :class:`CodegenEngine` and the laned
    :class:`~repro.sim.batched.BatchedEngine` share: bind on ``rt`` the
    schedule, units, signal arrays and activation flags ``make_loop(rt)``
    reads, load the module and record its ``codegen_key`` and
    ``codegen_origin`` (``"generated"``/``"disk"``/``"memory"``).
    Returns the module namespace; the caller resets its units."""
    schedule = compile_schedule(circuit)
    rt.schedule = schedule
    rt._units = [circuit.units[n] for n in schedule.names]
    rt._slot_of = {n: i for i, n in enumerate(schedule.names)}
    nch = schedule.nch
    rt.valid = bytearray(nch)
    rt.ready = bytearray(nch)
    rt.fired = bytearray(nch)
    rt.data = [None] * nch
    rt._zeros = bytes(nch)
    rt._aflags = bytearray(b"\x01" * schedule.n_occ)
    rt._kflags = bytearray(schedule.n_units)
    rt._quiet = False
    source = generate_source(circuit, schedule, lanes=lanes)
    rt.codegen_key = source_key(source)
    ns, rt.codegen_origin = load_module(source, key=rt.codegen_key)
    return ns


def run_generated(rt, loop, done, max_cycles: int, *extra) -> int:
    """Call a generated ``loop`` of ``rt`` until it stops; return why.

    ``1``: ``done`` held; ``2``: deadlock window exceeded; ``3``:
    ``max_cycles`` reached; ``4``: lanes diverged (laned lockstep loop).
    Status ``0`` only means the cycle budget ran out (possible when the
    run started beyond ``max_cycles``), and the loop is called again.
    """
    status = 0
    while status == 0:
        budget = max(max_cycles - rt.cycle, 0) + 1
        status, _ = loop(budget, done, max_cycles, rt.deadlock_window, *extra)
    return status


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


class CodegenEngine(BaseEngine):
    """Specialized-source simulator; bit-identical to both other backends."""

    backend = "codegen"

    def __init__(
        self,
        circuit: DataflowCircuit,
        memory: Optional[Memory] = None,
        trace: Optional[Trace] = None,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
        profile: Optional[SimProfile] = None,
        sanitize: Union[bool, "HandshakeSanitizer", None] = None,
    ):
        if profile is not None:
            raise SimulationError(
                "the codegen backend cannot drive a SimProfile: the "
                "generated hot loop has no per-unit instrumentation "
                "points; use --sim-backend compiled (or event) to profile"
            )
        self._init_common(
            circuit, memory, trace, deadlock_window, None, sanitize
        )
        ns = bind_loop_state(self, circuit)
        self._reset_units(self._units)
        self._loop = ns["make_loop"](self)

    # ------------------------------------------------------------------ step
    def step(self) -> int:
        """Simulate one clock cycle; return the number of channel fires."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        _status, fires = self._loop(
            1, None, 0, self.deadlock_window, self.sanitizer, rec
        )
        return fires

    def run_cycles(self, n: int) -> int:
        """Advance exactly ``n`` cycles (no deadlock abort); return fires."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        before = self.total_fires
        self._loop(n, None, 0, self.deadlock_window, self.sanitizer, rec)
        return self.total_fires - before

    # ------------------------------------------------------------------- run
    def run(self, done, max_cycles: int = 1_000_000) -> int:
        """Run until ``done()`` holds; same contract as BaseEngine.run."""
        trace = self.trace
        rec = trace.record if trace is not None and trace.active else None
        status = run_generated(self, self._loop, done, max_cycles,
                               self.sanitizer, rec)
        raise_stopped(self, status, max_cycles)
        return self._finish_run()
