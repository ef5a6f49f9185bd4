"""Specializing codegen simulation backend (the default).

The levelized occurrence schedule (:mod:`repro.sim.signal_graph`)
minimizes how *often* each unit is evaluated; interpreting it would
still pay a closure call per active occurrence and an indexed container
operation per signal access.  This backend removes that floor the way
RTL simulators do: it **emits specialized Python source for the whole
circuit** from the schedule, in which

* every channel's valid/ready/data signal is one variable
  (``v17``/``r17``/``d17``), not an array slot,
* every occurrence of every unit is an inlined straight-line block behind
  an ``if a{k}:`` activation flag (no closure calls, no dict dispatch on
  the hot path),
* activation propagation is *static*: a change-detected signal write
  stores ``1`` into the precomputed dependent flags directly
  (``fg2 = ga1 = a12 = 1``), because the activation lists are
  compile-time constants,
* the fire scan, trace recording, tick passes and deadlock accounting
  are unrolled over the precomputed channel/unit lists.

**Pieces.**  CPython's ``compile()`` memory grows with the tokens of one
call (3mm's 31k-line module, compiled whole, peaked at 81 MB), so the
source is an ordered list of *pieces*, each compiled on its own and none
larger than :data:`PIECE_BUDGET` characters.  A piece is a run of whole
groups of one section of the cycle loop — the prologue loads, the
combinational pass, the fire scan, the signal and flag stores (epilogue
and sanitizer sync), the two clock-edge passes — written as a generator
``while 1: <body>; yield`` inside a factory whose parameters name the
signals and flags the piece uses; ``nonlocal`` declares the ones it
assigns.  :func:`link_loop` rebinds every piece of an engine to one set
of :class:`types.CellType` cells, creates each generator once and binds
its ``__next__`` in the engine's globals, where the small main piece
``loop(budget, done, max_cycles, window, san, rec)`` calls them in
schedule order.  Generators, not plain closures: a function with free
variables copies all of them into a new frame on every call, a resumed
generator does not.  Read-only bindings (units, compute functions,
operand constants, memory methods, the signal arrays) are globals.

One ``loop`` call simulates up to ``budget`` cycles and syncs the
engine's signal arrays on exit, returning ``(status, last_fires)`` with
status ``0`` = budget exhausted, ``1`` = ``done()`` satisfied, ``2`` =
deadlock window exceeded, ``3`` = ``max_cycles`` reached.  The loop
reaches its engine through a weak reference, so nothing it holds refers
back to the engine and a finished engine is freed at once.  The per-unit
blocks are exact source transcriptions of the units' ``eval_comb`` and
``tick`` (:mod:`repro.sim.codegen_blocks`), and the backend is
differentially tested bit-for-bit against the event oracle.

Generated modules are cached at two levels: a memo of the last few
modules' piece code objects in process, and a content-addressed disk
cache under ``~/.cache/repro-codegen/`` (override with
``$REPRO_CODEGEN_CACHE``) storing the concatenated source next to one
marshalled tuple of piece code objects.  Keys are a SHA-256 over the
generated source *plus* a hash of this module, the interpreter's
bytecode magic and the payload header, so editing this generator or
switching Python versions can never serve stale code, while an edit
elsewhere that changes no generated text keeps the cache warm.

A :class:`~repro.sim.profile.SimProfile` selects the *profiled* source
variant: every occurrence block counts its unit's evaluation, every
clock-edge pass-1 block its unit's tick, and the main piece times the
combinational, fire-scan and tick phases and counts cycles and fires,
flushing them into the profile when ``loop`` returns.  Its header names
the variant, so its cache key differs from the unprofiled module's.
Circuits with non-catalogue units are refused; the event backend
simulates them.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import importlib.util
import inspect
import marshal
import os
import tempfile
import weakref
from collections import OrderedDict
from pathlib import Path
from time import perf_counter
from types import CellType, CodeType, FunctionType
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence as Seq,
    Tuple,
    Union,
)

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
_PYC_HEADER = b"RCG2"

#: Largest piece of generated source, in characters, one ``compile()``
#: call sees.  Pieces are runs of whole groups, so only a single group
#: larger than this (none in the kernel suite) makes a larger piece; the
#: laned module's mask loop is one piece of its own, whatever its size.
PIECE_BUDGET = 32_000

#: Fixed characters of a piece around its body and names (factory and
#: generator headers, ``nonlocal``, ``while 1:``, ``yield``, ``return``).
_FRAME = 128

#: Body indentation of a piece: factory, generator, ``while`` loop.
_B = " " * 12


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


def _text(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def _tuple(items: List[str]) -> str:
    """Items as a tuple display (a bare list, a trailing comma for one)."""
    return ", ".join(items) + ("," if len(items) == 1 else "")


class _Section:
    """One section of the cycle loop, packed into generator pieces.

    :meth:`add` takes a *chunk* — whole lines of loop body at piece
    indentation, one group's worth — with the cell names it uses and the
    ones it assigns.  A piece closes before a chunk that would take it
    past :data:`PIECE_BUDGET` characters.  Each piece is joined into its
    text as soon as it closes and appended to ``out``; ``calls`` names
    the section's pieces in order.
    """

    def __init__(self, out: List[str]):
        self.out = out
        self.calls: List[str] = []
        self._open()

    def _open(self) -> None:
        self.chunks: List[str] = []
        self.names: Dict[str, None] = {}
        self.assigned: Dict[str, None] = {}
        self.size = _FRAME

    def add(self, text: str, uses: Seq[str], assigns: Seq[str] = ()) -> None:
        names, assigned = self.names, self.assigned
        new = {n: None for n in (*assigns, *uses) if n not in names}
        new_assigned = {n: None for n in assigns if n not in assigned}
        # Each name costs its length plus ", " in the factory's
        # parameters, and again in ``nonlocal`` if the piece assigns it.
        grow = (len(text) + sum(map(len, new)) + 2 * len(new)
                + sum(map(len, new_assigned)) + 2 * len(new_assigned))
        if self.chunks and self.size + grow > PIECE_BUDGET:
            self.close()
            self.add(text, uses, assigns)
            return
        self.chunks.append(text)
        names.update(new)
        assigned.update(new_assigned)
        self.size += grow

    def close(self) -> List[str]:
        """Finish the open piece; return the section's piece names."""
        if self.chunks:
            name = f"P{len(self.out)}"
            head = [f"def _{name}({', '.join(self.names)}):",
                    f"    def {name}():"]
            if self.assigned:
                head.append("        nonlocal " + ", ".join(self.assigned))
            head.append("        while 1:")
            self.out.append(
                _text(head) + "".join(self.chunks)
                + f"{_B}yield\n    return {name}\n\n"
            )
            self.calls.append(name)
            self._open()
        return self.calls


def _calls(lines: List[str], names: List[str], indent: str) -> None:
    """Append calls of the pieces ``names`` (their bound ``__next__``)."""
    _pack(lines, [f"{n}()" for n in names], indent)


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


def generate_pieces(circuit: DataflowCircuit,
                    schedule: CircuitSchedule,
                    lanes: bool = False,
                    profiled: bool = False) -> List[str]:
    """Emit the specialized simulation module for ``circuit`` as pieces.

    Returns the piece texts in module order: the main ``loop`` piece
    first, then the generator pieces ``P0``, ``P1``, ... section by
    section, and for the laned variant ``make_mask_loop`` last.  Each
    text is one ``compile()`` unit.

    Deterministic: the same circuit structure and code-shaping parameters
    always produce byte-identical source, which is what the disk cache
    keys on.  Runtime-only parameters (token values, operand constants,
    compute functions, memory) are bound by :func:`link_loop`.

    ``lanes=True`` emits the *laned* variant used by the batched engines
    (:mod:`repro.sim.batched`): same loop skeleton and scalar control
    signals, data variables widened to per-lane tuples, load/store
    dispatch through per-lane memory method lists, and ``LaneDivergence``
    raised where per-lane values disagree on a control decision.  The
    laned lockstep loop catches that divergence itself (exit status 4)
    and the module additionally defines ``make_mask_loop(rt)`` — the
    mask-lane (MIMD) continuation the batched engine promotes to, where
    control bits are per-lane bitmask integers and lanes execute
    independently.  The lane count itself is a runtime binding (``LB``),
    so one laned module serves every batch width — but laned and scalar
    source always differ (distinct disk-cache keys).

    ``profiled=True`` emits the scalar loop instrumented for a
    :class:`~repro.sim.profile.SimProfile`: ``EC[s] += 1`` in every
    occurrence block and ``TC[s] += 1`` in every pass-1 tick block (the
    profile's count lists, bound by :func:`link_loop`), and phase timers
    and cycle/fire counters in the main piece, flushed into
    ``rt.profile`` on exit.  Unprofiled source is unchanged by it.
    """
    units = [circuit.units[n] for n in schedule.names]
    bad = unsupported_units(units, schedule)
    if bad:
        raise SimulationError(
            "the codegen backend cannot specialize this circuit:\n  "
            + "\n  ".join(bad)
            + "\nuse --sim-backend event for it"
        )
    eval_blocks = LANE_EVAL_BLOCKS if lanes else EVAL_BLOCKS
    tick_blocks = LANE_TICK_BLOCKS if lanes else TICK_BLOCKS

    n_units = len(units)
    in_chs, out_chs = schedule.in_chs, schedule.out_chs
    live = sorted(
        {c for cs in in_chs for c in cs} | {c for cs in out_chs for c in cs}
    )
    live_set = set(live)
    nch, n_occ = schedule.nch, schedule.n_occ
    tick_slots = [s for s in range(n_units) if schedule.tickable[s]]
    carry_slots = [s for s in tick_slots if isinstance(units[s], CARRY_TYPES)]
    carry = set(carry_slots)

    # Groups: ga{g} covers GROUP consecutive occurrences, fg{g} GROUP
    # consecutive channels, tg{g}/tgb{g} GROUP consecutive tickable units.
    occ_groups = [
        list(range(g * GROUP, min((g + 1) * GROUP, n_occ)))
        for g in range((n_occ + GROUP - 1) // GROUP)
    ]
    chan_groups: "OrderedDict[int, List[int]]" = OrderedDict()
    for c in live:
        chan_groups.setdefault(c // GROUP, []).append(c)
    tick_groups = [tick_slots[i:i + GROUP]
                   for i in range(0, len(tick_slots), GROUP)]
    tgidx = {s: g for g, ss in enumerate(tick_groups) for s in ss}

    def span(g: int, n: int) -> Tuple[int, int]:
        return g * GROUP, min((g + 1) * GROUP, n)

    # Per channel: its three signals, and what a block writing its
    # forward (backward) signal assigns: the signal, its fire-scan group
    # flag and the activation flags the write arms (``_arm``).
    sig: Dict[int, List[str]] = {}
    fwd: Dict[int, List[str]] = {}
    bwd: Dict[int, List[str]] = {}
    for c in live:
        sig[c] = [f"v{c}", f"r{c}", f"d{c}"]
        for names, head, acts in ((fwd, [f"v{c}", f"d{c}"], schedule.f_act),
                                  (bwd, [f"r{c}"], schedule.b_act)):
            names[c] = head + [f"fg{c // GROUP}"]
            names[c] += [f"ga{g}" for g in sorted({k // GROUP
                                                   for k in acts[c]})]
            names[c] += [f"a{k}" for k in acts[c]]

    def signals(s: int) -> List[str]:
        """Signals of unit ``s``'s channels (its blocks read them)."""
        return [n for c in in_chs[s] + out_chs[s] for n in sig[c]]

    def drives(s: int) -> List[str]:
        """What unit ``s``'s combinational block may assign: its outputs'
        valid/data, its inputs' ready, and the flags those writes arm."""
        return ([n for c in out_chs[s] for n in fwd[c]]
                + [n for c in in_chs[s] for n in bwd[c]])

    kany_uses = ["kany"] + [f"k{s}" for s in carry_slots]
    kany = _text([_B + "kany = " + " or ".join(kany_uses[1:] + ["0"])])
    out: List[str] = []

    # -- prologue: load the engine's arrays into the cells ----------------
    sec = _Section(out)
    for g, cs in chan_groups.items():
        lo, hi = span(g, nch)
        lines = [
            _B + _tuple([f"{p}{c}" if c in live_set else "_"
                         for c in range(lo, hi)]) + f" = {arr}[{lo}:{hi}]"
            for p, arr in (("v", "V"), ("r", "R"), ("d", "D"))
        ]
        lines.append(f"{_B}fg{g} = 1")  # conservatively armed on entry
        names = [f"{p}{c}" for c in cs for p in "vrd"] + [f"fg{g}"]
        sec.add(_text(lines), names, names)
    for g, ks in enumerate(occ_groups):
        lo, hi = span(g, n_occ)
        names = [f"a{k}" for k in ks]
        sec.add(_text([f"{_B}{_tuple(names)} = A[{lo}:{hi}]",
                       f"{_B}ga{g} = any(A[{lo}:{hi}])"]),
                names + [f"ga{g}"], names + [f"ga{g}"])
    for g, ss in enumerate(tick_groups):
        names = [n for s in ss for n in (f"t{s}", f"tb{s}")]
        names += [f"tg{g}", f"tgb{g}"]
        lines = [_B + " = ".join(names) + " = 0"]
        for s in ss:
            if s in carry:
                lines.append(f"{_B}k{s} = KF[{s}]")
                names.append(f"k{s}")
        sec.add(_text(lines), names, names)
    sec.add(kany, kany_uses, ["kany"])
    loads = sec.close()

    # -- combinational pass: active occurrences in schedule order ----------
    sec = _Section(out)
    for g, ks in enumerate(occ_groups):
        lines = [f"{_B}if ga{g}:", f"{_B}    ga{g} = 0"]
        uses: List[str] = []
        assigns = [f"ga{g}"]
        for k in ks:
            s = schedule.occ_units[k]
            u = units[s]
            lines += [f"{_B}    if a{k}:", f"{_B}        a{k} = 0"]
            if profiled:
                lines.append(f"{_B}        EC[{s}] += 1")
            lines += [f"{_B}        {x}" for x in eval_blocks[type(u)](
                s, u, in_chs[s], out_chs[s], schedule)]
            uses += signals(s)
            assigns.append(f"a{k}")
            assigns += drives(s)
        sec.add(_text(lines), uses, assigns)
    comb = sec.close()

    # -- fire scan ---------------------------------------------------------
    # A group's flag is armed by any write to a member signal; a firing
    # member re-arms it (v and r persist high until something changes).
    sec = _Section(out)
    for g, cs in chan_groups.items():
        lines = [f"{_B}if fg{g}:", f"{_B}    fg{g} = 0"]
        uses = ["_rec", "cycle"]
        assigns = [f"fg{g}", "fires"]
        for c in cs:
            marks = schedule.tick_mark[c]
            arm = [f"fg{g}"] + [f"t{s}" for s in marks]
            arm += [f"tg{t}" for t in sorted({tgidx[s] for s in marks})]
            lines += [f"{_B}    if v{c} and r{c}:",
                      f"{_B}        fires += 1",
                      f"{_B}        {' = '.join(arm)} = 1",
                      f"{_B}        if _rec is not None:",
                      f"{_B}            _rec({c}, cycle)"]
            uses += [f"v{c}", f"r{c}"]
            assigns += arm
        sec.add(_text(lines), uses, assigns)
    fire = sec.close()

    # -- stores: publish the cells to the engine's arrays ------------------
    # The signal stores run in the epilogue and, before the sanitizer
    # observes a cycle's fixpoint, in the loop.
    sec = _Section(out)
    for g, cs in chan_groups.items():
        lo, hi = span(g, nch)
        lines = [
            f"{_B}{arr}[{lo}:{hi}] = " + _tuple(
                [f"{p}{c}" if c in live_set else f"{arr}[{c}]"
                 for c in range(lo, hi)])
            for p, arr in (("v", "V"), ("r", "R"), ("d", "D"))
        ]
        sec.add(_text(lines), [f"{p}{c}" for c in cs for p in "vrd"])
    publish = sec.close()
    sec = _Section(out)
    for g, ks in enumerate(occ_groups):
        lo, hi = span(g, n_occ)
        names = [f"a{k}" for k in ks]
        sec.add(_text([f"{_B}A[{lo}:{hi}] = {_tuple(names)}"]), names)
    for ss in tick_groups:
        ks = [s for s in ss if s in carry]
        if ks:
            sec.add(_text([f"{_B}KF[{s}] = k{s}" for s in ks]),
                    [f"k{s}" for s in ks])
    flags = sec.close()

    # -- clock edge, pass 1: state transitions on the pristine fixpoint ----
    # Tick-group flags: tg{g} is armed by the fire scan when any member's
    # t flag is set (member carries are ORed into the guard directly, so
    # they need no arming); tgb{g} gates the pass-2 group.
    sec = _Section(out)
    for g, ss in enumerate(tick_groups):
        guard = " or ".join([f"tg{g}"] + [f"k{s}" for s in ss if s in carry])
        lines = [f"{_B}if {guard}:", f"{_B}    tg{g} = 0"]
        uses = []
        assigns = [f"tg{g}", "ticked", f"tgb{g}"]
        for s in ss:
            u = units[s]
            member = f"if t{s} or k{s}:" if s in carry else f"if t{s}:"
            lines += [f"{_B}    {member}", f"{_B}        t{s} = 0",
                      f"{_B}        tb{s} = ticked = tgb{g} = 1"]
            if profiled:
                lines.append(f"{_B}        TC[{s}] += 1")
            lines += [f"{_B}        {x}" for x in tick_blocks[type(u)][0](
                s, u, in_chs[s], out_chs[s], schedule)]
            uses += signals(s)
            assigns += [f"t{s}", f"tb{s}"]
            if s in carry:
                uses.append(f"k{s}")
                assigns.append(f"adv{s}")
        sec.add(_text(lines), uses, assigns)
    tick = sec.close()

    # -- pass 2: recompute ticked units' signals, refresh carries ----------
    sec = _Section(out)
    for g, ss in enumerate(tick_groups):
        lines = [f"{_B}if tgb{g}:", f"{_B}    tgb{g} = 0"]
        uses = []
        assigns = [f"tgb{g}"]
        for s in ss:
            u = units[s]
            lines += [f"{_B}    if tb{s}:", f"{_B}        tb{s} = 0"]
            lines += [f"{_B}        {x}" for x in tick_blocks[type(u)][1](
                s, u, in_chs[s], out_chs[s], schedule)]
            uses += signals(s)
            assigns += [f"tb{s}"] + drives(s)
            if s in carry:
                uses.append(f"adv{s}")
                assigns.append(f"k{s}")
        sec.add(_text(lines), uses, assigns)
    if carry_slots:
        sec.add(kany, kany_uses, ["kany"])
    post = sec.close()

    # -- the main piece: prologue, cycle loop, epilogue --------------------
    variant = "laned" if lanes else "profiled" if profiled else "scalar"

    def prof(*lines: str) -> List[str]:
        """``lines`` in the profiled variant, nothing in the others."""
        return list(lines) if profiled else []

    P = " " * 8  # prologue indent
    # The laned loop wraps its cycle loop in try/except LaneDivergence
    # (exit status 4: the batched engine promotes to the mask loop), so
    # its body sits one level deeper; scalar source is unchanged.
    W = P + ("    " if lanes else "")  # while-statement indent
    B = W + "    "  # cycle-body indent
    L = [
        f"# Generated by repro.sim.codegen ({variant}) -- "
        "do not edit by hand.",
        f"# {n_units} units, "
        f"{len(live)} channels, {n_occ} occurrences, "
        f"{len(tick_slots)} tickable; {len(out) + 1} pieces",
        "",
        "def _loop(cycle, fires, kany, ticked, _rec):",
        "    def loop(budget, done, max_cycles, window, san, rec):",
        P + "nonlocal cycle, fires, kany, ticked, _rec",
        P + "rt = W()",
        P + "_rec = rec",
    ]
    _calls(L, loads, P)
    L += [
        P + "cycle = rt.cycle",
        P + "idle = rt._idle_cycles",
        P + "total_fires = rt.total_fires",
        P + "status = 0",
        P + "fires = 0",
        *prof(P + "_c0, _f0 = cycle, total_fires",
              P + "_cs = _fs = _ts = 0.0"),
    ]
    if lanes:
        L.append(P + "try:")
    L += [
        W + "while budget > 0:",
        B + "if done is not None:",
        B + "    if done():",
        B + "        status = 1",
        B + "        break",
        B + "    if cycle >= max_cycles:",
        B + "        status = 3",
        B + "        break",
        B + "budget -= 1",
        *prof(B + "_t0 = PC()"),
        B + "# combinational pass",
    ]
    _calls(L, comb, B)
    L += [*prof(B + "_t1 = PC()"), B + "# fire scan", B + "fires = 0"]
    _calls(L, fire, B)
    L += prof(B + "_t2 = PC()")
    # The sanitizer observes the fixpoint (arrays synced on demand).
    L.append(B + "if san is not None:")
    _calls(L, publish, B + "    ")
    L += [
        B + "    if fires:",
        B + "        F[:] = bytes(map(int.__and__, V, R))",
        B + "    san.observe(cycle, V, R, D, F)",
        B + "    if fires:",
        B + "        F[:] = ZB",
        B + "total_fires += fires",
        B + "progress = 1 if fires else kany",
        B + "ticked = 0",
    ]
    if tick:
        L.append(B + "# clock edge: state transitions, then recompute")
        _calls(L, tick, B)
        L.append(B + "if ticked:")
        _calls(L, post, B + "    ")
    L += [
        *prof(B + "_t3 = PC()",
              B + "_cs += _t1 - _t0; _fs += _t2 - _t1; _ts += _t3 - _t2"),
        B + "idle = 0 if progress else idle + 1",
        B + "cycle += 1",
        B + "if done is not None and idle >= window:",
        B + "    status = 2",
        B + "    break",
    ]
    if lanes:
        # Divergence aborts the current cycle mid-comb-pass; the cells
        # (published below) are a valid promotion point because the
        # combinational pass never mutates unit state and the batched
        # engine re-arms every activation flag before the mask loop.
        L += [
            P + "except LaneDivergence as _e:",
            P + "    rt._divergence = _e",
            P + "    status = 4",
        ]
    # -- epilogue: publish the cells back to the engine --------------------
    _calls(L, publish + flags, P)
    L += [
        P + "rt.cycle = cycle",
        P + "rt._idle_cycles = idle",
        P + "rt.total_fires = total_fires",
        *prof(P + "pr = rt.profile",
              P + "pr.cycles += cycle - _c0",
              P + "pr.fires += total_fires - _f0",
              P + "pr.comb_s += _cs",
              P + "pr.fire_s += _fs",
              P + "pr.tick_s += _ts",
              P + "pr.wall_s += _cs + _fs + _ts"),
        P + "return status, fires",
        "    return loop",
        "",
    ]
    pieces = [_text(L)] + out
    if lanes:
        L = []
        needs_mem = any(isinstance(u, (LoadPort, StorePort)) for u in units)
        _emit_mask_loop(
            L, schedule, units, live, n_occ, needs_mem, occ_groups,
            chan_groups, tick_groups, tgidx, tick_slots, carry_slots,
        )
        pieces.append(_text(L))
    return pieces


def generate_source(circuit: DataflowCircuit,
                    schedule: CircuitSchedule,
                    lanes: bool = False) -> str:
    """The module :func:`generate_pieces` emits, as one text (what the
    disk cache stores next to the bytecode, for inspection)."""
    return "".join(generate_pieces(circuit, schedule, lanes=lanes))


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
    add(P + "rt._live = live")
    add(P + "rt._fa = fa")
    add(P + "rt.done_mask = FULL & ~live")
    add(P + "return status, fires")
    add("")
    add("    return mloop")
    add("")


# ---------------------------------------------------------------------------
# Module cache: in-process memo + content-addressed disk cache.
# ---------------------------------------------------------------------------

#: Load origins observed this process, for cache tests and CI assertions.
CODEGEN_STATS = {"generated": 0, "disk": 0, "memory": 0}

#: Modules whose piece code objects the in-process memo keeps: enough
#: for seed-by-seed runs of one circuit, few enough that a sweep over
#: many circuits does not hold their code (the disk cache serves them).
_MODULE_CACHE_MAX = 2
_MODULE_CACHE: "OrderedDict[str, Tuple[CodeType, ...]]" = OrderedDict()


@functools.lru_cache(maxsize=None)
def _codegen_salt() -> bytes:
    """Hash of this module, which compiles the generated pieces and links
    their code objects."""
    return hashlib.sha256(Path(__file__).read_bytes()).digest()


def source_key(source: Union[str, Seq[str]]) -> str:
    """Content address of one generated module (its text, or its pieces:
    the key of the pieces is the key of their concatenation).

    Covers exactly what the cached bytecode depends on: the generated
    source, this module (:func:`_codegen_salt`), the interpreter's
    bytecode magic and the payload header :data:`_PYC_HEADER`.  An edit
    elsewhere in repro that changes no generated text keeps every cached
    module warm; one that does changes the text, and with it the key.
    """
    h = hashlib.sha256()
    h.update(_codegen_salt())
    h.update(importlib.util.MAGIC_NUMBER)
    h.update(_PYC_HEADER)
    h.update(b"\0")
    for piece in [source] if isinstance(source, str) else source:
        h.update(piece.encode())
    return h.hexdigest()


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _code_const(code: CodeType) -> CodeType:
    return next(c for c in code.co_consts if isinstance(c, CodeType))


def _compile_piece(text: str, filename: str) -> CodeType:
    """Compile one piece; return the function it defines — for a factory
    (``_P3``, ``_loop``) the generator or loop inside it."""
    fn = _code_const(compile(text, filename, "exec"))
    return _code_const(fn) if fn.co_name.startswith("_") else fn


def load_module(pieces: List[str],
                key: str) -> Tuple[Tuple[CodeType, ...], str]:
    """Return ``(codes, origin)``: the code objects of ``pieces``, whose
    :func:`source_key` is ``key``.

    ``origin`` is ``"memory"`` (in-process memo), ``"disk"`` (marshalled
    bytecode loaded from the cache directory) or ``"generated"``
    (compiled now, one ``compile()`` call per piece; the source and
    bytecode are published to disk).  Compiling consumes ``pieces``:
    each text is dropped once its piece is compiled.
    """
    codes = _MODULE_CACHE.get(key)
    if codes is not None:
        _MODULE_CACHE.move_to_end(key)
        CODEGEN_STATS["memory"] += 1
        return codes, "memory"

    while len(_MODULE_CACHE) >= _MODULE_CACHE_MAX:  # before the load
        _MODULE_CACHE.popitem(last=False)
    cdir = codegen_cache_dir() / key[:2]
    py_path = cdir / f"{key}.py"
    pyc_path = cdir / f"{key}.pyc"

    origin = "disk"
    try:
        blob = pyc_path.read_bytes()
        codes = None
        if blob[: len(_PYC_HEADER)] == _PYC_HEADER:
            codes = marshal.loads(memoryview(blob)[len(_PYC_HEADER):])
        if not (isinstance(codes, tuple)
                and all(isinstance(c, CodeType) for c in codes)):
            codes = None
    except (OSError, ValueError, EOFError, TypeError):
        codes = None
    if codes is None:
        origin = "generated"
        try:
            cdir.mkdir(parents=True, exist_ok=True)
            _atomic_write(py_path, (p.encode() for p in pieces))
        except OSError:
            pass  # cache is an optimization; never fail the simulation
        compiled = []
        while pieces:
            compiled.append(_compile_piece(pieces.pop(0), str(py_path)))
        blob = marshal.dumps(tuple(compiled))
        # Dumping caches a copy of every code object's bytecode on it;
        # the module runs from a fresh load of the blob instead.
        del compiled
        codes = marshal.loads(blob)
        try:
            _atomic_write(pyc_path, (_PYC_HEADER, blob))
        except OSError:
            pass

    _MODULE_CACHE[key] = codes
    CODEGEN_STATS[origin] += 1
    return codes, origin


def bind_loop_state(rt, circuit: DataflowCircuit, lanes: bool = False,
                    profiled: bool = False) -> Tuple[CodeType, ...]:
    """The set-up :class:`CodegenEngine` and the laned
    :class:`~repro.sim.batched.BatchedEngine` share: bind on ``rt`` the
    schedule, units, signal arrays and activation flags the generated
    loop reads, load the module (the ``lanes`` or ``profiled`` variant
    of :func:`generate_pieces`) and record its ``codegen_key`` and
    ``codegen_origin`` (``"generated"``/``"disk"``/``"memory"``).
    Returns the piece code objects; the caller resets its units, then
    calls :func:`link_loop`."""
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
    pieces = generate_pieces(circuit, schedule, lanes=lanes,
                             profiled=profiled)
    rt.codegen_key = source_key(pieces)
    codes, rt.codegen_origin = load_module(pieces, rt.codegen_key)
    return codes


def _globals(rt, lanes: Optional[int]) -> dict:
    """The read-only names of ``rt``'s generated loop: its arrays, a weak
    reference to ``rt`` itself (``W``), and per unit ``u{s}`` plus the
    compute function, operand constants and token values its blocks
    read (as lane tuples when ``lanes`` is a width).  With a bound
    ``rt.profile`` also the profiled variant's count lists (``EC``,
    ``TC``) and timer (``PC``)."""
    g = {
        "__builtins__": builtins,
        "CircuitError": CircuitError,
        "LaneDivergence": LaneDivergence,
        "W": weakref.ref(rt),
        "V": rt.valid,
        "R": rt.ready,
        "D": rt.data,
        "F": rt.fired,
        "A": rt._aflags,
        "KF": rt._kflags,
        "ZB": rt._zeros,
    }
    needs_mem = False
    for s, u in enumerate(rt._units):
        g[f"u{s}"] = u
        if isinstance(u, FunctionalUnit):
            g[f"cp{s}"] = u._compute
            for slot, value in u.const_ops.items():
                g[f"uc{s}_{slot}"] = value
        elif isinstance(u, (Entry, Constant)):
            g[f"uv{s}"] = u.value if lanes is None else (u.value,) * lanes
        elif isinstance(u, (LoadPort, StorePort)):
            needs_mem = True
        elif lanes is not None and isinstance(u, Sequence):
            g[f"usq{s}"] = tuple((x,) * lanes for x in u.values)
        elif lanes is not None and isinstance(
                u, (ArbiterMerge, FixedOrderMerge)):
            g[f"lsel{s}"] = tuple((i,) * lanes for i in range(u.n_in))
    if lanes is not None:
        g["LB"] = lanes
        if needs_mem:
            g["mrd"], g["mwr"] = rt._mrd, rt._mwr
    elif needs_mem:
        g["mrd"], g["mwr"] = rt.memory.read, rt.memory.write
    profile = getattr(rt, "profile", None)
    if profile is not None:
        g.update(EC=profile.eval_counts, TC=profile.tick_counts,
                 PC=perf_counter)
    return g


def link_loop(rt, codes: Seq[CodeType],
              lanes: Optional[int] = None) -> Dict[str, Callable]:
    """Instantiate ``codes`` for ``rt``: one set of cells shared by every
    piece, one generator per piece (its ``__next__`` bound in the
    globals under the piece's name).  Returns the other functions by
    name: ``"loop"``, and ``"make_mask_loop"`` in a laned module.
    ``lanes`` is the batch width of a laned module."""
    g = _globals(rt, lanes)
    cells: Dict[str, CellType] = {}
    fns: Dict[str, Callable] = {}
    for code in codes:
        closure = tuple(
            cells[n] if n in cells else cells.setdefault(n, CellType())
            for n in code.co_freevars
        )
        fn = FunctionType(code, g, code.co_name, None, closure)
        if code.co_flags & inspect.CO_GENERATOR:
            g[code.co_name] = fn().__next__
        else:
            fns[code.co_name] = fn
    return fns


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
    """Specialized-source simulator; bit-identical to the event engine."""

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
        self._init_common(
            circuit, memory, trace, deadlock_window, profile, sanitize
        )
        codes = bind_loop_state(self, circuit, profiled=profile is not None)
        if profile is not None:
            profile.bind(self.schedule.names, self.backend)
        self._reset_units(self._units)
        self._loop = link_loop(self, codes)["loop"]

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
