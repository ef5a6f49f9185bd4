"""Static handshake signal graph and schedule, shared by codegen and lint.

For a fixed circuit the combinational evaluation order never changes, so
the event engine's dirty queue, change-detecting setters and fixpoint
loop are interpretive overhead.  This module derives the order **once**:

1.  **Signal graph.**  Every channel contributes two signal nodes: node
    ``2*cid`` is its forward signal (valid/data, driven by the producer)
    and node ``2*cid + 1`` its backward signal (ready, driven by the
    consumer).  Each unit declares, via
    :meth:`~repro.circuit.unit.Unit.comb_deps`, which observed signals
    each of its driven signals combinationally depends on; registered
    paths (buffers, pipeline heads, credit counters) contribute no edges,
    which is exactly what makes the graph acyclic in a legal elastic
    circuit.
2.  **Levelization.**  The graph is topologically sorted with
    longest-path ranks.  A combinational cycle (a graph cycle with no
    sequential element on it) is rejected with a
    :class:`~repro.errors.CombinationalCycleError` naming the signal path
    — the event engine only notices the same defect dynamically, as a
    fixpoint that never converges.  ``repro.lint`` walks the same graph
    to surface such cycles (rule ``ST005``) before anyone builds an
    engine.
3.  **Occurrence schedule.**  A unit is evaluated once per distinct rank
    among the signals it drives, in ascending rank order.  Evaluating the
    occurrences in schedule order computes the exact handshake fixpoint
    in a single pass: on an acyclic graph the fixpoint is unique, and by
    the time a signal's rank is reached all of its dependencies hold
    final values.  (Earlier occurrences may overwrite higher-rank signals
    with provisional values; those are recomputed at their proper rank,
    and no unit in the catalogue consumes a *data* value before the blob
    dependencies that guard it are final.)
4.  **Activation gating.**  Most units see no new tokens most cycles, so
    replaying the full schedule would waste the sparsity the event engine
    exploits.  Each occurrence has an activation flag; a change-detected
    signal write activates exactly the occurrences that finalize the
    signals depending on it (always *later* in the schedule — the pass
    never loops), and a ticked unit recomputes its driven signals at the
    clock edge with the same change detection.  A cycle in which nothing
    fired and nothing ticked leaves no activations, so every later cycle
    evaluates no unit until the run stops.

:class:`~repro.sim.codegen.CodegenEngine` emits the schedule as
specialized source (:func:`compile_schedule` is its input).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import CombinationalCycleError, SimulationError


@dataclass
class SignalGraph:
    """Handshake signal dependency graph of one circuit.

    ``units`` / ``slot_of`` / ``in_chs`` / ``out_chs`` capture the unit
    enumeration the graph was built against (deterministic: insertion
    order of ``circuit.units``); ``deps_of[node]`` lists the signal nodes
    that ``node`` combinationally depends on and ``driver[node]`` is the
    unit slot driving it (-1 for undriven nodes, e.g. id gaps left by
    rewrites).
    """

    nch: int
    units: List = field(default_factory=list)
    slot_of: Dict[str, int] = field(default_factory=dict)
    in_chs: List[List[int]] = field(default_factory=list)
    out_chs: List[List[int]] = field(default_factory=list)
    deps_of: List[List[int]] = field(default_factory=list)
    driver: List[int] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return 2 * self.nch


def build_signal_graph(circuit) -> SignalGraph:
    """Build the signal dependency graph for ``circuit``.

    Raises :class:`~repro.errors.SimulationError` when a unit's
    ``comb_deps()`` is malformed (wrong shape or invalid signal token).
    """
    nch = max((ch.cid for ch in circuit.channels), default=-1) + 1
    names = list(circuit.units)
    slot_of = {n: i for i, n in enumerate(names)}
    units = [circuit.units[n] for n in names]

    in_chs: List[List[int]] = []
    out_chs: List[List[int]] = []
    for u in units:
        in_chs.append([
            ch.cid if (ch := circuit.in_channel(u, i)) is not None else -1
            for i in range(u.n_in)
        ])
        out_chs.append([
            ch.cid if (ch := circuit.out_channel(u, i)) is not None else -1
            for i in range(u.n_out)
        ])

    n_nodes = 2 * nch
    deps_of: List[List[int]] = [[] for _ in range(n_nodes)]
    driver = [-1] * n_nodes

    def tok_node(s: int, tok) -> int:
        u = units[s]
        try:
            kind, j = tok
        except (TypeError, ValueError):
            kind, j = None, None
        if kind == "in" and 0 <= j < u.n_in:
            ch = in_chs[s][j]
            return 2 * ch if ch >= 0 else -1
        if kind == "out" and 0 <= j < u.n_out:
            ch = out_chs[s][j]
            return 2 * ch + 1 if ch >= 0 else -1
        raise SimulationError(
            f"{u.describe()}: comb_deps() returned invalid signal "
            f"token {tok!r}"
        )

    for s, u in enumerate(units):
        fwd, bwd = u.comb_deps()
        if len(fwd) != u.n_out or len(bwd) != u.n_in:
            raise SimulationError(
                f"{u.describe()}: comb_deps() shape mismatch "
                f"(got {len(fwd)} fwd / {len(bwd)} bwd for "
                f"{u.n_out} outputs / {u.n_in} inputs)"
            )
        for i, deps in enumerate(fwd):
            co = out_chs[s][i]
            if co < 0:
                continue
            node = 2 * co
            driver[node] = s
            deps_of[node] = [
                n for tok in deps if (n := tok_node(s, tok)) >= 0
            ]
        for i, deps in enumerate(bwd):
            ci = in_chs[s][i]
            if ci < 0:
                continue
            node = 2 * ci + 1
            driver[node] = s
            deps_of[node] = [
                n for tok in deps if (n := tok_node(s, tok)) >= 0
            ]

    return SignalGraph(
        nch=nch, units=units, slot_of=slot_of,
        in_chs=in_chs, out_chs=out_chs,
        deps_of=deps_of, driver=driver,
    )


def levelize(sg: SignalGraph):
    """Kahn topological levelization with longest-path ranks.

    Returns ``(rank, children, indeg, seen)``.  ``seen < sg.n_nodes``
    means a combinational cycle: the surviving nodes (``indeg[n] > 0``)
    are exactly the nodes on or downstream of a cycle.
    """
    n_nodes = sg.n_nodes
    deps_of = sg.deps_of
    children: List[List[int]] = [[] for _ in range(n_nodes)]
    indeg = [0] * n_nodes
    for node in range(n_nodes):
        for d in deps_of[node]:
            children[d].append(node)
            indeg[node] += 1
    rank = [0] * n_nodes
    q = deque(n for n in range(n_nodes) if indeg[n] == 0)
    seen = 0
    while q:
        n = q.popleft()
        seen += 1
        r1 = rank[n] + 1
        for m in children[n]:
            if rank[m] < r1:
                rank[m] = r1
            indeg[m] -= 1
            if indeg[m] == 0:
                q.append(m)
    return rank, children, indeg, seen


def signal_cycle_path(circuit, deps_of, indeg) -> List[str]:
    """Extract one combinational cycle from a failed levelization.

    Returns human-readable signal descriptions in dependency order
    (``["valid of a.out0 -> b.in0", ...]``).
    """
    by_cid = {ch.cid: ch for ch in circuit.channels}

    def describe(node: int) -> str:
        ch = by_cid[node >> 1]
        sig = "ready" if node & 1 else "valid"
        return f"{sig} of {ch.label()}"

    start = next(n for n in range(len(indeg)) if indeg[n] > 0)
    pos: Dict[int, int] = {}
    path: List[int] = []
    cur = start
    while cur not in pos:
        pos[cur] = len(path)
        path.append(cur)
        cur = next(d for d in deps_of[cur] if indeg[d] > 0)
    cycle = path[pos[cur]:]
    return [describe(n) for n in cycle]


def combinational_cycle_error(
    circuit, deps_of, indeg
) -> CombinationalCycleError:
    """Build the :class:`CombinationalCycleError` for a failed levelization."""
    lines = signal_cycle_path(circuit, deps_of, indeg)
    msg = (
        f"cannot compile a static schedule for circuit "
        f"{circuit.name!r}: combinational cycle through "
        f"{len(lines)} handshake signal(s):\n    "
        + "\n    -> depends on ".join(lines + [lines[0]])
        + "\n  insert a sequential element (e.g. an ElasticBuffer) on "
        "this path, or fix the offending unit's comb_deps()"
    )
    return CombinationalCycleError(msg, path=lines)


def find_combinational_cycle(circuit) -> Optional[List[str]]:
    """Return one combinational handshake cycle in ``circuit``, or None.

    The returned list holds the signal descriptions on the cycle, in
    dependency order — the same path :class:`CodegenEngine` would report
    through :class:`~repro.errors.CombinationalCycleError` at build time.
    """
    sg = build_signal_graph(circuit)
    _rank, _children, indeg, seen = levelize(sg)
    if seen == sg.n_nodes:
        return None
    return signal_cycle_path(circuit, sg.deps_of, indeg)


# ---------------------------------------------------------------------------
# Levelized schedule.
#
# The codegen backend's variants (scalar, profiled, laned) start from the
# same derived data: the occurrence schedule, the per-signal activation lists
# and the clock-edge maps.  All of it is a pure function of the circuit
# *structure* — unit enumeration, per-unit ``comb_deps`` and channel
# connectivity — and none of it references unit objects.  Each engine
# derives its own from the circuit it is given.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitSchedule:
    """Index-level evaluation schedule of one circuit.

    Holds no unit objects — only names, channel indices and activation
    tables — so two circuits with the same structure compile to equal
    schedules.
    """

    nch: int
    names: Tuple[str, ...]
    in_chs: Tuple[Tuple[int, ...], ...]
    out_chs: Tuple[Tuple[int, ...], ...]
    #: Occurrence k evaluates unit ``occ_units[k]``; ascending rank order.
    occ_units: Tuple[int, ...]
    #: Forward/backward activation lists: occurrence indices to activate
    #: when channel c's valid/data (resp. ready) signal changes.
    f_act: Tuple[Tuple[int, ...], ...]
    b_act: Tuple[Tuple[int, ...], ...]
    tickable: bytes
    #: Tickable unit slots adjacent to channel c (consumer then producer).
    tick_mark: Tuple[Tuple[int, ...], ...]

    @property
    def n_occ(self) -> int:
        return len(self.occ_units)

    @property
    def n_units(self) -> int:
        return len(self.names)


def compile_schedule(circuit) -> CircuitSchedule:
    """Levelize ``circuit`` into its static schedule.

    Raises :class:`~repro.errors.CombinationalCycleError` when the circuit
    has a combinational handshake cycle.
    """
    sg = build_signal_graph(circuit)
    nch = sg.nch
    units = sg.units
    n_units = len(units)
    in_chs, out_chs = sg.in_chs, sg.out_chs
    n_nodes = sg.n_nodes
    driver = sg.driver

    cons_unit = [-1] * nch
    prod_unit = [-1] * nch
    for ch in circuit.channels:
        cons_unit[ch.cid] = sg.slot_of[ch.dst.unit]
        prod_unit[ch.cid] = sg.slot_of[ch.src.unit]

    rank, children, indeg, seen = levelize(sg)
    if seen != n_nodes:
        raise combinational_cycle_error(circuit, sg.deps_of, indeg)

    # One evaluation of unit u per distinct rank among its driven signals;
    # evaluating at rank r finalizes all signals of rank <= r.
    occ_ranks: List[List[int]] = []
    for s in range(n_units):
        driven = [2 * c for c in out_chs[s] if c >= 0]
        driven += [2 * c + 1 for c in in_chs[s] if c >= 0]
        occ_ranks.append(sorted({rank[n] for n in driven}))
    sched = sorted((r, s) for s in range(n_units) for r in occ_ranks[s])
    occ_index = {(s, r): k for k, (r, s) in enumerate(sched)}
    occ_units = tuple(s for _, s in sched)

    # Per-signal activation lists: a change of channel c's forward (resp.
    # backward) signal activates the occurrence that finalizes each signal
    # depending on it.  Dependents always have a strictly greater rank, so
    # in-pass activations only ever point forward.
    f_act: List[Tuple[int, ...]] = [()] * nch
    b_act: List[Tuple[int, ...]] = [()] * nch
    for node in range(n_nodes):
        kids = children[node]
        if not kids:
            continue
        acts = tuple(sorted({occ_index[(driver[m], rank[m])] for m in kids}))
        if node & 1:
            b_act[node >> 1] = acts
        else:
            f_act[node >> 1] = acts

    tickable = bytes(1 if u.needs_tick() else 0 for u in units)
    tick_mark: List[Tuple[int, ...]] = []
    for c in range(nch):
        ms = []
        i = cons_unit[c]
        if i >= 0 and tickable[i]:
            ms.append(i)
        i = prod_unit[c]
        if i >= 0 and tickable[i] and i not in ms:
            ms.append(i)
        tick_mark.append(tuple(ms))

    return CircuitSchedule(
        nch=nch,
        names=tuple(circuit.units),
        in_chs=tuple(tuple(cs) for cs in in_chs),
        out_chs=tuple(tuple(cs) for cs in out_chs),
        occ_units=occ_units,
        f_act=tuple(f_act),
        b_act=tuple(b_act),
        tickable=tickable,
        tick_mark=tuple(tick_mark),
    )
