"""Structural lint rules (``ST0xx``): circuit well-formedness without
simulating.

These rules catch the defects that otherwise surface minutes later as a
simulated deadlock, a :class:`~repro.errors.CombinationalCycleError` at
engine-build time, or a silently wrong answer:

=======  ==================================================================
ST001    dangling port (undriven input / unconsumed output / ghost channel)
ST002    width mismatch through width-preserving units
ST003    implicit fan-out / fan-in (one port on several channels)
ST004    unit unreachable from any token source
ST005    combinational handshake cycle (no sequential element on the path)
ST006    retired: a token-dead cycle (latency, no circulating token) is
         FL001's, checked on the whole slot-expanded circuit
ST007    saturated cycle: circulating tokens >= total storage capacity on
         the cycle, so no transfer can ever fire (zero-capacity rings are
         the degenerate case)
=======  ==================================================================
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..analysis.scc import strongly_connected_components
from ..analysis.throughput import positive_cycle
from ..circuit import (
    CreditCounter,
    EagerFork,
    ElasticBuffer,
    LazyFork,
    TransparentFifo,
    Unit,
)
from ..errors import SimulationError
from ..sim.signal_graph import find_combinational_cycle
from .registry import LintContext, rule

Emit = Callable[..., None]

#: Simple-cycle enumeration bound per flagged SCC for ST007's wording.
#: Far above anything the paper's kernels produce; past it, a component
#: is still reported, through the positive-cycle test's witness cycle.
MAX_CYCLES_PER_SCC = 5000


@rule(
    "ST001",
    "dangling-port",
    severity="error",
    summary="every port must be connected",
    paper="Sec. 2 (handshake circuit well-formedness)",
)
def check_dangling_ports(ctx: LintContext, emit: Emit) -> None:
    """The problems ``DataflowCircuit.validate()`` raises, as findings."""
    for message, unit, channel in ctx.circuit.port_problems():
        emit(message, unit=unit, channel=channel)


@rule(
    "ST002",
    "width-mismatch",
    severity="warning",
    summary="width-preserving units must not change channel width",
    paper="Sec. 2 (channel typing)",
)
def check_width_mismatch(ctx: LintContext, emit: Emit) -> None:
    """Buffers pass data through unchanged, so input and output widths
    must agree; forks replicate their input, so an output wider than the
    input would invent bits.  (Fork outputs narrower than the input are
    legal projections — e.g. a dataless credit-return arm.)"""
    c = ctx.circuit
    for u in c.units.values():
        if isinstance(u, (ElasticBuffer, TransparentFifo)):
            ci = c.in_channel(u, 0)
            co = c.out_channel(u, 0)
            if ci is not None and co is not None and ci.width != co.width:
                emit(
                    f"{u.describe()}: input width {ci.width} != output "
                    f"width {co.width} (buffers preserve width)",
                    unit=u.name,
                )
        elif isinstance(u, (EagerFork, LazyFork)):
            ci = c.in_channel(u, 0)
            if ci is None:
                continue
            for i in range(u.n_out):
                co = c.out_channel(u, i)
                if co is not None and co.width > ci.width:
                    emit(
                        f"{u.describe()}: output {i} width {co.width} "
                        f"exceeds input width {ci.width} "
                        "(a fork cannot widen its token)",
                        unit=u.name,
                    )


@rule(
    "ST003",
    "implicit-fanout",
    severity="error",
    summary="one port, one channel (use Fork/Merge units)",
    paper="Sec. 2 (elastic fan-out discipline)",
)
def check_implicit_fanout(ctx: LintContext, emit: Emit) -> None:
    c = ctx.circuit
    by_src: Dict[Tuple[str, int], List] = {}
    by_dst: Dict[Tuple[str, int], List] = {}
    for ch in c.channels:
        by_src.setdefault((ch.src.unit, ch.src.index), []).append(ch)
        by_dst.setdefault((ch.dst.unit, ch.dst.index), []).append(ch)
    for (unit, port), chs in sorted(by_src.items()):
        if len(chs) > 1:
            emit(
                f"output port {port} of {unit!r} drives {len(chs)} "
                "channels (implicit fan-out; insert an explicit Fork)",
                unit=unit,
            )
    for (unit, port), chs in sorted(by_dst.items()):
        if len(chs) > 1:
            emit(
                f"input port {port} of {unit!r} is driven by {len(chs)} "
                "channels (implicit fan-in; insert an explicit Merge)",
                unit=unit,
            )


@rule(
    "ST004",
    "unreachable-unit",
    severity="warning",
    summary="every unit should be reachable from a token source",
    paper="Sec. 2.1 (token flow)",
)
def check_unreachable_units(ctx: LintContext, emit: Emit) -> None:
    c = ctx.circuit
    sources = [u.name for u in c.units.values() if u.n_in == 0]
    if not c.units:
        return
    if not sources:
        emit(
            "circuit has no token sources (no unit with zero inputs); "
            "nothing can ever fire"
        )
        return
    reached = set(sources)
    frontier = list(sources)
    succ: Dict[str, List[str]] = {}
    for ch in c.channels:
        succ.setdefault(ch.src.unit, []).append(ch.dst.unit)
    while frontier:
        n = frontier.pop()
        for m in succ.get(n, ()):
            if m not in reached:
                reached.add(m)
                frontier.append(m)
    for name in sorted(set(c.units) - reached):
        emit(
            f"{c.units[name].describe()} is unreachable from every token "
            "source (dead logic or a missing connection)",
            unit=name,
        )


@rule(
    "ST005",
    "combinational-cycle",
    severity="error",
    summary="handshake cycles need a sequential element",
    paper="Sec. 2 (elastic buffering)",
)
def check_combinational_cycle(ctx: LintContext, emit: Emit) -> None:
    """The same signal-graph cycle check :class:`CodegenEngine` performs
    at build time, surfaced before anyone constructs an engine."""
    try:
        path = find_combinational_cycle(ctx.circuit)
    except SimulationError as exc:
        emit(f"cannot build the handshake signal graph: {exc}")
        return
    if path:
        emit(
            "combinational cycle through "
            f"{len(path)} handshake signal(s): "
            + " -> ".join(path)
            + " -> (repeats); insert a sequential element "
            "(e.g. an ElasticBuffer) on this path"
        )


def _storage_capacity(u: Unit) -> int:
    """Tokens the unit can hold at a clock edge (its sequential depth)."""
    if isinstance(u, (ElasticBuffer, TransparentFifo)):
        return u.slots
    if isinstance(u, CreditCounter):
        return u.initial
    return max(0, getattr(u, "latency", 0))


def saturated_cycles(
    succ: Dict[str, List[str]],
    tokens: Dict[Tuple[str, str], int],
    capacity: Dict[str, int],
) -> List[Tuple[List[str], List[str]]]:
    """``(component, witness)`` for every strongly connected component of
    ``succ`` holding a cycle whose circulating tokens, one or more, reach
    its storage (``tokens(C) >= max(1, capacity(C))``); ``witness`` is one
    such cycle, in edge order.  Tokenless cycles are ST005/FL001's.

    ``succ`` has every node as a key, ``tokens`` maps each of its edges to
    the tokens on it and ``capacity`` each node to its storage.  One
    positive-cycle search per component decides it.  With ``m`` one more
    than the tokens on all of the component's edges, edge ``u -> v``
    weighs ``m * (tokens(u, v) - capacity(v)) + tokens(u, v)``, so a
    simple cycle ``C`` weighs ``m * (tokens(C) - capacity(C)) +
    tokens(C)``.  As ``0 <= tokens(C) < m``, that is positive exactly when
    ``tokens(C) >= capacity(C)`` and ``tokens(C) >= 1``: a deficit of a
    token or more outweighs every token, and at equality the tokens alone
    decide.
    """
    found: List[Tuple[List[str], List[str]]] = []
    for comp in strongly_connected_components(list(succ), succ):
        if len(comp) == 1 and comp[0] not in succ[comp[0]]:
            continue  # a lone node without a self-loop is on no cycle
        idx = {u: i for i, u in enumerate(comp)}
        edges = [(u, v) for u in comp for v in succ[u] if v in idx]
        m = 1 + sum(tokens[e] for e in edges)
        adj: List[List[Tuple[int, int, int]]] = [[] for _ in comp]
        for u, v in edges:
            t = tokens[u, v]
            adj[idx[u]].append((idx[v], m * (t - capacity[v]) + t, 0))
        hit = positive_cycle(adj, Fraction(0))
        if hit is not None:
            found.append((comp, [comp[i] for i in hit[0]]))
    return found


@rule(
    "ST007",
    "saturated-cycle",
    severity="error",
    summary="cycle storage must exceed its circulating tokens",
    paper="Sec. 4.3 (Eq. 1's deadlock-freedom argument)",
)
def check_saturated_cycles(ctx: LintContext, emit: Emit) -> None:
    """A directed cycle whose circulating tokens fill (or exceed) its
    total storage capacity is a full ring: every transfer on it needs a
    free slot ahead, so nothing ever fires.  Zero-capacity cycles holding
    a token are the degenerate case.  The tokens are the backedge
    annotations and each credit counter's initial credits on its grant.

    :func:`saturated_cycles` finds the components holding such a cycle
    with tokens on it; only those are searched cycle by cycle, for the
    wording.  A component whose capped search reports nothing gets the
    test's witness cycle, which always carries tokens."""
    c = ctx.circuit
    tokens: Dict[Tuple[str, str], int] = {}
    succ: Dict[str, List[str]] = {}
    for ch in c.channels:
        if ch.src.unit not in c.units or ch.dst.unit not in c.units:
            continue  # ST001's problem
        t = c.channel_tokens(ch)
        key = (ch.src.unit, ch.dst.unit)
        # Parallel channels: keep the fewest tokens (the least saturated
        # routing) so the rule never over-reports.
        if key in tokens:
            tokens[key] = min(tokens[key], t)
        else:
            tokens[key] = t
            succ.setdefault(key[0], []).append(key[1])
            succ.setdefault(key[1], [])
    capacity = {n: _storage_capacity(c.units[n]) for n in succ}
    for comp, witness in saturated_cycles(succ, tokens, capacity):
        import networkx as nx  # only a flagged component needs it

        members = set(comp)
        nodes = [n for n in succ if n in members]
        sub = nx.DiGraph()
        sub.add_nodes_from(nodes)
        sub.add_edges_from(
            (u, v) for u in nodes for v in succ[u] if v in members
        )
        cycles = islice(nx.simple_cycles(sub), MAX_CYCLES_PER_SCC)
        for message, anchor in _describe_saturated(
            cycles, tokens, capacity
        ) or _describe_saturated([witness], tokens, capacity):
            emit(message, unit=anchor)


def _describe_saturated(
    cycles: Iterable[List[str]],
    tokens: Dict[Tuple[str, str], int],
    capacity: Dict[str, int],
) -> List[Tuple[str, str]]:
    """``(message, anchor unit)`` per distinct token-carrying saturated
    cycle of ``cycles``.  Tokenless ones are left to ST005/FL001."""
    found: List[Tuple[str, str]] = []
    reported: Set[Tuple[str, int, int]] = set()
    for cyc in cycles:
        pairs = list(zip(cyc, cyc[1:] + cyc[:1]))
        total = sum(tokens[p] for p in pairs)
        if total == 0:
            continue  # ST005/FL001 territory
        cap = sum(capacity[n] for n in cyc)
        if total >= cap:
            anchor = min(cyc)
            sig = (anchor, total, cap)
            if sig in reported:
                continue
            reported.add(sig)
            found.append((
                f"cycle {' -> '.join(cyc)} -> (repeats) is saturated: "
                f"{total} circulating token(s) but only {cap} "
                "slot(s) of storage; no transfer on it can ever fire",
                anchor,
            ))
    return found
