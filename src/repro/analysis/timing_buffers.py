"""Timing-driven buffer insertion: cut long combinational paths.

Dynamatic's buffer placement is both throughput- and timing-driven [34, 41]:
beyond slack matching, it registers long combinational chains so the
circuit meets the clock-period target (6 ns for the paper's Kintex-7
runs).  This pass reproduces that duty: while the estimated critical path
exceeds the target, insert an elastic buffer near the middle of the longest
combinational chain.

Legality: a register on a channel inside a strongly connected component
lengthens a feedback cycle and may raise the II, so in-SCC channels are
avoided; if a path offers no legal cut point, the pass leaves it alone
(a real flow would accept the slower clock, exactly as the paper reports
growing CPs for large sharing groups).

An inserted buffer has latency 1, so it never joins a combinational
chain, and splicing it into a channel keeps every unit's SCC.  One pass
therefore derives SCC membership, the channel between two units and each
unit's delay once, however many buffers it inserts; only the longest
chain is recomputed after every insert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..circuit import Channel, DataflowCircuit, ElasticBuffer
from .scc import strongly_connected_components

#: The paper's clock-period target (Section 6.1).
TARGET_CP_NS = 6.0


def _comb_paths(
    circuit: DataflowCircuit, delays: Dict[str, float]
) -> Tuple[float, List[str]]:
    """Longest-chain DP over the combinational subgraph; returns
    (total delay, path unit list) of the worst chain.  ``delays`` caches
    each unit's ``comb_delay`` across calls.

    The combinational units keep ``circuit.units`` order, and with it the
    topological order and the tie-break between equally long chains, so
    every process cuts the same channels whatever its string-hash seed."""
    from ..resources.library import comb_delay

    succ: Dict[str, List[str]] = {
        n: []
        for n, u in circuit.units.items()
        if u.latency < 1 and u.initial_tokens < 1 and u.n_in > 0
    }
    indeg: Dict[str, int] = dict.fromkeys(succ, 0)
    for ch in circuit.channels:
        if ch.src.unit in succ and ch.dst.unit in succ:
            succ[ch.src.unit].append(ch.dst.unit)
            indeg[ch.dst.unit] += 1
    order: List[str] = [n for n, d in indeg.items() if d == 0]
    i = 0
    while i < len(order):
        for s in succ[order[i]]:
            indeg[s] -= 1
            if indeg[s] == 0:
                order.append(s)
        i += 1
    if len(order) != len(succ):
        # Combinational cycle: let the structural pass handle it first.
        return 0.0, []
    best_total = 0.0
    best_tail: List[str] = []
    tail_delay: Dict[str, float] = {}
    tail_next: Dict[str, Optional[str]] = {}
    for n in reversed(order):
        delay = delays.get(n)
        if delay is None:
            delay = delays[n] = comb_delay(circuit.units[n])
        nxt = None
        nxt_delay = 0.0
        for s in succ[n]:
            if tail_delay[s] > nxt_delay:
                nxt_delay = tail_delay[s]
                nxt = s
        tail_delay[n] = delay + nxt_delay
        tail_next[n] = nxt
        if tail_delay[n] > best_total:
            best_total = tail_delay[n]
            best_tail = [n]
    if not best_tail:
        return 0.0, []
    path = [best_tail[0]]
    while tail_next[path[-1]] is not None:
        path.append(tail_next[path[-1]])
    return best_total, path


def _scc_ids(circuit: DataflowCircuit) -> Dict[str, int]:
    succ: Dict[str, List[str]] = {n: [] for n in circuit.units}
    for ch in circuit.channels:
        succ[ch.src.unit].append(ch.dst.unit)
    ids: Dict[str, int] = {}
    for sid, comp in enumerate(
        strongly_connected_components(sorted(circuit.units), succ)
    ):
        for n in comp:
            ids[n] = sid if len(comp) > 1 else -1 - len(ids)
    return ids


def insert_timing_buffers(
    circuit: DataflowCircuit,
    target_cp_ns: float = TARGET_CP_NS,
    max_inserts: int = 400,
) -> List[str]:
    """Register long combinational chains until the CP target is met.

    Returns the names of the inserted buffers.  Stops early when the
    remaining chains offer no legal (cycle-free) cut point.
    """
    from ..resources.library import BASE_PATH_OVERHEAD_NS
    from .buffers import _splice

    inserted: List[str] = []
    budget = max(0.0, target_cp_ns - BASE_PATH_OVERHEAD_NS)
    blocked_paths: Set[Tuple[str, ...]] = set()
    delays: Dict[str, float] = {}
    # Built on the first chain over budget, then kept for the whole pass.
    scc: Dict[str, int] = {}
    between: Dict[Tuple[str, str], List[Channel]] = {}
    for _ in range(max_inserts):
        total, path = _comb_paths(circuit, delays)
        if total <= budget or not path or tuple(path) in blocked_paths:
            break
        if not scc:
            scc = _scc_ids(circuit)
            for ch in circuit.channels:
                between.setdefault((ch.src.unit, ch.dst.unit), []).append(ch)
        # Candidate channels along the path, middle-out.
        hops = list(zip(path, path[1:]))
        if not hops:
            break
        mid = len(hops) // 2
        ordering = sorted(range(len(hops)), key=lambda i: abs(i - mid))
        chosen: Optional[Channel] = None
        for i in ordering:
            a, b = hops[i]
            # The first a -> b channel in ``circuit.channels`` order.
            chs = between.get((a, b))
            if not chs:
                continue
            if scc[a] == scc[b] and scc[a] >= 0 and chs[0].width > 1:
                # Same SCC on a data channel: registering would stretch an
                # II-critical cycle.  Control channels (width <= 1) are
                # exempt — their rings run far below the data II, so one
                # more register cannot become the bottleneck.
                continue
            chosen = chs.pop(0)
            break
        if chosen is None:
            blocked_paths.add(tuple(path))
            continue
        buf = circuit.add(
            ElasticBuffer(
                circuit.fresh_name("cpbuf"),
                slots=2,
                width_hint=chosen.width,
            )
        )
        # ``chosen`` now ends at the buffer, and the buffer's new output
        # channel joins no combinational chain: neither is a hop.
        _splice(circuit, chosen, buf)
        inserted.append(buf.name)
    return inserted
