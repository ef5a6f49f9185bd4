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
from ..resources.library import BASE_PATH_OVERHEAD_NS
from ..resources.timing import longest_comb_chain
from .scc import strongly_connected_components

#: The paper's clock-period target (Section 6.1).
TARGET_CP_NS = 6.0


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
    from .buffers import _splice

    inserted: List[str] = []
    budget = max(0.0, target_cp_ns - BASE_PATH_OVERHEAD_NS)
    blocked_paths: Set[Tuple[str, ...]] = set()
    delays: Dict[str, float] = {}
    # Built on the first chain over budget, then kept for the whole pass.
    scc: Dict[str, int] = {}
    between: Dict[Tuple[str, str], List[Channel]] = {}
    for _ in range(max_inserts):
        # On a combinational cycle there is no chain to cut: the
        # structural pass handles the cycle first.
        total, path = longest_comb_chain(circuit, delays) or (0.0, [])
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
