"""Critical-path (CP) estimation.

The CP of a synchronous handshake circuit is the longest register-to-
register combinational path: the maximum of (a) the internal pipeline-stage
delays of the sequential units and (b) the longest chain of combinational
units between two sequential endpoints, plus a fixed routing/setup
overhead.  Sharing lengthens (b): the wrapper inserts joins, the arbiter
and the distribution branch into the operand/result paths, which is why the
paper observes a CP overhead that grows with the group size (Section 6.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuit import CreditCounter, DataflowCircuit, Unit
from ..errors import AnalysisError
from .library import BASE_PATH_OVERHEAD_NS, comb_delay, stage_delay


def is_combinational(unit: Unit) -> bool:
    """Does the unit pass handshakes through within the cycle?  Latency
    0 and not a credit counter, whose grant reads its registered count."""
    return unit.latency < 1 and not isinstance(unit, CreditCounter)


def longest_comb_chain(
    circuit: DataflowCircuit, delays: Optional[Dict[str, float]] = None
) -> Optional[Tuple[float, List[str]]]:
    """Longest-chain DP over the combinational units
    (:func:`is_combinational`, at least one input).

    Returns the worst chain's total delay and unit path, ``(0.0, [])``
    when there is no chain, or ``None`` when the combinational units form
    a cycle.  ``delays``, when given, caches each unit's ``comb_delay``
    across calls.

    The combinational units keep ``circuit.units`` order, and with it the
    topological order and the tie-break between equally long chains, so
    every process picks the same chain whatever its string-hash seed."""
    if delays is None:
        delays = {}
    succ: Dict[str, List[str]] = {
        n: []
        for n, u in circuit.units.items()
        if is_combinational(u) and u.n_in > 0
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
        return None
    best_total = 0.0
    best_head: Optional[str] = None
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
            best_head = n
    if best_head is None:
        return 0.0, []
    path = [best_head]
    while tail_next[path[-1]] is not None:
        path.append(tail_next[path[-1]])
    return best_total, path


def critical_path_ns(circuit: DataflowCircuit) -> float:
    """Estimate the post-routing critical path in nanoseconds."""
    best = max(
        (stage_delay(u) for u in circuit.units.values()), default=0.0
    )
    chain = longest_comb_chain(circuit)
    if chain is None:
        raise AnalysisError(
            "combinational cycle found during CP estimation; run buffer "
            "placement first"
        )
    # Sequential endpoints contribute their own launch/capture margins,
    # folded into the base overhead constant.
    return round(max(best, chain[0]) + BASE_PATH_OVERHEAD_NS, 2)
