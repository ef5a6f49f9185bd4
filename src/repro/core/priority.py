"""Algorithm 2: the access-priority heuristic (paper Section 5.3).

Within a sharing group, the arbitration priority must follow the data
dependencies, or arbitration delays the producer and stretches the II
(the paper's Figure 4 examples).  The heuristic bubble-sorts the group's
priority list: for each adjacent pair that lives in one performance-critical
CFC but in *different* SCCs of it, the pair is ordered by the topological
order of the SCC condensation — producers (earlier SCCs) get higher
priority.  Operations in the same SCC (or never co-resident in a CFC) keep
their relative order: any priority is acceptable for them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis import CFC


def _ordered_pair(
    a: str, b: str, cfcs: Sequence[CFC]
) -> Optional[Tuple[str, str]]:
    """Algorithm 2's pair test: ``(producer, consumer)`` as ordered by the
    first CFC holding ``a`` and ``b`` in *different* SCCs of its
    condensation (earlier topological position first), or None when no
    CFC constrains the pair."""
    for cfc in cfcs:
        if a not in cfc.unit_names or b not in cfc.unit_names:
            continue
        sccg = cfc.scc_graph()
        if sccg.same_scc(a, b):
            continue  # this CFC does not constrain the pair
        if sccg.topo_position(a) <= sccg.topo_position(b):
            return (a, b)
        return (b, a)
    return None


def priority_constraints(
    group: Sequence[str], cfcs: Sequence[CFC]
) -> List[Tuple[str, str]]:
    """Must-precede pairs ``(producer, consumer)`` implied by Algorithm 2.

    One pair per pair of group members that some CFC constrains — the
    same test :func:`access_priority` sorts with.  Any access-priority
    list that honors every returned pair (producer listed before
    consumer) is a valid Algorithm-2 assignment; ``repro.lint`` rule
    ``CR002`` checks built arbiters against these pairs.
    """
    pairs: List[Tuple[str, str]] = []
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            pair = _ordered_pair(a, b, cfcs)
            if pair is not None:
                pairs.append(pair)
    return pairs


def access_priority(group: Sequence[str], cfcs: Sequence[CFC]) -> List[str]:
    """Return the group ordered highest-priority first (Algorithm 2)."""
    prio = list(group)
    n = len(prio)
    modified = True
    passes = 0
    while modified and passes <= n + 1:
        modified = False
        passes += 1
        for i in range(1, n):
            a, b = prio[i - 1], prio[i]
            if _ordered_pair(a, b, cfcs) == (b, a):
                prio[i - 1], prio[i] = b, a
                modified = True
    return prio
