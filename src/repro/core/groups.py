"""Algorithm 1: the sharing-group heuristic (paper Section 5.2).

Start with one singleton group per sharing candidate and greedily merge
pairs of groups; a merge ``G = G_i ∪ G_j`` is accepted only when

* **R1** — every operation in ``G`` has the same type (and latency),
* **R2** — in every performance-critical CFC, the summed token occupancy of
  ``G``'s members inside that CFC stays within the shared unit's capacity
  (its pipeline depth): the unit physically cannot sustain more, so
  exceeding it would stretch the II,
* **R3** — no CFC has an SCC containing two of ``G``'s operations whose
  "activation offsets" coincide: if some other SCC member ``u`` has *equal*
  maximum distances to both operations, the two become executable
  simultaneously every iteration and arbitration necessarily delays one of
  them, stretching the II (the paper's Figure 5).  SCCs too large to
  enumerate distances for are treated conservatively (merge rejected),

and when the merge reduces the Equation-2 cost.  The loop repeats until no
pair can merge.  Everything here is local graph analysis — no global
re-optimization per decision, which is where CRUSH's ~90% optimization-time
saving over the In-order baseline comes from.  That baseline runs the same
loop (:func:`merge_groups`) with its global total-order check in place of
R2, R3 and the cost test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..circuit import DataflowCircuit, FunctionalUnit
from ..errors import SharingError
from ..analysis import (
    CFC,
    MAX_SCC_ENUMERATION,
    max_simple_distance,
    unit_capacity,
)
from .cost import SharingCostModel


def sharing_candidates(circuit: DataflowCircuit) -> List[str]:
    """All shareable functional units (the expensive floating-point ops)."""
    return sorted(
        u.name
        for u in circuit.units.values()
        if isinstance(u, FunctionalUnit) and not u.bundled and u.spec.shareable
    )


def check_r1(circuit: DataflowCircuit, group: Sequence[str]) -> bool:
    """R1: one operation type (same mnemonic and latency) per group."""
    ops = [circuit.unit(n) for n in group]
    if not all(isinstance(u, FunctionalUnit) for u in ops):
        return False
    first = ops[0]
    return all(u.op == first.op and u.latency == first.latency for u in ops)


def check_r2(
    circuit: DataflowCircuit,
    group: Sequence[str],
    cfc: CFC,
    occupancies: Mapping[str, Fraction],
) -> bool:
    """R2: summed occupancy of the group inside the CFC <= unit capacity."""
    members = [n for n in group if n in cfc.unit_names]
    if not members:
        return True
    total = sum((occupancies.get(n, Fraction(0)) for n in members), Fraction(0))
    capacity = unit_capacity(circuit.unit(members[0]))
    return total <= capacity


def check_r3(circuit: DataflowCircuit, group: Sequence[str], cfc: CFC) -> bool:
    """R3: reject groups whose members sit at equal offsets in one SCC."""
    in_cfc = [n for n in group if n in cfc.unit_names]
    if len(in_cfc) < 2:
        return True
    sccg = cfc.scc_graph()
    succ = cfc.successors_map()
    by_scc: Dict[int, List[str]] = {}
    for n in in_cfc:
        by_scc.setdefault(sccg.scc_of[n], []).append(n)
    for sid, members in by_scc.items():
        if len(members) < 2:
            continue
        scc_nodes = sccg.sccs[sid]
        if len(scc_nodes) > MAX_SCC_ENUMERATION:
            return False  # cannot certify; be conservative
        others = [u for u in scc_nodes if u not in members]
        for a_i in range(len(members)):
            for b_i in range(a_i + 1, len(members)):
                op_a, op_b = members[a_i], members[b_i]
                for u in others:
                    da = max_simple_distance(scc_nodes, succ, u, op_a)
                    db = max_simple_distance(scc_nodes, succ, u, op_b)
                    if da == db:
                        return False
    return True


def merge_groups(
    circuit: DataflowCircuit,
    candidates: Optional[Sequence[str]],
    accept: Callable[[List[str], List[str]], bool],
) -> List[List[str]]:
    """Algorithm 1's greedy loop; returns the non-empty groups.

    Starts from one singleton group per candidate (default: every
    shareable unit) and merges ``G_i`` and ``G_j`` when their union
    passes R1 and then ``accept(G_i, G_j)``, the sharing technique's own
    test, until no pair merges.  Groups are lists of unit names;
    singleton groups mean "do not share".
    """
    if candidates is None:
        candidates = sharing_candidates(circuit)
    for name in candidates:
        u = circuit.unit(name)
        if not isinstance(u, FunctionalUnit):
            raise SharingError(f"candidate {name!r} is not a functional unit")
    groups: List[List[str]] = [[op] for op in candidates]
    modified = True
    while modified:
        modified = False
        for i in range(len(groups)):
            if not groups[i]:
                continue
            for j in range(i + 1, len(groups)):
                if not groups[j]:
                    continue
                union = groups[i] + groups[j]
                if not check_r1(circuit, union) or not accept(groups[i], groups[j]):
                    continue
                groups[i] = union
                groups[j] = []
                modified = True
    return [g for g in groups if g]


def sharing_groups(
    circuit: DataflowCircuit,
    cfcs: Sequence[CFC],
    occupancies: Mapping[str, Fraction],
    candidates: Optional[Sequence[str]] = None,
    cost_model: Optional[SharingCostModel] = None,
) -> List[List[str]]:
    """CRUSH's Algorithm 1: merges that keep R2 and R3 in every CFC and
    reduce the Equation-2 cost (any merge when ``cost_model`` is None)."""

    def accept(g_i: List[str], g_j: List[str]) -> bool:
        union = g_i + g_j
        if any(not check_r2(circuit, union, cfc, occupancies) for cfc in cfcs):
            return False
        if any(not check_r3(circuit, union, cfc) for cfc in cfcs):
            return False
        return cost_model is None or cost_model.merge_reduces_cost(
            circuit.unit(g_i[0]).op, len(g_i), len(g_j)
        )

    return merge_groups(circuit, candidates, accept)
