"""In-order baseline: total-token-order sharing (Josipović et al. [33]).

The prior strategy avoids sharing-induced deadlock by forcing all accesses
to a shared unit into the program's total token order: within an iteration,
operations access the unit in dataflow order, and every access of iteration
``k`` precedes every access of iteration ``k+1``.  Two consequences the
paper highlights (Sections 3 and 6):

* **Missed opportunities.**  The total order adds a dependency from each
  iteration's *last* access back to the next iteration's *first* access.
  When the grouped operations form a data chain (gsum's polynomial), that
  ordering cycle's latency exceeds the loop II, so the merge must be
  rejected — In-order cannot share what CRUSH's out-of-order access can.
* **Optimization cost.**  Deciding whether a merge preserves the II takes a
  *global* performance re-evaluation per candidate (the prior work re-runs
  its MILP).  This module faithfully re-runs the full maximum-cycle-ratio
  analysis of every performance-critical CFC, with the candidate's ordering
  edges added, for every candidate pair, after re-solving each CFC's slack
  LP — the MILP analog.  These per-candidate global re-evaluations are
  where CRUSH's ~90% runtime saving comes from.  The LP re-solves on
  HiGHS dominate the measured optimization time (about 85 % over the 14
  kernels at paper scale); the exact-integer cycle-ratio analysis is
  most of the rest.

Modelling notes (documented deviations): the wrapper we instantiate for
accepted groups reuses the credit-based hardware with priority arbitration
rather than a BB-order sequencer — for groups accepted by the order-safe
criterion the steady-state schedule is the same, while a cyclic sequencer
cannot span operations of sequentially-executed loop nests.  A true
fixed-order wrapper (:class:`~repro.circuit.FixedOrderMerge`) is available
and exercised by the Figure 1d / Figure 2 experiments.  Resource costing
of the In-order arbitration is handled by the resource library's
fixed-order merge entry (more FFs for the grant pointer, fewer LUTs than
the priority encoder — the paper's Figure 9 trade-off).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis import CFC, break_combinational_cycles, occupancy_map
from ..analysis.occupancy import group_occupancy_in_cfc
from ..analysis.throughput import WeightedEdge, max_cycle_ratio
from ..circuit import DataflowCircuit
from ..core.cost import SharingCostModel, default_cost_model
from ..core.credits import allocate_credits, output_buffer_slots
from ..core.groups import check_r1, sharing_candidates
from ..core.priority import priority_constraints
from ..core.wrapper import SharingWrapper, insert_sharing_wrapper


@dataclass
class InOrderResult:
    """Decision record of the In-order pass."""

    groups: List[List[str]]
    wrappers: List[SharingWrapper] = field(default_factory=list)
    opt_time_s: float = 0.0
    evaluations: int = 0  # how many global re-analyses were run
    #: Decision-time records mirroring :class:`~repro.core.crush.CrushResult`
    #: so ``repro.lint`` can check In-order circuits with the same rules.
    priorities: Dict[str, List[str]] = field(default_factory=dict)
    credits: Dict[str, Dict[str, int]] = field(default_factory=dict)
    occupancies: Dict[str, Fraction] = field(default_factory=dict)
    order_constraints: Dict[str, List[Tuple[str, str]]] = field(
        default_factory=dict
    )
    group_load: Dict[str, Fraction] = field(default_factory=dict)

    def group_key(self, group: Sequence[str]) -> str:
        return "+".join(group)


def total_order_of(group: Sequence[str], cfcs: Sequence[CFC]) -> List[str]:
    """The BB/dataflow total order of a group's operations.

    Operations are ordered by (containing CFC in program order, SCC
    topological position within it, name); operations outside every CFC
    come last.
    """
    def key(op: str):
        for idx, cfc in enumerate(cfcs):
            if op in cfc.unit_names:
                return (idx, cfc.scc_graph().topo_position(op), op)
        return (len(cfcs), 0, op)

    return sorted(group, key=key)


def order_preserves_ii(
    circuit: DataflowCircuit,
    cfcs: Sequence[CFC],
    group: Sequence[str],
) -> bool:
    """Global re-analysis: does a total access order keep every CFC's II?

    For each CFC the full weighted graph is rebuilt and the maximum cycle
    ratio recomputed with the ordering edges added: consecutive accesses
    are one cycle apart (the unit admits one issue per cycle), and the
    order wraps to the next iteration with one circulating token.
    """
    from ..analysis.lp_sizing import slack_lp

    ordered = total_order_of(group, cfcs)
    for cfc in cfcs:
        # The prior work re-solves the buffer-sizing formulation to judge
        # each decision; re-run the LP here so the measured optimization
        # time reflects that cost honestly.
        slack_lp(cfc)
        members = [op for op in ordered if op in cfc.unit_names]
        if len(members) < 2:
            continue
        base = max_cycle_ratio(cfc.weighted_edges()).ii
        edges: List[WeightedEdge] = list(cfc.weighted_edges())
        # Consecutive accesses issue at least one cycle apart ...
        for a, b in zip(members, members[1:]):
            edges.append(WeightedEdge(a, b, 1, 0))
        # ... and the order wraps: iteration k+1's first access follows
        # iteration k's last access (one circulating "turn" token).
        edges.append(WeightedEdge(members[-1], members[0], 1, 1))
        new_ii = max_cycle_ratio(edges).ii
        if new_ii > base:
            return False
    return True


def inorder_share(
    circuit: DataflowCircuit,
    cfcs: Sequence[CFC],
    candidates: Optional[Sequence[str]] = None,
    cost_model: Optional[SharingCostModel] = None,
) -> InOrderResult:
    """Apply total-order-based sharing to ``circuit`` in place."""
    t0 = time.perf_counter()
    if cost_model is None:
        cost_model = default_cost_model()
    if candidates is None:
        candidates = sharing_candidates(circuit)
    occ = occupancy_map(circuit, cfcs)
    groups: List[List[str]] = [[op] for op in candidates]
    evaluations = 0

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
                if not check_r1(circuit, union):
                    continue
                op_type = circuit.unit(union[0]).op
                if not cost_model.merge_reduces_cost(
                    op_type, len(groups[i]), len(groups[j])
                ):
                    continue
                evaluations += 1
                if not order_preserves_ii(circuit, cfcs, union):
                    continue
                groups[i] = union
                groups[j] = []
                modified = True

    result = InOrderResult(
        groups=[g for g in groups if g],
        evaluations=evaluations,
        occupancies=occ,
    )
    for group in result.groups:
        if len(group) < 2:
            continue
        order = total_order_of(group, cfcs)
        creds = allocate_credits(group, occ)
        key = result.group_key(group)
        result.priorities[key] = order
        result.credits[key] = creds
        result.order_constraints[key] = priority_constraints(group, cfcs)
        result.group_load[key] = max(
            (
                group_occupancy_in_cfc(circuit, group, cfc)
                for cfc in cfcs
                if cfc.ii().ii > 0
            ),
            default=Fraction(0),
        )
        wrapper = insert_sharing_wrapper(
            circuit,
            group,
            priority=order,
            credits=creds,
            ob_slots=output_buffer_slots(creds),
            arbitration="priority",
        )
        wrapper.arbitration = "inorder"
        # The total-order controller tracks the grant sequence in registers;
        # the resource model costs it accordingly (more FFs than CRUSH's
        # stateless priority encoder — the paper's Figure 9 trade-off).
        circuit.units[wrapper.arbiter].meta["order_state"] = True
        result.wrappers.append(wrapper)
    if result.wrappers:
        break_combinational_cycles(circuit)
        from ..analysis import insert_timing_buffers

        insert_timing_buffers(circuit)
    result.opt_time_s = time.perf_counter() - t0
    return result
