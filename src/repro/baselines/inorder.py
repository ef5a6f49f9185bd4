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

The pass is CRUSH's (:mod:`repro.core.crush`) with two policies swapped:
the merge test of Algorithm 1's loop (:func:`~repro.core.groups.merge_groups`)
is the cost model followed by :func:`order_preserves_ii`, and each group's
access order is its total order (:func:`total_order_of`).  Both passes
return a :class:`~repro.core.crush.SharingResult`.

Modelling notes (documented deviations): the wrapper we instantiate for
accepted groups reuses the credit-based hardware with priority arbitration
(``arbitration="inorder"``) rather than a BB-order sequencer — for groups
accepted by the order-safe criterion the steady-state schedule is the same,
while a cyclic sequencer cannot span operations of sequentially-executed
loop nests.  A true fixed-order wrapper (:class:`~repro.circuit.FixedOrderMerge`)
is available and exercised by the Figure 1d / Figure 2 experiments.  The
``"inorder"`` arbiter is tagged ``order_state``, which the resource library
costs like the fixed-order merge (more FFs for the grant pointer, fewer
LUTs than the priority encoder — the paper's Figure 9 trade-off).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..analysis import CFC, occupancy_map
from ..analysis.throughput import WeightedEdge, max_cycle_ratio
from ..circuit import DataflowCircuit
from ..core.cost import SharingCostModel, default_cost_model
from ..core.crush import SharingResult, insert_wrappers
from ..core.groups import merge_groups


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
) -> SharingResult:
    """Apply total-order-based sharing to ``circuit`` in place."""
    t0 = time.perf_counter()
    if cost_model is None:
        cost_model = default_cost_model()
    result = SharingResult(occupancies=occupancy_map(circuit, cfcs))

    def accept(g_i: List[str], g_j: List[str]) -> bool:
        op_type = circuit.unit(g_i[0]).op
        if not cost_model.merge_reduces_cost(op_type, len(g_i), len(g_j)):
            return False
        result.evaluations += 1
        return order_preserves_ii(circuit, cfcs, g_i + g_j)

    result.groups = merge_groups(circuit, candidates, accept)
    insert_wrappers(circuit, cfcs, result, total_order_of, "inorder")
    result.opt_time_s = time.perf_counter() - t0
    return result
