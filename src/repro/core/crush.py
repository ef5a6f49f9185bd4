"""The top-level CRUSH pass: groups → priorities → credits → wrappers.

This is the pipeline the paper evaluates (Section 6.1): given a buffered
dataflow circuit and its performance-critical CFCs,

1. compute per-CFC IIs and token occupancies,
2. form sharing groups with Algorithm 1 (rules R1/R2/R3 + the Equation-2
   cost model),
3. assign each group an access priority with Algorithm 2,
4. allocate credits by Equation 3 and size output buffers by Equation 1,
5. rewrite the circuit, replacing each multi-operation group with a
   credit-based sharing wrapper.

The result records the groups, one :class:`SharingWrapper` per shared
group (its priority, credits, buffers, must-precede pairs and load), and
the measured optimization time, the quantity the paper's Tables 2-3
report in the ``Opt. time`` column.  The record (:class:`SharingResult`)
and the rewrite of steps 3-5 (:func:`insert_wrappers`) are the
baselines' too: Naive returns an empty record, and In-order
(:mod:`repro.baselines.inorder`) runs the same pass with its own merge
test, access order and arbiter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis import (
    CFC,
    break_combinational_cycles,
    critical_cfcs,
    group_occupancy_in_cfc,
    insert_timing_buffers,
    occupancy_map,
)
from ..circuit import DataflowCircuit
from .cost import SharingCostModel, default_cost_model
from .credits import allocate_credits
from .groups import sharing_groups
from .priority import access_priority, priority_constraints
from .wrapper import SharingWrapper, insert_sharing_wrapper


@dataclass
class SharingResult:
    """Everything a sharing pass (Naive, In-order or CRUSH) decided and did.

    Naive records no groups; In-order and CRUSH record every candidate's
    group, singletons included, and one :class:`SharingWrapper` per group
    they shared, which holds that group's decisions.
    """

    groups: List[List[str]] = field(default_factory=list)
    wrappers: List[SharingWrapper] = field(default_factory=list)
    occupancies: Dict[str, Fraction] = field(default_factory=dict)
    opt_time_s: float = 0.0
    #: Global re-analyses the In-order merge test ran (0 for the others).
    evaluations: int = 0

    def units_removed(self) -> int:
        """Functional units eliminated by sharing."""
        return sum(len(g) - 1 for g in self.groups if len(g) > 1)

    def shared_groups(self) -> List[List[str]]:
        return [g for g in self.groups if len(g) > 1]


def insert_wrappers(
    circuit: DataflowCircuit,
    cfcs: Sequence[CFC],
    result: SharingResult,
    access_order: Callable[[Sequence[str], Sequence[CFC]], List[str]],
    arbitration: str,
) -> None:
    """Rewrite every shared group of ``result`` into a sharing wrapper.

    Per group: the access order ``access_order(group, cfcs)``, Eq. 3
    credits, then the wrapper itself (:func:`insert_sharing_wrapper` with
    ``arbitration``, whose output buffers default to N_OB = N_CC, Eq. 1).
    Each wrapper's record is appended to ``result.wrappers``.
    """
    for group in result.shared_groups():
        # Algorithm 2's must-precede pairs and rule R2's group load need
        # the grouped units, which the rewrite removes: take them first.
        order_constraints = priority_constraints(group, cfcs)
        group_load = max(
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
            priority=access_order(group, cfcs),
            credits=allocate_credits(group, result.occupancies),
            arbitration=arbitration,
        )
        wrapper.order_constraints = order_constraints
        wrapper.group_load = group_load
        result.wrappers.append(wrapper)
    if result.wrappers:
        # When grouped operations feed each other, the wrapper's output path
        # (transparent OB, lazy fork) loops combinationally back into its
        # input path (join, arbiter); a pipeline register breaks the loop,
        # exactly as hardware would require.  The timing pass then registers
        # the operand/result chains the wrapper lengthened; the arbitration
        # logic itself stays combinational, so a residual CP overhead that
        # grows with the group size remains (paper Section 6.4).
        break_combinational_cycles(circuit)
        insert_timing_buffers(circuit)


def crush(
    circuit: DataflowCircuit,
    cfcs: Optional[Sequence[CFC]] = None,
    candidates: Optional[Sequence[str]] = None,
    cost_model: Optional[SharingCostModel] = None,
) -> SharingResult:
    """Apply CRUSH to ``circuit`` in place and return the decision record.

    ``cfcs`` defaults to the frontend-tagged performance-critical CFCs;
    ``candidates`` to every shareable (floating-point) functional unit;
    ``cost_model`` to the FPGA-calibrated Equation-2 model.
    """
    t0 = time.perf_counter()
    if cfcs is None:
        cfcs = critical_cfcs(circuit)
    if cost_model is None:
        cost_model = default_cost_model()
    occ = occupancy_map(circuit, cfcs)
    result = SharingResult(
        groups=sharing_groups(circuit, cfcs, occ, candidates, cost_model),
        occupancies=occ,
    )
    insert_wrappers(circuit, cfcs, result, access_priority, "priority")
    result.opt_time_s = time.perf_counter() - t0
    return result
