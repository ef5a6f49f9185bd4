"""The sharing cost model: Equation 2 of the paper (Section 4.3).

    cost(T) = C_T * |groups|  +  Σ_{G_i} C_WP(|G_i|)

The first term is what sharing *saves*: one physical unit of type ``T`` per
non-empty group instead of one per operation.  The second term is what
sharing *costs*: selection/arbitration/buffer logic growing with the group
size.  The model is deliberately platform-parametric — ``C_T`` and
``C_WP`` are injected, so FPGAs (DSP-weighted) and ASICs (area-weighted)
both fit.  The greedy grouping heuristic (Algorithm 1) consults
:meth:`SharingCostModel.merge_reduces_cost` before merging two groups, which
is what stops it from, e.g., sharing cheap integer adders whose wrapper
would cost more than the adders themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence


@dataclass
class SharingCostModel:
    """Equation 2 with injected platform parameters.

    ``unit_cost(T)`` is one shared unit's resource cost ``C_T``;
    ``wrapper_cost(T, size)`` is ``C_WP(|G|)`` (a group of size 1 costs 0:
    an unshared operation needs no wrapper).
    """

    unit_cost: Callable[[str], float]
    wrapper_cost: Callable[[str, int], float]

    def group_cost(self, op_type: str, size: int) -> float:
        if size < 1:
            return 0.0
        wrapper = self.wrapper_cost(op_type, size) if size > 1 else 0.0
        return self.unit_cost(op_type) + wrapper

    def total_cost(self, op_type: str, group_sizes: Sequence[int]) -> float:
        """Equation 2 for one operation type."""
        return sum(self.group_cost(op_type, s) for s in group_sizes if s > 0)

    def merge_reduces_cost(self, op_type: str, size_a: int, size_b: int) -> bool:
        before = self.group_cost(op_type, size_a) + self.group_cost(op_type, size_b)
        after = self.group_cost(op_type, size_a + size_b)
        return after < before


def default_cost_model() -> SharingCostModel:
    """Cost model backed by the FPGA resource library (DSP-weighted).

    A unit's cost is its DSP count weighted heavily (DSPs are the scarce
    resource on the paper's Kintex-7 target: 600 DSPs vs. 101k LUTs) plus
    its LUT/FF cost; the wrapper's cost is the summed LUT/FF cost of the
    dataflow units :func:`~repro.core.wrapper.insert_sharing_wrapper`
    builds (:func:`~repro.core.standalone.wrapper_cost`).  Imported lazily
    to keep ``repro.core`` free of a hard dependency on the resource
    library.
    """
    from ..resources.library import unit_equivalent_cost
    from .standalone import wrapper_cost

    return SharingCostModel(
        unit_cost=unit_equivalent_cost,
        wrapper_cost=wrapper_cost,
    )
