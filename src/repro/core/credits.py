"""Credit allocation: Equation 3 of the paper (Section 5.4).

For each operation ``op`` in a sharing group, the initial credit count is

    N_CC,op = Φ_op + 1

where ``Φ_op = lat_op / II`` is the operation's token occupancy.  ``Φ_op``
credits keep the shared unit as full as the pre-sharing pipeline was; the
extra credit hides the one-cycle credit-return latency and covers the token
that waits in the output buffer for its (arbitration-delayed) successor.
Output buffers get ``N_OB = N_CC`` slots (the wrapper builder's default),
the tightest sizing that honors the deadlock-freedom constraint of
Equation 1.

Occupancies are fractional; credits are physical tokens, so we allocate
``ceil(Φ_op) + 1``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, Sequence


def credits_for_op(occupancy: Fraction) -> int:
    """Equation 3, rounded up to whole credits (minimum 1)."""
    if occupancy < 0:
        raise ValueError(f"negative occupancy {occupancy}")
    return max(1, math.ceil(occupancy) + 1)


def allocate_credits(
    group: Sequence[str], occupancies: Mapping[str, Fraction]
) -> Dict[str, int]:
    """Per-operation initial credit counts for one sharing group."""
    return {op: credits_for_op(occupancies.get(op, Fraction(0))) for op in group}
