"""LP-based slack computation: the Gurobi-MILP analog for buffer sizing.

Dynamatic sizes buffers with a MILP [34]; the paper's In-order baseline
re-solves that formulation for every sharing decision, which dominates its
optimization time.  We solve the LP relaxation of the slack-matching
problem with SciPy's HiGHS backend: per channel of the (backedge-free)
CFC DAG a slack variable ``s_ch >= 0``, per unit an arrival time ``r_u``,
with ``r_v = r_u + lat(u) + s_ch`` for every channel ``u → v``, minimizing
total slack.  The solution assigns every reconvergent join balanced path
latencies using the fewest buffered cycles.

The solver is invoked once per CFC by the shared buffer-placement pass and
once per CFC *per candidate evaluation* by the In-order baseline — the
honest runtime analog of "repetitively solving the MILP formulation".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from ..errors import AnalysisError
from .cfc import CFC


def load_solver() -> None:
    """Import the LP solver now.  Its first import costs about half a
    second, so callers that time optimization call this beforehand."""
    import scipy.optimize  # noqa: F401


def slack_lp(cfc: CFC) -> Dict[int, float]:
    """Solve the slack LP for one CFC; returns channel-cid → slack cycles.

    Channels carrying circulating tokens (backedges, credits) are excluded:
    their slack is the loop II by construction.
    """
    from scipy.optimize import linprog

    channels = [
        ch for ch in cfc.internal_channels()
        if not cfc.circuit.channel_tokens(ch)
    ]
    units = sorted(cfc.unit_names)
    uidx = {n: i for i, n in enumerate(units)}
    n_r = len(units)
    n_s = len(channels)
    if n_s == 0:
        return {}

    # Variables: [r_0 .. r_{n_r-1}, s_0 .. s_{n_s-1}]
    # Equality:  r_v - r_u - s_ch = lat(u)
    a_eq = np.zeros((n_s, n_r + n_s))
    b_eq = np.zeros(n_s)
    for k, ch in enumerate(channels):
        a_eq[k, uidx[ch.dst.unit]] = 1.0
        a_eq[k, uidx[ch.src.unit]] = -1.0
        a_eq[k, n_r + k] = -1.0
        b_eq[k] = float(cfc.circuit.units[ch.src.unit].latency)
    c = np.concatenate([np.zeros(n_r), np.ones(n_s)])
    bounds = [(0, None)] * (n_r + n_s)
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise AnalysisError(
            f"slack LP infeasible for CFC {cfc.name!r}: {res.message} "
            "(is a backedge missing its token annotation?)"
        )
    return {
        ch.cid: float(res.x[n_r + k]) for k, ch in enumerate(channels)
    }


def sized_slots(slack: float, ii: Fraction) -> int:
    """Buffer slots needed to hold ``slack`` cycles of skew at the given II."""
    import math

    if slack <= 1e-9:
        return 0
    ii_f = float(ii) if ii > 0 else 1.0
    return max(1, math.ceil(slack / ii_f)) + 1
