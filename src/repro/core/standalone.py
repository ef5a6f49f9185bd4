"""Standalone sharing wrappers: isolated synthesis of the sharing logic.

The paper's Figures 9 and 10 synthesize the sharing wrapper *in isolation*
(each building block of Figure 3 on its own) to characterize its cost as
the group size grows.  This module builds exactly that: ``|G|`` operations
of one type fed by independent streams, wrapped by the requested strategy,
with per-component resource breakdowns.  The same wrapper, with two
credits per operation, defines Equation 2's ``C_WP`` (:func:`wrapper_cost`).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Optional, Tuple

from ..circuit import DataflowCircuit, FunctionalUnit, Sequence, Sink, op_spec
from ..resources import Resources, equivalent_cost, estimate_units, unit_resources
from .credits import credits_for_op
from .wrapper import SharingWrapper, insert_sharing_wrapper


def build_standalone_group(
    n: int, op: str = "fadd", tokens: int = 4
) -> Tuple[DataflowCircuit, list]:
    """``n`` independent operations of one type with stream sources/sinks."""
    c = DataflowCircuit(f"standalone_{op}_{n}")
    names = []
    for i in range(n):
        a = c.add(Sequence(f"a{i}", [float(k) for k in range(tokens)]))
        b = c.add(Sequence(f"b{i}", [float(i)] * tokens))
        fu = c.add(FunctionalUnit(f"op{i}", op))
        s = c.add(Sink(f"s{i}"))
        c.connect(a, 0, fu, 0)
        c.connect(b, 0, fu, 1)
        c.connect(fu, 0, s, 0)
        names.append(fu.name)
    c.validate()
    return c, names


def paper_credits(n: int, op: str = "fadd") -> int:
    """Figure 10's credit sizing: Eq. 3 with Φ_op = lat_op / |G|."""
    return credits_for_op(Fraction(op_spec(op).latency, n))


@functools.lru_cache(maxsize=None)
def wrapper_cost(op: str, n: int) -> float:
    """``C_WP(|G|)`` of Equation 2: the equivalent cost of the wrapper
    :func:`insert_sharing_wrapper` builds around ``n`` standalone ``op``
    units with two credits (and so two output-buffer slots) each, the
    typical Equation-3 allocation of the paper's workloads.  The shared
    unit is ``C_T``'s, not the wrapper's.  A group of one needs no
    wrapper and costs 0."""
    if n < 2:
        return 0.0
    c, names = build_standalone_group(n, op)
    w = insert_sharing_wrapper(c, names, credits=dict.fromkeys(names, 2))
    return equivalent_cost(
        estimate_units(
            c.units[name] for name in w.all_unit_names() if name != w.shared_unit
        )
    )


def build_shared_standalone(
    n: int,
    op: str = "fadd",
    strategy: str = "crush",
) -> Tuple[DataflowCircuit, Optional[SharingWrapper]]:
    """A standalone group shared by CRUSH or the In-order strategy.

    ``n == 1`` returns the unshared single unit (no wrapper).
    """
    c, names = build_standalone_group(n, op)
    if n < 2:
        return c, None
    if strategy not in ("crush", "inorder"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n_cc = paper_credits(n, op)
    credits = {nm: n_cc for nm in names}
    arbitration = "inorder" if strategy == "inorder" else "priority"
    return c, insert_sharing_wrapper(
        c, names, credits=credits, arbitration=arbitration
    )


def shared_group_resources(
    n: int, op: str = "fadd", strategy: str = "crush"
) -> Resources:
    """Total resources of the shared unit plus its wrapper (Figure 9)."""
    c, wrapper = build_shared_standalone(n, op, strategy)
    if wrapper is None:
        return unit_resources(c.units[f"op0"])
    units = [c.units[nm] for nm in wrapper.all_unit_names()]
    return estimate_units(units)


def unshared_group_resources(n: int, op: str = "fadd") -> Resources:
    """Resources of ``n`` dedicated units (the not-sharing alternative)."""
    from ..resources import functional_unit_resources

    return functional_unit_resources(op).scaled(n)


def wrapper_component_breakdown(
    n: int, op: str = "fadd"
) -> Dict[str, Resources]:
    """Per-component resources of a CRUSH wrapper (the paper's Figure 10)."""
    c, wrapper = build_shared_standalone(n, op, "crush")
    if wrapper is None:
        return {"Shared unit": unit_resources(c.units["op0"])}
    by_name = c.units
    out: Dict[str, Resources] = {}
    out["Credit counters"] = estimate_units(
        by_name[nm] for nm in wrapper.credit_counters
    )
    out["Joins"] = estimate_units(by_name[nm] for nm in wrapper.joins)
    out["Branch"] = unit_resources(by_name[wrapper.branch])
    out["Shared unit"] = unit_resources(by_name[wrapper.shared_unit])
    out["Condition buffer"] = unit_resources(by_name[wrapper.cond_buffer])
    out["Merges and muxes"] = unit_resources(by_name[wrapper.arbiter])
    out["Output buffers"] = estimate_units(
        by_name[nm] for nm in wrapper.output_buffers
    ) + estimate_units(by_name[nm] for nm in wrapper.lazy_forks)
    return out

