"""Credit-system lint rules (``CR0xx``): the sharing pass' decision
records audited against the circuit built from them.

=======  ==================================================================
CR001    credit decision: a decided N_CC exceeds its decided N_OB (Eq. 1),
         or a built counter or output buffer drifted from the decision
CR002    access priority violates Algorithm 2: a consumer outranks its
         producer across an SCC-condensation edge
CR003    sharing group violates Algorithm 1's R1/R2/R3 merge rules
=======  ==================================================================

The decision record (:class:`~repro.core.crush.SharingResult`, one shape
for Naive, In-order and CRUSH) holds one
:class:`~repro.core.wrapper.SharingWrapper` per shared group, and each
holds what only decision time knows: the access priority, credits and
output-buffer slots the pass chose, Algorithm 2's must-precede pairs and
rule R2's group load, captured *before* the rewrite removes the grouped
units.  Eq. 1 and the uncredited (naive) slot on the built wrapper units
are ``FL002``'s, which needs no record.
"""

from __future__ import annotations

from typing import Callable

from ..analysis.occupancy import unit_capacity
from ..circuit import CreditCounter, TransparentFifo
from ..core.groups import check_r1, check_r2, check_r3
from .registry import LintContext, rule

Emit = Callable[..., None]


@rule(
    "CR001",
    "credit-overcommit",
    severity="error",
    summary="per-slot credits must not exceed output-buffer slots",
    paper="Eq. 1 (Sec. 4.3)",
)
def check_credit_overcommit(ctx: LintContext, emit: Emit) -> None:
    """Eq. 1: deadlock freedom needs ``N_CC,i <= N_OB,i`` for every
    operation sharing a unit — every granted credit must have a
    reserved output-buffer slot, so a result can always drain out of
    the shared unit.  This rule audits the decision record: the decided
    credits must fit the decided output buffer, and the built counter
    and buffer must still hold the decided values.  Eq. 1 on the built
    units themselves is ``FL002``'s."""
    # Decision-record drift: what the pass decided must match what was
    # built (a later transform resizing either side re-opens Eq. 1).
    for w in ctx.decisions.wrappers:
        for i, op in enumerate(w.group):
            dec_cc = w.credits.get(op)
            dec_ob = w.ob_slots.get(op)
            if dec_cc is not None and dec_ob is not None and dec_cc > dec_ob:
                emit(
                    f"decision record for group {'+'.join(w.group)}: "
                    f"{op!r} was allocated {dec_cc} credit(s) but only "
                    f"{dec_ob} output-buffer slot(s)",
                    unit=op,
                )
            if i < len(w.credit_counters):
                cc = ctx.circuit.units.get(w.credit_counters[i])
                if (
                    isinstance(cc, CreditCounter)
                    and dec_cc is not None
                    and cc.initial != dec_cc
                ):
                    emit(
                        f"{cc.describe()}: live initial credits "
                        f"{cc.initial} drifted from the decided N_CC = "
                        f"{dec_cc} for {op!r}",
                        unit=cc.name,
                    )
            # An elided output buffer ("") has no capacity to drift.
            ob = ctx.circuit.units.get(w.output_buffers[i])
            if (
                isinstance(ob, TransparentFifo)
                and dec_ob is not None
                and ob.slots != dec_ob
            ):
                emit(
                    f"{ob.describe()}: live capacity {ob.slots} "
                    f"drifted from the decided N_OB = {dec_ob} "
                    f"for {op!r}",
                    unit=ob.name,
                )


@rule(
    "CR002",
    "priority-order",
    severity="error",
    summary="access priority must follow SCC-condensation topo order",
    paper="Alg. 2 (Sec. 5.3)",
)
def check_priority_order(ctx: LintContext, emit: Emit) -> None:
    """Algorithm 2: within a performance-critical CFC, a producer must
    outrank its consumers at the shared unit's arbiter, or arbitration
    stalls the producer and stretches the II (paper Figure 4).  The
    must-precede pairs were recorded at decision time (the rewrite
    removed the grouped units); the rule checks the *built* arbiter
    permutation against them, plus drift against the recorded list."""
    for w in ctx.decisions.wrappers:
        key = "+".join(w.group)
        live = w.built_priority(ctx.circuit)
        if live is None or len(live) != len(w.group):
            continue  # arbiter missing/mangled: ST001's problem
        rank = {op: i for i, op in enumerate(live)}
        for a, b in w.order_constraints:
            if a in rank and b in rank and rank[a] > rank[b]:
                emit(
                    f"sharing group {key}: access priority ranks consumer "
                    f"{b!r} (rank {rank[b]}) above its producer {a!r} "
                    f"(rank {rank[a]}), against the SCC-condensation "
                    "topological order Algorithm 2 requires",
                    unit=w.arbiter,
                )
        if w.priority and w.priority != live:
            emit(
                f"sharing group {key}: built arbitration order {live} "
                f"drifted from the decided priority {w.priority}",
                unit=w.arbiter,
            )


@rule(
    "CR003",
    "merge-rules",
    severity="error",
    summary="sharing groups must satisfy merge rules R1/R2/R3",
    paper="Alg. 1 (Sec. 5.2)",
)
def check_merge_rules(ctx: LintContext, emit: Emit) -> None:
    """Algorithm 1's merge rules: R1 (same operation and latency), R2
    (summed steady-state occupancy within every CFC fits the unit's
    capacity), R3 (no two members at equal maximum simple distance from
    a common SCC member — the out-of-order hazard).  Checked directly
    when the grouped units are still in the circuit (pre-rewrite lint);
    after the rewrite, the recorded worst-case group load is re-checked
    against the live shared unit's capacity (R2's inequality)."""
    c = ctx.circuit
    for group in ctx.decisions.shared_groups():
        if not all(op in c.units for op in group):
            continue  # rewritten: its wrapper's record is checked below
        key = "+".join(group)
        if not check_r1(c, group):
            emit(
                f"sharing group {key}: members differ in operation "
                "type or latency (rule R1)",
            )
            continue
        for cfc in ctx.cfcs:
            if not check_r2(c, group, cfc, ctx.occupancies):
                emit(
                    f"sharing group {key}: summed occupancy in CFC "
                    f"{cfc.name!r} exceeds the unit capacity "
                    "(rule R2)",
                )
            if not check_r3(c, group, cfc):
                emit(
                    f"sharing group {key}: two members sit at equal "
                    f"maximum simple distance within an SCC of CFC "
                    f"{cfc.name!r} — out-of-order token hazard "
                    "(rule R3)",
                )
    # Post-rewrite: the members are gone; re-check R2 from the records.
    for w in ctx.decisions.wrappers:
        shared = c.units.get(w.shared_unit)
        if w.group_load is None or shared is None:
            continue  # undecided, or ST001/ST004 territory
        if all(op in c.units for op in w.group):
            continue  # not rewritten: checked directly above
        capacity = unit_capacity(shared)
        if w.group_load > capacity:
            emit(
                f"sharing group {'+'.join(w.group)}: recorded worst-case "
                f"occupancy {w.group_load} exceeds shared unit "
                f"{w.shared_unit!r} capacity {capacity} (rule R2); the "
                "merge overloads the unit",
                unit=w.shared_unit,
            )
