"""Token-flow lint rules (``FL0xx``): the static deadlock-freedom proof
and throughput prediction of :mod:`repro.analysis.tokenflow`, surfaced
as diagnostics.

=======  ==================================================================
FL001    zero-token cycle: some cycle of the marked-graph abstraction
         carries latency but no circulating token — a certain structural
         deadlock; the exact starved cycle is reported
FL002    sharing-wrapper head-of-line hazard: credits exceed output-buffer
         slots (Eq. 1), a wrapper has no credit counters at all, or a
         slot's interior result path is broken
FL003    credit undersized: ``N_CC < ceil(Φ_op) + 1`` (Eq. 3) — the slot
         cannot keep the shared unit as busy as the pre-sharing pipeline,
         so sharing costs throughput the paper says it shouldn't
FL004    credit oversized: ``N_CC > ceil(Φ_op) + 1`` — extra credits buy
         no throughput (Eq. 3 is exact) but cost buffer slots via Eq. 1
FL005    predicted-II regression: the statically predicted steady-state
         II exceeds the recorded golden for this (kernel, technique)
=======  ==================================================================

FL001/FL002 are the *deadlock-freedom proof*: both clean means every
cycle can circulate a token and every credit has a reserved output slot.
FL003/FL004 re-derive Eq. 3 from the recorded occupancies and compare
against the built counters.  FL005 only fires when the caller supplies
an expected II (``run_lint(..., expected_ii=...)``; the CLI reads it
from the golden files via ``--golden-dir``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict

from ..circuit import CreditCounter
from ..errors import AnalysisError
from .registry import LintContext, rule

Emit = Callable[..., None]


def _occupancies_or_none(ctx: LintContext) -> "Dict[str, Fraction] | None":
    """The occupancy map, or None when it cannot be derived.

    Without decision records the map is recomputed from the CFC IIs,
    which raises on a structurally deadlocked graph — a condition FL001
    already reports with the exact starved cycle; the Eq. 3 rules then
    simply have nothing sound to compare against.
    """
    try:
        return dict(ctx.occupancies)
    except AnalysisError:
        return None


@rule(
    "FL001",
    "zero-token-cycle",
    severity="error",
    summary="every cycle of the marked graph must carry >= 1 token",
    paper="Eq. 1 context (Sec. 4.3); marked-graph liveness",
)
def check_zero_token_cycle(ctx: LintContext, emit: Emit) -> None:
    """A cycle with latency but no circulating token can never fire: every
    unit on it waits forever for a token only the cycle itself could
    produce.  The token-flow analyzer checks this per SCC of the
    slot-expanded handshake graph (backedge annotations and initial
    credits are the tokens) and names the exact starved cycle."""
    for issue in ctx.flow.issues_of("zero-token-cycle"):
        emit(issue.message, unit=issue.unit)


@rule(
    "FL002",
    "head-of-line-hazard",
    severity="error",
    summary="wrapper structure must guarantee results can always drain",
    paper="Eq. 1 (Sec. 4.3), Fig. 1b",
)
def check_head_of_line(ctx: LintContext, emit: Emit) -> None:
    """Structural head-of-line hazards on built wrapper units: Eq. 1
    violated on the live counters/buffers (``N_CC > N_OB``), a wrapper
    with unbounded in-flight results (no credit counters — the naive
    wrapper the paper's Figure 1b motivates with), or a slot whose
    interior result path is broken.  A counter's credits are stored
    once, as its ``initial``, so one resized counter is one finding.
    Complements ``CR001``, which audits the *decision records*; this
    rule audits the *graph*."""
    for kind in ("credit-overcommit", "uncredited-wrapper", "broken-slot-path"):
        for issue in ctx.flow.issues_of(kind):
            emit(issue.message, unit=issue.unit)


def _built_credits(ctx: LintContext) -> Dict[str, int]:
    """Per-operation initial credits actually built, by original op name."""
    out: Dict[str, int] = {}
    for view in ctx.flow.views:
        if not view.credited or not view.group:
            continue
        for i, op in enumerate(view.group):
            cc = ctx.circuit.units.get(view.credit_counters[i])
            if op and isinstance(cc, CreditCounter):
                out[op] = cc.initial
    return out


@rule(
    "FL003",
    "credit-undersized",
    severity="warning",
    summary="initial credits must reach ceil(occupancy) + 1",
    paper="Eq. 3 (Sec. 5.4)",
)
def check_credit_undersized(ctx: LintContext, emit: Emit) -> None:
    """Eq. 3: an operation with steady-state occupancy Φ needs
    ``ceil(Φ) + 1`` credits — Φ to keep the shared unit as full as the
    dedicated unit was, plus one hiding the registered credit-return
    cycle.  Fewer credits throttle the issue rate below the loop's
    natural II: sharing then costs throughput, defeating the paper's
    central claim.  Not a deadlock (Eq. 1 may still hold), hence a
    warning."""
    from ..core.credits import credits_for_op

    credits = _built_credits(ctx)
    occ = _occupancies_or_none(ctx) if credits else None
    if occ is None:
        return
    for op, built in sorted(credits.items()):
        need = credits_for_op(occ.get(op, Fraction(0)))
        if built < need:
            emit(
                f"operation {op!r}: built with {built} credit(s) but "
                f"occupancy {occ.get(op, Fraction(0))} needs "
                f"ceil(occupancy) + 1 = {need} (Eq. 3); the shared unit "
                "will idle and stretch the II",
                unit=op,
            )


@rule(
    "FL004",
    "credit-oversized",
    severity="warning",
    summary="credits beyond ceil(occupancy) + 1 buy nothing",
    paper="Eq. 3 (Sec. 5.4), Sec. 6.3",
)
def check_credit_oversized(ctx: LintContext, emit: Emit) -> None:
    """Eq. 3 is exact: credits beyond ``ceil(Φ) + 1`` cannot raise the
    issue rate (the loop's own cycle ratio is the binding constraint)
    but each one forces an output-buffer slot via Eq. 1 — pure resource
    waste, the overhead the paper's Section 6.3 measures."""
    from ..core.credits import credits_for_op

    credits = _built_credits(ctx)
    occ = _occupancies_or_none(ctx) if credits else None
    if occ is None:
        return
    for op, built in sorted(credits.items()):
        need = credits_for_op(occ.get(op, Fraction(0)))
        if built > need:
            emit(
                f"operation {op!r}: built with {built} credit(s) but "
                f"occupancy {occ.get(op, Fraction(0))} only needs "
                f"ceil(occupancy) + 1 = {need} (Eq. 3); the surplus "
                f"{built - need} credit(s) waste output-buffer slots",
                unit=op,
            )


@rule(
    "FL005",
    "predicted-ii-regression",
    severity="warning",
    summary="statically predicted II must not exceed the recorded golden",
    paper="Sec. 6.3 (throughput preservation)",
)
def check_predicted_ii(ctx: LintContext, emit: Emit) -> None:
    """Compares the token-flow analyzer's predicted steady-state II
    against a recorded golden value for this (kernel, technique).  A
    higher prediction means some structural change — a mis-ordered
    arbiter (the analyzer prices priority inversions at a full pipeline
    pass), a shrunken buffer, a lost credit — degraded the circuit's
    throughput bound since the golden was recorded.  Skipped unless the
    caller supplies ``expected_ii``."""
    expected = ctx.expected_ii
    if expected is None:
        return
    predicted = ctx.flow.ii
    if predicted is None:
        return  # deadlocked or CFC-free: FL001's territory, not a regression
    if predicted > expected:
        detail = ", ".join(
            f"{name}: {pred.ii}"
            for name, pred in sorted(ctx.flow.predictions.items())
            if pred.ii is not None
        )
        emit(
            f"predicted steady-state II {predicted} exceeds the recorded "
            f"golden II {Fraction(expected)} (per-CFC: {detail}); a "
            "structural change degraded the throughput bound",
        )
