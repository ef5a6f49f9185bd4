"""Static analysis for constructed dataflow circuits (``repro.lint``).

Checks a :class:`~repro.circuit.DataflowCircuit` — and, when available,
the sharing decisions that produced it — *without simulating*: the
decision records (Eq. 1, Algorithm 1, Algorithm 2) as ``CR0xx`` rules,
structural well-formedness as ``ST0xx``, whole-circuit token flow (Eq. 1
on the built wrappers, marked-graph liveness, Eq. 3) as ``FL0xx`` and
memory dependence as ``MD0xx``; each invariant has one owning rule.
The runtime handshake sanitizer (:mod:`repro.sim.sanitize`) reports
through the same :class:`Diagnostic` type with ``SAN0xx`` codes.

Usage::

    from repro.lint import run_lint
    report = run_lint(circuit, decisions=share_result, cfcs=cfcs)
    if not report.ok:
        print(report.format())

or from the command line::

    python -m repro lint histogram crush --strict

This module deliberately imports only the diagnostic model and the
registry; the rule implementations (which reach into ``repro.sim`` and
``repro.analysis``) load lazily on the first :func:`run_lint` call.
"""

from .diagnostics import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    SEVERITIES,
    Diagnostic,
    LintReport,
)
from .registry import (
    RULES,
    LintConfig,
    LintContext,
    LintRule,
    raise_on_errors,
    rule,
    run_lint,
)
from .sarif import sarif_json, sarif_log

__all__ = [
    "sarif_json",
    "sarif_log",
    "Diagnostic",
    "LintReport",
    "LintConfig",
    "LintContext",
    "LintRule",
    "RULES",
    "rule",
    "run_lint",
    "raise_on_errors",
    "SEVERITIES",
    "EXIT_CLEAN",
    "EXIT_WARNINGS",
    "EXIT_ERRORS",
]
