"""Diagnostic model shared by static lint and the runtime sanitizer.

A :class:`Diagnostic` is one finding with a stable rule code (``CR001``,
``ST005``, ``SAN002``, ...), a severity, and optional unit/channel anchors;
a :class:`LintReport` aggregates the findings for one circuit and maps
them to the CLI exit-code convention:

========================  ====
clean                     0
warnings only             3
any error                 4
========================  ====

(0–2 are taken: 1 = crash, 2 = argparse usage error.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:
    from .registry import LintContext

#: Allowed severities, mildest first.
SEVERITIES = ("info", "warning", "error")

#: Exit codes for ``python -m repro lint``.
EXIT_CLEAN = 0
EXIT_WARNINGS = 3
EXIT_ERRORS = 4


@dataclass
class Diagnostic:
    """One lint or sanitizer finding."""

    code: str
    severity: str
    message: str
    #: Unit name the finding anchors to, when one exists.
    unit: Optional[str] = None
    #: Channel label the finding anchors to, when one exists.
    channel: Optional[str] = None
    #: ``"lint"`` for static findings, ``"sanitize"`` for runtime ones.
    source: str = "lint"
    #: Simulation cycle, for sanitizer findings.
    cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            from ..errors import LintError

            raise LintError(
                f"diagnostic {self.code}: unknown severity "
                f"{self.severity!r} (choose from {SEVERITIES})"
            )

    def format(self) -> str:
        loc = self.unit or self.channel
        parts = [f"{self.code} {self.severity}"]
        if loc:
            parts.append(f"[{loc}]")
        if self.cycle is not None:
            parts.append(f"@cycle {self.cycle}")
        return " ".join(parts) + f": {self.message}"

    def to_dict(self) -> Dict:
        d = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "source": self.source,
        }
        if self.unit is not None:
            d["unit"] = self.unit
        if self.channel is not None:
            d["channel"] = self.channel
        if self.cycle is not None:
            d["cycle"] = self.cycle
        return d

    @classmethod
    def from_dict(cls, data: Dict) -> "Diagnostic":
        return cls(
            code=data["code"],
            severity=data["severity"],
            message=data["message"],
            unit=data.get("unit"),
            channel=data.get("channel"),
            source=data.get("source", "lint"),
            cycle=data.get("cycle"),
        )


@dataclass
class LintReport:
    """All diagnostics for one linted circuit."""

    circuit: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: The :class:`~repro.lint.registry.LintContext` the rules ran over
    #: (``None`` for hand-built reports).  Callers read its cached
    #: token-flow and memory-dependence analyses instead of recomputing
    #: them.  Neither serialized nor compared.
    context: Optional["LintContext"] = field(
        default=None, repr=False, compare=False
    )

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when nothing of severity warning-or-worse was found."""
        return not self.errors and not self.warnings

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def exit_code(self, strict: bool = False) -> int:
        """Map findings to the CLI exit-code convention.

        ``strict`` promotes warnings to the error exit code (the findings
        themselves keep their severity).
        """
        if self.errors:
            return EXIT_ERRORS
        if self.warnings:
            return EXIT_ERRORS if strict else EXIT_WARNINGS
        return EXIT_CLEAN

    def format(self) -> str:
        """Human-readable multi-line report."""
        head = (
            f"lint {self.circuit}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        if not self.diagnostics:
            return head + " -- clean"
        return head + "\n  " + "\n  ".join(
            d.format() for d in self.diagnostics
        )

    def to_dict(self) -> Dict:
        return {
            "circuit": self.circuit,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
