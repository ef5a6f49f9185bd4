"""Simulation observability: where do the simulator's cycles go?

A :class:`SimProfile` can be handed to either simulation backend
(``Engine(..., profile=p)`` / ``CodegenEngine(..., profile=p)``, or
``create_engine(..., profile=p)``).  The engine then accumulates the
following, the event engine in its ``step`` and codegen through its
profiled source variant:

* per-unit combinational evaluation counts (which units the simulator
  actually touches — the event engine's sparsity and the codegen
  backend's activation gating make this far from uniform),
* per-phase wall-clock time: combinational settling, the fire scan, and
  the sequential tick phase,
* total profiled wall-clock and cycle counts, from which
  :attr:`cycles_per_sec` derives the headline throughput number.

Profiling costs a couple of timer calls per cycle, so it is opt-in; an
engine without a profile makes none of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class SimProfile:
    """Accumulator for one engine run's hot-loop statistics."""

    def __init__(self):
        self.backend: str = "?"
        self.unit_names: List[str] = []
        self.eval_counts: List[int] = []
        self.tick_counts: List[int] = []
        #: Wall-clock seconds per phase of the profiled cycles.
        self.comb_s: float = 0.0
        self.fire_s: float = 0.0
        self.tick_s: float = 0.0
        #: Total profiled wall-clock (sum of full step() durations).
        self.wall_s: float = 0.0
        self.cycles: int = 0
        self.fires: int = 0

    # Called once by the engine that adopts this profile.
    def bind(self, unit_names: List[str], backend: str) -> None:
        self.backend = backend
        self.unit_names = list(unit_names)
        self.eval_counts = [0] * len(self.unit_names)
        self.tick_counts = [0] * len(self.unit_names)

    # ------------------------------------------------------------- derived
    @property
    def total_evals(self) -> int:
        return sum(self.eval_counts)

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def evals_per_cycle(self) -> float:
        return self.total_evals / self.cycles if self.cycles else 0.0

    def hot_units(self, top: int = 10) -> List[Tuple[str, int]]:
        """The ``top`` most-evaluated units, hottest first."""
        pairs = sorted(
            zip(self.unit_names, self.eval_counts),
            key=lambda nc: nc[1],
            reverse=True,
        )
        return [(n, c) for n, c in pairs[:top] if c > 0]

    # ------------------------------------------------------------- output
    def report(self, top: int = 10) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"backend          {self.backend}",
            f"cycles           {self.cycles}",
            f"channel fires    {self.fires}",
            f"unit evals       {self.total_evals}"
            f"  ({self.evals_per_cycle:.1f}/cycle)",
        ]
        lines.append(f"wall time        {self.wall_s * 1e3:.1f} ms")
        if self.wall_s > 0:
            lines.append(f"throughput       {self.cycles_per_sec:,.0f} cycles/s")
        phases = [
            ("comb settle", self.comb_s),
            ("fire scan", self.fire_s),
            ("tick", self.tick_s),
        ]
        accounted = sum(s for _, s in phases)
        phases.append(("other", max(0.0, self.wall_s - accounted)))
        for label, secs in phases:
            share = 100.0 * secs / self.wall_s if self.wall_s > 0 else 0.0
            lines.append(f"  {label:<12} {secs * 1e3:8.1f} ms  {share:5.1f}%")
        hot = self.hot_units(top)
        if hot:
            lines.append(f"hottest units (top {len(hot)}):")
            width = max(len(n) for n, _ in hot)
            for name, count in hot:
                per = count / self.cycles if self.cycles else 0.0
                lines.append(f"  {name:<{width}}  {count:>10}  {per:6.2f}/cycle")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "cycles": self.cycles,
            "fires": self.fires,
            "total_evals": self.total_evals,
            "evals_per_cycle": self.evals_per_cycle,
            "wall_s": self.wall_s,
            "comb_s": self.comb_s,
            "fire_s": self.fire_s,
            "tick_s": self.tick_s,
            "cycles_per_sec": self.cycles_per_sec,
            "hot_units": self.hot_units(),
        }
