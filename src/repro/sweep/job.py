"""Sweep job descriptions and evaluation-matrix builders.

A :class:`SweepJob` is a frozen, hashable description of one
``run_technique`` invocation — one row of the paper's Tables 2/3 or one
point of an ablation.  Matrices (the cross product the paper evaluates)
are built with :func:`build_matrix`, optionally filtered down to a subset
of kernels/techniques/styles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError
from ..frontend.kernels import KERNEL_NAMES
from ..pipeline import TECHNIQUES

STYLES = ("bb", "fast-token")
SCALES = ("small", "paper")


@dataclass(frozen=True)
class SweepJob:
    """One (kernel, technique, style, scale) pipeline evaluation.

    ``size_overrides`` is stored as a sorted tuple of ``(name, value)``
    pairs so the job stays hashable and its canonical form is independent
    of keyword order.
    """

    kernel: str
    technique: str
    style: str = "bb"
    scale: str = "paper"
    size_overrides: Tuple[Tuple[str, int], ...] = ()
    simulate: bool = True
    max_cycles: int = 4_000_000
    #: Simulation backend (``"event"`` / ``"codegen"``; None = default).
    #: Part of the cache key: backends are bit-identical, but a cached
    #: row must record which engine actually produced it.
    sim_backend: Optional[str] = None
    #: Input-data seed (``cycles`` depends on it for data-dependent
    #: kernels).  Jobs differing only in seed are candidates for one
    #: lane-parallel batched simulation (``run_sweep(..., lanes=B)``);
    #: their cache rows stay per-seed either way.
    seed: int = 7

    def __post_init__(self) -> None:
        normalized = tuple(sorted(
            (str(k), int(v)) for k, v in dict(self.size_overrides).items()
        ))
        object.__setattr__(self, "size_overrides", normalized)

    @property
    def overrides(self) -> Dict[str, int]:
        return dict(self.size_overrides)

    def label(self) -> str:
        parts = [self.kernel, self.technique, self.style, self.scale]
        if self.size_overrides:
            parts.append(",".join(f"{k}={v}" for k, v in self.size_overrides))
        if self.seed != 7:
            parts.append(f"seed={self.seed}")
        return "/".join(parts)

    def batch_key(self) -> Tuple:
        """Everything but the seed: jobs sharing it prepare, lint and
        estimate the same circuit and may run as lanes of one batched
        simulation."""
        return (
            self.kernel, self.technique, self.style, self.scale,
            self.size_overrides, self.simulate, self.max_cycles,
            self.sim_backend,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "technique": self.technique,
            "style": self.style,
            "scale": self.scale,
            "size_overrides": [list(kv) for kv in self.size_overrides],
            "simulate": self.simulate,
            "max_cycles": self.max_cycles,
            "sim_backend": self.sim_backend,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepJob":
        return cls(
            kernel=data["kernel"],
            technique=data["technique"],
            style=data.get("style", "bb"),
            scale=data.get("scale", "paper"),
            size_overrides=tuple(
                (k, v) for k, v in data.get("size_overrides", [])
            ),
            simulate=data.get("simulate", True),
            max_cycles=data.get("max_cycles", 4_000_000),
            sim_backend=data.get("sim_backend"),
            seed=data.get("seed", 7),
        )


def build_matrix(
    kernels: Optional[Sequence[str]] = None,
    techniques: Optional[Sequence[str]] = None,
    styles: Sequence[str] = ("bb",),
    scale: str = "paper",
    size_overrides: Optional[Mapping[str, int]] = None,
    simulate: bool = True,
    sim_backend: Optional[str] = None,
    seeds: Sequence[int] = (7,),
) -> List[SweepJob]:
    """The cross product of kernels × techniques × styles × seeds.

    ``kernels``/``techniques`` default to the full paper suite; unknown
    names raise so a typo in a CLI filter fails loudly instead of
    silently sweeping nothing.  ``seeds`` multiplies the matrix by one
    input data set per seed (seed-adjacent jobs batch into one
    lane-parallel simulation when the sweep runs with ``lanes``).
    """
    kernels = list(kernels) if kernels else list(KERNEL_NAMES)
    techniques = list(techniques) if techniques else list(TECHNIQUES)
    for k in kernels:
        if k not in KERNEL_NAMES:
            raise ReproError(f"unknown kernel {k!r}; use {KERNEL_NAMES}")
    for t in techniques:
        if t not in TECHNIQUES:
            raise ReproError(f"unknown technique {t!r}; use {TECHNIQUES}")
    for s in styles:
        if s not in STYLES:
            raise ReproError(f"unknown style {s!r}; use {STYLES}")
    overrides = tuple(sorted((size_overrides or {}).items()))
    return [
        SweepJob(
            kernel=k,
            technique=t,
            style=s,
            scale=scale,
            size_overrides=overrides,
            simulate=simulate,
            sim_backend=sim_backend,
            seed=seed,
        )
        for k in kernels
        for t in techniques
        for s in styles
        for seed in seeds
    ]
