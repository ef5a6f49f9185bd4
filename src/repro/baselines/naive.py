"""Naive baseline: no resource sharing [34].

The circuit is left exactly as buffer placement produced it — one physical
functional unit per operation.  Exists so the evaluation pipeline treats
"no sharing" uniformly with the sharing techniques.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..analysis import CFC
from ..circuit import DataflowCircuit
from ..core.crush import SharingResult


def naive_share(
    circuit: DataflowCircuit, cfcs: Optional[Sequence[CFC]] = None
) -> SharingResult:
    """The identity sharing pass: a record with no groups."""
    t0 = time.perf_counter()
    return SharingResult(opt_time_s=time.perf_counter() - t0)
