"""The paper's benchmark suite (Section 6.1).

A PolyBench subset — atax, bicg, 2mm, 3mm, symm, gemm, gesummv, mvt,
syr2k — plus gsum and gsumif, the irregular kernels from [11] that motivate
dynamic scheduling.  Every kernel is written the way Dynamatic's LLVM
frontend sees it after mem2reg: reductions whose target is invariant in the
innermost loop are register-promoted into loop-carried scalars; updates
whose target varies per iteration stay as memory read-modify-writes (and
acquire conservative store→load ordering, hence II > 1 everywhere — the
paper's precondition for sharing without performance loss).

``build(name)`` returns the kernel at paper-scale sizes (cycle counts in
the same range as the paper's Tables 2-3); ``build(name, scale="small")``
returns a miniature for fast tests.  The floating-point operator census of
each kernel matches the paper's ``Functional units`` column for the Naive
technique exactly.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...errors import FrontendError
from ..ir import Kernel
from . import (
    atax,
    bicg,
    gemm,
    gesummv,
    gsum,
    gsumif,
    histogram,
    mm2,
    mm3,
    mvt,
    pointer_chase,
    spmv,
    symm,
    syr2k,
)

_BUILDERS: Dict[str, Callable[..., Kernel]] = {
    "atax": atax.build,
    "bicg": bicg.build,
    "gsum": gsum.build,
    "gsumif": gsumif.build,
    "2mm": mm2.build,
    "3mm": mm3.build,
    "symm": symm.build,
    "gemm": gemm.build,
    "gesummv": gesummv.build,
    "mvt": mvt.build,
    "syr2k": syr2k.build,
    "histogram": histogram.build,
    "spmv": spmv.build,
    "pointer_chase": pointer_chase.build,
}

#: Kernel order as it appears in the paper's Table 2, followed by the
#: irregular data-dependent-memory kernels (not in the paper; they stress
#: the memory-dependence analyzer and motivate the future LSQ).
KERNEL_NAMES: List[str] = [
    "atax",
    "bicg",
    "gsum",
    "gsumif",
    "2mm",
    "3mm",
    "symm",
    "gemm",
    "gesummv",
    "mvt",
    "syr2k",
    "histogram",
    "spmv",
    "pointer_chase",
]

#: The paper's own suite, in its Table 2 order: everything above except
#: the irregular kernels.  The paper-shape benches (Tables 2/3, Figures
#: 7/8/11) average over exactly these rows.
PAPER_KERNELS: List[str] = KERNEL_NAMES[:11]

#: Miniature sizes for unit/integration tests (seconds, not minutes).
SMALL_SIZES: Dict[str, Dict[str, int]] = {
    "atax": {"N": 4, "M": 4},
    "bicg": {"N": 4, "M": 4},
    "gsum": {"N": 16},
    "gsumif": {"N": 16},
    "2mm": {"NI": 3, "NJ": 3, "NK": 3, "NL": 3},
    "3mm": {"NI": 3, "NJ": 3, "NK": 3, "NL": 3, "NM": 3},
    "symm": {"N": 4, "M": 4},
    "gemm": {"NI": 4, "NJ": 4, "NK": 4},
    "gesummv": {"N": 5},
    "mvt": {"N": 5},
    "syr2k": {"N": 5, "M": 4},
    "histogram": {"N": 16, "B": 8},
    "spmv": {"NNZ": 16, "N": 6},
    "pointer_chase": {"N": 8, "STEPS": 12},
}


def build(name: str, scale: str = "paper", **overrides: int) -> Kernel:
    """Instantiate a benchmark kernel by its paper name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise FrontendError(
            f"unknown kernel {name!r}; available: {sorted(_BUILDERS)}"
        ) from None
    kernel = builder()
    if scale == "small":
        kernel = kernel.with_params(**SMALL_SIZES[name])
    elif scale != "paper":
        raise FrontendError(f"unknown scale {scale!r} (use 'paper' or 'small')")
    if overrides:
        kernel = kernel.with_params(**overrides)
    return kernel
