"""Parallel evaluation sweeps with a persistent result cache.

The paper's whole evaluation is a matrix of independent
``(kernel, technique, style, scale)`` pipeline runs.  This package fans
those runs out across worker processes, memoizes every successful row in
a content-addressed on-disk cache (so warm re-runs are near-instant
across sessions), and isolates failures so one crashing or deadlocking
configuration cannot take down a sweep.

Entry points: ``python -m repro sweep`` on the command line,
:func:`run_sweep` from Python, and ``benchmarks/_support`` (which routes
every table/figure bench through the same cache).
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_key,
    code_salt,
    default_cache_dir,
)
from .job import (
    SCALES,
    STYLES,
    SweepJob,
    build_matrix,
)
from .report import (
    CSV_HEADERS,
    ProgressReporter,
    load_outcome,
    outcome_to_dict,
    record_csv_row,
    summarize,
    write_outputs,
)
from .runner import (
    STATUS_FAILED,
    STATUS_OK,
    SweepOutcome,
    SweepRecord,
    SweepTimeoutError,
    execute_jobs,
    run_sweep,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CSV_HEADERS",
    "ProgressReporter",
    "ResultCache",
    "SCALES",
    "STATUS_FAILED",
    "STATUS_OK",
    "STYLES",
    "SweepJob",
    "SweepOutcome",
    "SweepRecord",
    "SweepTimeoutError",
    "build_matrix",
    "cache_key",
    "code_salt",
    "default_cache_dir",
    "execute_jobs",
    "load_outcome",
    "outcome_to_dict",
    "record_csv_row",
    "run_sweep",
    "summarize",
    "write_outputs",
]
