"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  Rows
are produced through the ``repro.sweep`` subsystem: an in-process dict
gives session-local reuse (table benches and figure benches share rows),
and a persistent on-disk :class:`ResultCache` under
``benchmarks/results/cache/`` makes warm re-runs near-instant across
pytest sessions.  Set ``REPRO_SWEEP_JOBS=N`` to fan cache misses out over
``N`` worker processes, or ``REPRO_SWEEP_NO_CACHE=1`` to force fresh
pipeline runs.  Every bench writes its artifacts (rendered table + CSV
series) into ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.frontend.kernels import PAPER_KERNELS
from repro.pipeline import TechniqueResult
from repro.reporting import render_table, write_csv
from repro.sweep import ResultCache, SweepJob, execute_job, run_sweep

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIR = os.path.join(RESULTS_DIR, "cache")

_row_cache: Dict[Tuple[str, str, str, str], TechniqueResult] = {}
_persistent: Optional[ResultCache] = None


def results_path(name: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, name)


def _cache_disabled() -> bool:
    return os.environ.get("REPRO_SWEEP_NO_CACHE", "") not in ("", "0")


def persistent_cache() -> Optional[ResultCache]:
    """The cross-session result cache, or ``None`` when disabled."""
    global _persistent
    if _cache_disabled():
        return None
    if _persistent is None:
        _persistent = ResultCache(
            os.environ.get("REPRO_SWEEP_CACHE") or CACHE_DIR
        )
    return _persistent


def _sweep_workers() -> int:
    try:
        return int(os.environ.get("REPRO_SWEEP_JOBS", "0"))
    except ValueError:
        return 0


def get_row(kernel: str, technique: str, style: str = "bb",
            scale: str = "paper") -> TechniqueResult:
    key = (kernel, technique, style, scale)
    if key not in _row_cache:
        job = SweepJob(kernel=kernel, technique=technique, style=style,
                       scale=scale)
        cache = persistent_cache()
        row = cache.get(job) if cache is not None else None
        if row is None:
            row = execute_job(job)
            if cache is not None:
                cache.put(job, row)
        _row_cache[key] = row
    return _row_cache[key]


def table_rows(style: str, techniques, scale: str = "paper") -> List[TechniqueResult]:
    jobs = [
        SweepJob(kernel=kernel, technique=tech, style=style, scale=scale)
        for kernel in PAPER_KERNELS
        for tech in techniques
    ]
    fresh = [
        j for j in jobs
        if (j.kernel, j.technique, j.style, j.scale) not in _row_cache
    ]
    if fresh:
        outcome = run_sweep(
            fresh,
            workers=_sweep_workers(),
            cache=persistent_cache(),
        )
        outcome.raise_on_failure()
        for record in outcome.records:
            j = record.job
            _row_cache[(j.kernel, j.technique, j.style, j.scale)] = record.result
    return [get_row(j.kernel, j.technique, style=j.style, scale=j.scale)
            for j in jobs]


TABLE_HEADERS = [
    "Benchmark", "Technique", "Functional units", "DSPs", "Slices",
    "LUTs", "FFs", "CP (ns)", "Cycles", "Exec. time (us)", "Opt. time (s)",
]

TECH_LABEL = {"naive": "Naive", "inorder": "In-order", "crush": "CRUSH",
              "fast-token-naive": "Fast token"}


def emit_table(rows: List[TechniqueResult], path_base: str, title: str,
               label_naive: str = "Naive") -> str:
    table = []
    for r in rows:
        label = TECH_LABEL.get(r.technique, r.technique)
        if r.technique == "naive" and label_naive != "Naive":
            label = label_naive
        table.append([
            r.kernel, label, r.fu_census, r.dsp, r.slices, r.lut, r.ff,
            r.cp_ns, r.cycles, r.exec_time_us, r.opt_time_s,
        ])
    text = render_table(TABLE_HEADERS, table, title=title)
    with open(results_path(path_base + ".txt"), "w") as f:
        f.write(text + "\n")
    write_csv(results_path(path_base + ".csv"), TABLE_HEADERS, table)
    return text


def improvement_summary(rows: List[TechniqueResult], base_tech: str,
                        our_tech: str) -> Dict[str, float]:
    """Paper-style 'Average improvement' percentages of our vs base."""
    from repro.reporting import average_improvement

    base = {r.kernel: r.metrics() for r in rows if r.technique == base_tech}
    ours = {r.kernel: r.metrics() for r in rows if r.technique == our_tech}
    return {
        metric: round(average_improvement(base, ours, metric), 1)
        for metric in ("slices", "lut", "ff", "dsp", "opt_time_s", "exec_time_us")
    }
