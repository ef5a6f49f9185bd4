"""Progress reporting and artifact serialization for sweeps.

The reporter prints one line per finished job (status, wall time, cache
hit/miss) and a final accounting summary; the writers serialize a full
:class:`SweepOutcome` to JSON (lossless, reloadable) and CSV (one metric
row per job) under ``benchmarks/results/`` or any other directory.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO

from .runner import SweepOutcome, SweepRecord

CSV_HEADERS = [
    "kernel", "technique", "style", "scale", "size_overrides", "status",
    "cached", "dsp", "slices", "lut", "ff", "cp_ns", "cycles",
    "exec_time_us", "opt_time_s", "lint_errors", "lint_warnings",
    "predicted_ii", "flow_diags", "mem_class", "memdep_diags",
    "sim_backend", "data_plane", "mask_promotions", "divergence",
    "fu_census", "error_type", "error", "wall_time_s", "attempts",
]


class ProgressReporter:
    """Streams one line per finished job; collects summary counters."""

    def __init__(self, total: int, stream: Optional[TextIO] = None,
                 quiet: bool = False) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stdout
        self.quiet = quiet
        self.done = 0

    def __call__(self, record: SweepRecord) -> None:
        self.done += 1
        if self.quiet:
            return
        if record.cached:
            status = "hit   "
        elif record.ok:
            status = "ok    "
        else:
            status = "FAILED"
        line = (f"[{self.done:3d}/{self.total}] {status} "
                f"{record.job.label():40s} {record.wall_time_s:7.2f}s")
        if record.attempts > 1:
            line += f"  ({record.attempts} attempts)"
        if not record.ok:
            line += f"  {record.error_type}: {record.error}"
        print(line, file=self.stream)

    def summary(self, outcome: SweepOutcome) -> str:
        text = summarize(outcome)
        if not self.quiet:
            print(text, file=self.stream)
        return text


def summarize(outcome: SweepOutcome) -> str:
    """Human-readable accounting for one finished sweep."""
    n = len(outcome.records)
    failed = len(outcome.failed_records)
    lines = [
        f"sweep: {n} jobs "
        f"({outcome.cache_hits} cache hits, {outcome.cache_misses} misses, "
        f"{failed} failed) "
        f"with {outcome.workers} worker(s)",
        f"  wall time      : {outcome.wall_time_s:.2f} s",
        f"  executed time  : {outcome.executed_time_s:.2f} s "
        f"(sum over cache misses)",
    ]
    if outcome.cache_misses:
        lines.append(
            f"  aggregate speedup vs serial: {outcome.speedup:.2f}x"
        )
    if failed:
        lines.append("  failed jobs:")
        for r in outcome.failed_records:
            lines.append(f"    {r.job.label()}: {r.error_type}: {r.error}")
    return "\n".join(lines)


def record_csv_row(record: SweepRecord) -> List[Any]:
    job = record.job
    res = record.result
    overrides = ",".join(f"{k}={v}" for k, v in job.size_overrides)
    metric = (lambda name: getattr(res, name) if res is not None else "")
    return [
        job.kernel, job.technique, job.style, job.scale, overrides,
        record.status, int(record.cached),
        metric("dsp"), metric("slices"), metric("lut"), metric("ff"),
        metric("cp_ns"), metric("cycles"), metric("exec_time_us"),
        metric("opt_time_s"), metric("lint_errors"), metric("lint_warnings"),
        metric("predicted_ii"), metric("flow_diags"),
        metric("mem_class"), metric("memdep_diags"),
        metric("sim_backend"), metric("data_plane"),
        metric("mask_promotions"), metric("divergence"),
        res.fu_census if res is not None else "",
        record.error_type or "", record.error or "",
        round(record.wall_time_s, 4), record.attempts,
    ]


def outcome_to_dict(outcome: SweepOutcome) -> Dict[str, Any]:
    return {
        "workers": outcome.workers,
        "wall_time_s": outcome.wall_time_s,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "failed": len(outcome.failed_records),
        "records": [r.to_dict() for r in outcome.records],
    }


def load_outcome(path) -> SweepOutcome:
    """Reload a sweep JSON artifact written by :func:`write_outputs`."""
    data = json.loads(Path(path).read_text())
    return SweepOutcome(
        records=[SweepRecord.from_dict(r) for r in data["records"]],
        workers=data.get("workers", 0),
        wall_time_s=data.get("wall_time_s", 0.0),
    )


def write_outputs(outcome: SweepOutcome, out_dir, basename: str = "sweep",
                  ) -> Dict[str, Path]:
    """Write ``<basename>.json`` and ``<basename>.csv`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{basename}.json"
    csv_path = out / f"{basename}.csv"
    json_path.write_text(
        json.dumps(outcome_to_dict(outcome), indent=2, sort_keys=True) + "\n"
    )
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADERS)
        for record in outcome.records:
            writer.writerow(record_csv_row(record))
    return {"json": json_path, "csv": csv_path}
