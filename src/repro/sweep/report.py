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
from typing import Any, Callable, Dict, List, Optional, TextIO

from .runner import SweepOutcome, SweepRecord

#: CSV columns, in order.  :func:`record_csv_row` looks each name up on
#: the job, then the record, then the result.
CSV_HEADERS = [
    "kernel", "technique", "style", "scale", "size_overrides", "seed",
    "status", "cached", "dsp", "slices", "lut", "ff", "cp_ns", "cycles",
    "exec_time_us", "opt_time_s", "lint_errors", "lint_warnings",
    "predicted_ii", "flow_diags", "mem_class", "memdep_diags",
    "sim_backend", "data_plane", "mask_promotions", "divergence",
    "fu_census", "error_type", "error", "wall_time_s", "attempts",
]


class ProgressReporter:
    """Streams one line per finished job (unless ``quiet``) and prints the
    final summary."""

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
    if outcome.cache_misses and outcome.workers >= 1:
        # A serial sweep's executed time is its wall time: no speedup.
        lines.append(
            f"  aggregate speedup vs serial: {outcome.speedup:.2f}x"
        )
    if outcome.shared_preparations:
        lines.append(
            f"  {outcome.shared_preparations} preparations shared "
            f"(techniques of a kernel already buffered)"
        )
    if outcome.shared_simulations:
        lines.append(
            f"  {outcome.shared_simulations} simulations shared "
            f"(rows with identical circuits)"
        )
    if failed:
        lines.append("  failed jobs:")
        for r in outcome.failed_records:
            lines.append(f"    {r.job.label()}: {r.error_type}: {r.error}")
    return "\n".join(lines)


#: Cell formatting for the columns that are not written as they are.
_CSV_FORMAT: Dict[str, Callable[[Any], Any]] = {
    "size_overrides": lambda pairs: ",".join(f"{k}={v}" for k, v in pairs),
    "cached": int,
    "wall_time_s": lambda t: round(t, 4),
}


def record_csv_row(record: SweepRecord) -> List[Any]:
    """One CSV row of :data:`CSV_HEADERS`; a name with no value on the
    job, the record or the result (a failed job has no result) is an
    empty cell."""
    row: List[Any] = []
    for name in CSV_HEADERS:
        value = next(
            (v for source in (record.job, record, record.result)
             if (v := getattr(source, name, None)) is not None),
            None,
        )
        if value is None:
            row.append("")
        else:
            row.append(_CSV_FORMAT.get(name, lambda v: v)(value))
    return row


def outcome_to_dict(outcome: SweepOutcome) -> Dict[str, Any]:
    return {
        "workers": outcome.workers,
        "wall_time_s": outcome.wall_time_s,
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "failed": len(outcome.failed_records),
        "shared_preparations": outcome.shared_preparations,
        "shared_simulations": outcome.shared_simulations,
        "records": [r.to_dict() for r in outcome.records],
    }


def load_outcome(path) -> SweepOutcome:
    """Reload a sweep JSON artifact written by :func:`write_outputs`."""
    data = json.loads(Path(path).read_text())
    return SweepOutcome(
        records=[SweepRecord.from_dict(r) for r in data["records"]],
        workers=data.get("workers", 0),
        wall_time_s=data.get("wall_time_s", 0.0),
        shared_preparations=data.get("shared_preparations", 0),
        shared_simulations=data.get("shared_simulations", 0),
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
