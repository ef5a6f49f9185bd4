"""Unit tests for the persistent cache and the sweep reporters/writers."""

import io
import json
from dataclasses import replace

from repro.pipeline import TechniqueResult
from repro.sweep import (
    CSV_HEADERS,
    ProgressReporter,
    ResultCache,
    SweepJob,
    SweepOutcome,
    cache_key,
    code_salt,
    load_outcome,
    record_csv_row,
    run_sweep,
    summarize,
    write_outputs,
)

JOB = SweepJob(kernel="gsum", technique="crush", scale="small")


def make_result(**overrides) -> TechniqueResult:
    base = dict(
        kernel="gsum", technique="crush", style="bb",
        fu_census="1 fadd 1 fmul", dsp=5, slices=588, lut=1528, ff=1720,
        cp_ns=5.9, cycles=417, exec_time_us=2.5, opt_time_s=0.09,
        groups=[["fadd_0", "fadd_1"]],
    )
    base.update(overrides)
    return TechniqueResult(**base)


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(JOB) is None
    cache.put(JOB, make_result())
    got = cache.get(JOB)
    assert got is not None
    assert got.to_dict() == make_result().to_dict()
    assert len(cache) == 1


def test_key_depends_on_every_job_field(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(JOB, make_result())
    for other in (
        SweepJob(kernel="atax", technique="crush", scale="small"),
        SweepJob(kernel="gsum", technique="naive", scale="small"),
        SweepJob(kernel="gsum", technique="crush", scale="paper"),
        SweepJob(kernel="gsum", technique="crush", scale="small",
                 style="fast-token"),
        SweepJob(kernel="gsum", technique="crush", scale="small",
                 size_overrides=(("n", 8),)),
        SweepJob(kernel="gsum", technique="crush", scale="small",
                 simulate=False),
    ):
        assert cache.get(other) is None


def test_key_depends_on_code_salt():
    assert cache_key(JOB) == cache_key(JOB, salt=code_salt())
    assert cache_key(JOB, salt="other-code-version") != cache_key(JOB)


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(JOB, make_result())
    path.write_text("{ not json")
    assert cache.get(JOB) is None
    # and a fresh put repairs it
    cache.put(JOB, make_result())
    assert cache.get(JOB) is not None


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(JOB, make_result())
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(JOB) is None


def _tiny_outcome(tmp_path):
    def worker(jobs):
        if jobs[0].technique == "naive":
            raise ValueError("boom")
        return [make_result(technique=job.technique) for job in jobs]

    jobs = [JOB, SweepJob(kernel="gsum", technique="naive", scale="small")]
    return run_sweep(jobs, workers=0, retries=0, worker_fn=worker,
                     cache=ResultCache(tmp_path / "cache"))


def test_write_and_reload_outputs(tmp_path):
    outcome = _tiny_outcome(tmp_path)
    paths = write_outputs(outcome, tmp_path / "results", basename="unit")
    assert paths["json"].is_file() and paths["csv"].is_file()

    loaded = load_outcome(paths["json"])
    assert [r.to_dict() for r in loaded.records] == \
        [r.to_dict() for r in outcome.records]

    header, *rows = paths["csv"].read_text().strip().splitlines()
    assert header.startswith("kernel,technique")
    assert len(rows) == 2
    assert "failed" in rows[1] and "boom" in rows[1]


def test_progress_reporter_and_summary(tmp_path):
    stream = io.StringIO()
    outcome = _tiny_outcome(tmp_path)
    reporter = ProgressReporter(total=len(outcome.records), stream=stream)
    for record in outcome.records:
        reporter(record)
    reporter.summary(outcome)
    text = stream.getvalue()
    assert "gsum/crush/bb/small" in text
    assert "FAILED" in text and "ValueError: boom" in text
    assert "1 failed" in text

    # a fully-cached warm sweep reports hits and no speedup line
    warm = run_sweep([JOB], workers=0,
                     cache=ResultCache(tmp_path / "cache"))
    assert warm.cache_hits == 1
    assert "1 cache hits" in summarize(warm)
    assert "speedup" not in summarize(warm)


def test_summary_reports_a_speedup_for_pooled_sweeps_only(tmp_path):
    # A serial sweep that ran its misses: executed time is wall time.
    serial = _tiny_outcome(tmp_path)
    assert serial.workers == 0 and serial.cache_misses == 2
    assert "speedup" not in summarize(serial)
    # Two one-second misses in one second over two workers.
    records = [replace(r, wall_time_s=1.0) for r in serial.records]
    pooled = SweepOutcome(records=records, workers=2, wall_time_s=1.0)
    assert "aggregate speedup vs serial: 2.00x" in summarize(pooled)


def test_outcome_json_is_valid_json(tmp_path):
    outcome = _tiny_outcome(tmp_path)
    paths = write_outputs(outcome, tmp_path / "results")
    data = json.loads(paths["json"].read_text())
    assert data["failed"] == 1
    assert len(data["records"]) == 2


def test_csv_rows_carry_the_seed_and_keep_their_cells(tmp_path):
    def worker(jobs):
        if jobs[0].technique == "naive":
            raise ValueError("boom")
        return [make_result(seed=job.seed, cycles=400 + job.seed)
                for job in jobs]

    two_seeds = [
        SweepJob(kernel="gsum", technique="crush", scale="small",
                 size_overrides=(("n", 8),), seed=s)
        for s in (7, 11)
    ]
    failing = SweepJob(kernel="gsum", technique="naive", scale="small")
    cache = ResultCache(tmp_path / "cache")
    cold = run_sweep(two_seeds + [failing], workers=0, retries=0,
                     worker_fn=worker, cache=cache)
    warm = run_sweep(two_seeds[:1], workers=0, worker_fn=worker,
                     cache=cache)
    rows = [dict(zip(CSV_HEADERS, record_csv_row(r)))
            for r in cold.records + warm.records]

    assert [(r["seed"], r["cycles"]) for r in rows[:2]] == [(7, 407),
                                                           (11, 411)]
    no_result = dict.fromkeys(CSV_HEADERS, "")
    failed = cold.records[2]
    assert rows[2] == {
        **no_result,
        "kernel": "gsum", "technique": "naive", "style": "bb",
        "scale": "small", "seed": 7, "status": "failed", "cached": 0,
        "error_type": "ValueError", "error": "boom",
        "wall_time_s": round(failed.wall_time_s, 4), "attempts": 1,
    }
    assert rows[3] == {
        "kernel": "gsum", "technique": "crush", "style": "bb",
        "scale": "small", "size_overrides": "n=8", "seed": 7,
        "status": "ok", "cached": 1, "dsp": 5, "slices": 588,
        "lut": 1528, "ff": 1720, "cp_ns": 5.9, "cycles": 407,
        "exec_time_us": 2.5, "opt_time_s": 0.09, "lint_errors": 0,
        "lint_warnings": 0, "predicted_ii": "", "flow_diags": 0,
        "mem_class": "", "memdep_diags": 0, "sim_backend": "",
        "data_plane": "scalar", "mask_promotions": 0, "divergence": "",
        "fu_census": "1 fadd 1 fmul", "error_type": "", "error": "",
        "wall_time_s": 0.0, "attempts": 0,
    }
