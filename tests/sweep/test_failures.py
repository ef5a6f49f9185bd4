"""Failure isolation: one bad configuration cannot take down a sweep.

Jobs that raise, hang past the per-job timeout, or kill their worker
process outright must be *captured* as structured ``failed`` records —
error type and message preserved, one retry burned — while every other
row of the sweep completes normally.
"""

import os
import time

from repro.sweep import (
    SweepJob,
    build_matrix,
    execute_jobs,
    run_sweep,
)

OK_JOB = SweepJob(kernel="gsum", technique="crush", scale="small")


def _faulty_worker(jobs):
    if jobs[0].kernel == "atax":
        raise ValueError("injected failure for atax")
    return execute_jobs(jobs)


def _hanging_worker(jobs):
    if jobs[0].kernel == "atax":
        time.sleep(60.0)
    return execute_jobs(jobs)


def _dying_worker(jobs):
    if jobs[0].kernel == "atax":
        os._exit(17)  # simulates a hard native crash (no Python traceback)
    return execute_jobs(jobs)


def reference_metrics():
    return execute_jobs([OK_JOB])[0].deterministic_metrics()


def test_raising_job_is_captured_not_fatal():
    jobs = [SweepJob(kernel="atax", technique="crush", scale="small"), OK_JOB]
    outcome = run_sweep(jobs, workers=2, retries=1, worker_fn=_faulty_worker)

    bad, good = outcome.records
    assert bad.status == "failed"
    assert bad.error_type == "ValueError"
    assert "injected failure for atax" in bad.error
    assert bad.attempts == 2  # the configured single retry was used
    assert bad.result is None

    assert good.ok
    assert good.attempts == 1
    assert good.result.deterministic_metrics() == reference_metrics()


def test_timed_out_job_is_captured_not_fatal():
    jobs = [SweepJob(kernel="atax", technique="crush", scale="small"), OK_JOB]
    outcome = run_sweep(jobs, workers=2, timeout=8.0, retries=0,
                        worker_fn=_hanging_worker)

    hung, good = outcome.records
    assert hung.status == "failed"
    assert hung.error_type == "SweepTimeoutError"
    assert "timeout" in hung.error
    assert hung.attempts == 1

    assert good.ok
    assert good.result.deterministic_metrics() == reference_metrics()


def test_dead_worker_is_captured_not_fatal():
    jobs = [SweepJob(kernel="atax", technique="crush", scale="small"), OK_JOB]
    outcome = run_sweep(jobs, workers=2, retries=0, worker_fn=_dying_worker)

    dead, good = outcome.records
    assert dead.status == "failed"
    assert dead.error_type == "WorkerCrashed"
    assert good.ok


def test_unknown_kernel_fails_through_real_worker():
    """The realistic failure: a bad config through the default pipeline."""
    jobs = [SweepJob(kernel="no-such-kernel", technique="crush",
                     scale="small"), OK_JOB]
    outcome = run_sweep(jobs, workers=2, retries=0)

    bad, good = outcome.records
    assert bad.status == "failed"
    assert "no-such-kernel" in bad.error
    assert good.ok


def test_serial_path_captures_failures_too():
    jobs = [SweepJob(kernel="atax", technique="crush", scale="small"), OK_JOB]
    outcome = run_sweep(jobs, workers=0, retries=1, worker_fn=_faulty_worker)

    bad, good = outcome.records
    assert bad.status == "failed"
    assert bad.error_type == "ValueError"
    assert bad.attempts == 2
    assert good.ok


def test_raise_on_failure_reports_every_failed_row():
    jobs = build_matrix(kernels=("atax", "gsum"), techniques=("crush",),
                        scale="small")
    outcome = run_sweep(jobs, workers=0, retries=0, worker_fn=_faulty_worker)
    try:
        outcome.raise_on_failure()
    except RuntimeError as exc:
        assert "atax/crush" in str(exc)
        assert "injected failure" in str(exc)
    else:
        raise AssertionError("raise_on_failure did not raise")
