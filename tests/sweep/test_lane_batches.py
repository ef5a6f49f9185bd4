"""Lane batches in the sweep: failure isolation and the process pool.

``run_sweep(..., lanes=B)`` runs jobs that differ only in seed as the
lanes of one batched simulation, one task of several jobs.  A batch that
raises must re-run each of its jobs on its own, a pooled sweep must
produce the same rows as the serial one, and a sanitized sweep runs its
batches seed by seed.
"""

import time

import pytest

import repro.sweep.runner as runner
from repro.pipeline import run_technique_batch
from repro.sweep import ResultCache, build_matrix, execute_jobs, run_sweep

# gsumif's data-dependent branch makes distinct seeds diverge, so the
# batch runs the mask loop.
JOBS = build_matrix(kernels=["gsumif"], techniques=["crush"], scale="small",
                    seeds=(7, 11, 13))


def metrics(outcome):
    return [r.result.deterministic_metrics() for r in outcome.records]


@pytest.fixture(scope="module")
def serial_rows():
    return metrics(run_sweep(JOBS, workers=0).raise_on_failure())


def _failing_batch(*args, seeds, **kwargs):
    """A lane batch fails; the one-seed tasks it is re-run as do not."""
    if len(seeds) > 1:
        raise RuntimeError("injected batch failure")
    return run_technique_batch(*args, seeds=seeds, **kwargs)


@pytest.mark.parametrize("workers", [0, 2])
def test_failed_batch_reruns_every_job_on_the_scalar_path(
        monkeypatch, tmp_path, serial_rows, workers):
    # Pool children fork, so they inherit the patch.
    monkeypatch.setattr(runner, "run_technique_batch", _failing_batch)
    out = run_sweep(JOBS, workers=workers, lanes=3, retries=0,
                    cache=ResultCache(tmp_path)).raise_on_failure()
    assert [r.job for r in out.records] == JOBS
    assert [r.result.data_plane for r in out.records] == ["scalar"] * 3
    # The failed batch spends no attempt of the jobs' own budget.
    assert [r.attempts for r in out.records] == [1, 1, 1]
    assert metrics(out) == serial_rows


def test_pooled_lane_batches_match_serial_rows(tmp_path, serial_rows):
    out = run_sweep(JOBS, workers=2, lanes=3,
                    cache=ResultCache(tmp_path)).raise_on_failure()
    assert [r.job for r in out.records] == JOBS
    assert [r.result.data_plane for r in out.records] == ["tuple"] * 3
    assert metrics(out) == serial_rows
    # One batch, one pass: its wall time is split evenly over its jobs.
    assert len({r.wall_time_s for r in out.records}) == 1


def test_a_sanitized_lane_sweep_runs_each_batch_once(monkeypatch,
                                                     serial_rows):
    """With ``REPRO_SIM_SANITIZE`` set, every batch runs seed by seed
    instead of raising and being re-run job by job."""
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    batches = []

    def recorded(*args, seeds, **kwargs):
        batches.append(list(seeds))
        return run_technique_batch(*args, seeds=seeds, **kwargs)

    monkeypatch.setattr(runner, "run_technique_batch", recorded)
    out = run_sweep(JOBS, workers=0, lanes=2, retries=0).raise_on_failure()
    assert batches == [[7, 11], [13]]
    assert [r.result.data_plane for r in out.records] == ["scalar"] * 3
    assert metrics(out) == serial_rows


def test_unsimulated_jobs_batch_into_static_rows():
    """``simulate`` is part of the batch key: jobs that skip simulation
    share one preparation and get one zero-cycle row each."""
    jobs = build_matrix(kernels=["gsumif"], techniques=["crush"],
                        scale="small", seeds=(7, 11, 13), simulate=False)
    out = run_sweep(jobs, workers=0, lanes=3).raise_on_failure()
    rows = [r.result for r in out.records]
    assert [(r.seed, r.cycles, r.sim_backend) for r in rows] == \
        [(7, 0, ""), (11, 0, ""), (13, 0, "")]
    assert out.shared_preparations == 0  # one task, prepared once


def _slow_worker(jobs):
    """One second per job: a three-job batch outlives one job's timeout
    but not three."""
    time.sleep(1.0 * len(jobs))
    return execute_jobs(jobs)


def test_timeout_is_per_job_for_a_lane_batch():
    jobs = build_matrix(kernels=["gsum"], techniques=["crush"],
                        scale="small", seeds=(7, 11, 13))
    out = run_sweep(jobs, workers=1, lanes=3, timeout=2.0, retries=0,
                    worker_fn=_slow_worker).raise_on_failure()
    # The batch got 3 x 2 s and finished: one pass, no one-job re-runs.
    assert [r.result.data_plane for r in out.records] == ["tuple"] * 3
    assert len({r.wall_time_s for r in out.records}) == 1
