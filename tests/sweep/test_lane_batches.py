"""Lane batches in the sweep: failure isolation and the process pool.

``run_sweep(..., lanes=B)`` runs jobs that differ only in seed as the
lanes of one batched simulation, one task of several jobs.  A batch that
raises must re-run each of its jobs on the scalar path, and a pooled
sweep must produce the same rows as the serial one.
"""

import pytest

import repro.sweep.runner as runner
from repro.sweep import ResultCache, build_matrix, run_sweep

# gsumif's data-dependent branch makes distinct seeds diverge, so the
# batch runs the mask loop.
JOBS = build_matrix(kernels=["gsumif"], techniques=["crush"], scale="small",
                    seeds=(7, 11, 13))


def metrics(outcome):
    return [r.result.deterministic_metrics() for r in outcome.records]


@pytest.fixture(scope="module")
def serial_rows():
    return metrics(run_sweep(JOBS, workers=0).raise_on_failure())


def _failing_batch(*args, **kwargs):
    raise RuntimeError("injected batch failure")


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
