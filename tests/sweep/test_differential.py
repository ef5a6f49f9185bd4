"""Differential tests: the parallel sweep is a refactoring, not a change.

A process-pool sweep must produce *bit-identical* deterministic metrics
to the serial in-process path, for the same matrix, independent of worker
count and submission order; a warm-cache run must equal the cold run.
(``opt_time_s`` is wall-clock and excluded by construction — see
``TechniqueResult.deterministic_metrics``.)
"""

import pytest

from repro.sweep import ResultCache, build_matrix, run_sweep

# Two regular kernels plus gsum (irregular, the paper's hard case).
MATRIX = build_matrix(kernels=("atax", "bicg", "gsum"), scale="small")


def fingerprint(outcome):
    """Deterministic per-job signature, keyed so ordering cannot matter."""
    assert not outcome.failed_records
    return {
        record.job: (
            record.result.deterministic_metrics(),
            record.result.fu_census,
            record.result.groups,
        )
        for record in outcome.records
    }


@pytest.fixture(scope="module")
def serial_outcome():
    return run_sweep(MATRIX, workers=0)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ResultCache(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def parallel_outcome(cache):
    # Submit in a scrambled order to decouple results from submission.
    shuffled = MATRIX[1::2] + MATRIX[::-2]
    assert shuffled != MATRIX and set(shuffled) == set(MATRIX)
    return run_sweep(shuffled, workers=4, cache=cache)


def test_parallel_matches_serial(serial_outcome, parallel_outcome):
    assert fingerprint(parallel_outcome) == fingerprint(serial_outcome)


def test_only_the_serial_sweep_shares_simulations(serial_outcome,
                                                 parallel_outcome):
    # atax and bicg: In-order and CRUSH build the same circuit, so the
    # serial sweep simulates 7 circuits for 9 rows.
    assert serial_outcome.shared_simulations == 2
    assert parallel_outcome.shared_simulations == 0


def test_only_the_serial_sweep_shares_preparations(serial_outcome,
                                                   parallel_outcome):
    # Three kernels: each is buffered once for its three techniques.
    assert serial_outcome.shared_preparations == 6
    assert parallel_outcome.shared_preparations == 0


def test_records_follow_submission_order(parallel_outcome):
    shuffled = MATRIX[1::2] + MATRIX[::-2]
    assert [r.job for r in parallel_outcome.records] == shuffled


def test_worker_count_invariance(serial_outcome):
    sub = [j for j in MATRIX if j.kernel in ("atax", "bicg")]
    two = run_sweep(sub, workers=2)
    want = fingerprint(serial_outcome)
    assert fingerprint(two) == {j: want[j] for j in sub}


def test_warm_cache_equals_cold(serial_outcome, cache, parallel_outcome):
    warm = run_sweep(MATRIX, workers=4, cache=cache)
    assert warm.cache_hits == len(MATRIX)
    assert warm.cache_misses == 0
    assert fingerprint(warm) == fingerprint(serial_outcome)


def test_serial_path_also_hits_cache(serial_outcome, cache, parallel_outcome):
    warm = run_sweep(MATRIX, workers=0, cache=cache)
    assert warm.cache_hits == len(MATRIX)
    assert fingerprint(warm) == fingerprint(serial_outcome)
