"""Property tests for the sweep subsystem.

Two invariants everything else rests on:

* **cache-key determinism** — equal job descriptions always hash to the
  same key (keyword order of size overrides included), and changing any
  single field yields a different key;
* **lossless serialization** — ``TechniqueResult`` survives a JSON
  round trip bit-for-bit for any finite field values, so a cached row is
  indistinguishable from a freshly computed one, and rows written by
  older code (dropped or missing columns) still load.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.pipeline import TechniqueResult
from repro.resources import ResourceEstimate
from repro.sweep import SweepJob, cache_key

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)
overrides = st.dictionaries(names, st.integers(1, 1 << 20), max_size=4)

jobs = st.builds(
    SweepJob,
    kernel=names,
    technique=st.sampled_from(("naive", "inorder", "crush")),
    style=st.sampled_from(("bb", "fast-token")),
    scale=st.sampled_from(("small", "paper")),
    size_overrides=overrides.map(lambda d: tuple(d.items())),
    simulate=st.booleans(),
    max_cycles=st.integers(1, 1 << 40),
)

estimates = st.builds(
    ResourceEstimate,
    lut=st.integers(0, 1 << 24),
    ff=st.integers(0, 1 << 24),
    dsp=st.integers(0, 4096),
    slices=st.integers(0, 1 << 22),
    cp_ns=finite_floats,
    functional_units=st.dictionaries(
        st.sampled_from(("fadd", "fmul", "fdiv", "fsub")),
        st.integers(0, 256), max_size=4,
    ),
)

results = st.builds(
    TechniqueResult,
    kernel=names,
    technique=names,
    style=st.sampled_from(("bb", "fast-token")),
    fu_census=st.text(max_size=30),
    dsp=st.integers(0, 4096),
    slices=st.integers(0, 1 << 22),
    lut=st.integers(0, 1 << 24),
    ff=st.integers(0, 1 << 24),
    cp_ns=finite_floats,
    cycles=st.integers(0, 1 << 40),
    exec_time_us=finite_floats,
    opt_time_s=finite_floats,
    groups=st.lists(st.lists(names, max_size=4), max_size=4),
    estimate=st.one_of(st.none(), estimates),
)


@settings(max_examples=200, deadline=None)
@given(job=jobs)
def test_cache_key_is_deterministic(job):
    clone = SweepJob.from_dict(job.to_dict())
    assert clone == job
    assert cache_key(job, salt="s") == cache_key(clone, salt="s")


@settings(max_examples=100, deadline=None)
@given(base=overrides)
def test_cache_key_ignores_override_insertion_order(base):
    fwd = SweepJob(kernel="k", technique="crush",
                   size_overrides=tuple(base.items()))
    rev = SweepJob(kernel="k", technique="crush",
                   size_overrides=tuple(reversed(list(base.items()))))
    assert cache_key(fwd, salt="s") == cache_key(rev, salt="s")


FIELD_MUTATIONS = [
    lambda d: {**d, "kernel": d["kernel"] + "x"},
    lambda d: {**d, "technique": "inorder" if d["technique"] != "inorder"
               else "crush"},
    lambda d: {**d, "style": "bb" if d["style"] != "bb" else "fast-token"},
    lambda d: {**d, "scale": "small" if d["scale"] != "small" else "paper"},
    # "ZZ" is outside the generated alphabet, so it is always a new entry.
    lambda d: {**d, "size_overrides": d["size_overrides"] + [["ZZ", 1]]},
    lambda d: {**d, "simulate": not d["simulate"]},
    lambda d: {**d, "max_cycles": d["max_cycles"] + 1},
]


@settings(max_examples=100, deadline=None)
@given(job=jobs, mutation=st.sampled_from(FIELD_MUTATIONS))
def test_any_field_change_changes_the_key(job, mutation):
    mutated = SweepJob.from_dict(mutation(job.to_dict()))
    assert mutated != job
    assert cache_key(mutated, salt="s") != cache_key(job, salt="s")


@settings(max_examples=100, deadline=None)
@given(job=jobs)
def test_salt_change_changes_the_key(job):
    assert cache_key(job, salt="v1") != cache_key(job, salt="v2")


@settings(max_examples=200, deadline=None)
@given(result=results)
def test_technique_result_json_round_trip(result):
    back = TechniqueResult.from_json(result.to_json())
    assert back == result
    # and the canonical serialized form is stable, too
    assert back.to_json() == result.to_json()


@settings(max_examples=50, deadline=None)
@given(result=results)
def test_older_rows_with_dropped_columns_still_load(result):
    # Rows cached before a column was dropped (``fallback_lanes``) or
    # added carry unknown keys or lack known ones: unknown keys are
    # ignored and missing ones take their defaults.
    old = result.to_dict()
    old["fallback_lanes"] = 0
    del old["memdep_diags"]
    back = TechniqueResult.from_dict(old)
    assert back == dataclasses.replace(result, memdep_diags=0)


@settings(max_examples=100, deadline=None)
@given(result=results)
def test_metrics_views_are_consistent(result):
    metrics = result.metrics()
    det = result.deterministic_metrics()
    assert set(metrics) - set(det) == {"opt_time_s"}
    assert all(metrics[k] == det[k] for k in det)
