"""A serial sweep lowers and buffers each kernel once.

Inside ``repro.pipeline.shared_simulations``, ``prepare_circuit`` builds,
lowers and buffers each (kernel, style, scale, size overrides) once,
keeps that circuit in the memo and gives every technique its own clone
to share on.  Sharing a preparation must never change a row or the
stored circuit, and must never happen across styles, scales or size
overrides, after a failure, or outside a serial sweep.
"""

import io

import pytest

import repro.pipeline as pipeline
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.pipeline import (
    TECHNIQUES,
    prepare_circuit,
    run_technique,
    shared_simulations,
)
from repro.sweep import (
    ProgressReporter,
    SweepJob,
    build_matrix,
    load_outcome,
    run_sweep,
    write_outputs,
)

STYLES = ("bb", "fast-token")


def _run(kernel, technique, style):
    """One small row without simulation (``opt_time_s`` dropped) and the
    fingerprint, CFC unit sets and groups of the circuit it prepared."""
    prepared = []
    real = pipeline.prepare_circuit

    def recording(*args, **kwargs):
        prep = real(*args, **kwargs)
        prepared.append((prep.circuit.fingerprint(),
                         [sorted(c.unit_names) for c in prep.cfcs],
                         prep.groups))
        return prep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "prepare_circuit", recording)
        row = run_technique(kernel, technique, style=style, scale="small",
                            simulate=False).to_dict()
    del row["opt_time_s"]
    (prep,) = prepared
    return prep, row


@pytest.fixture(scope="module")
def lone():
    """Every small configuration run outside a memo."""
    return {(k, t, s): _run(k, t, s)
            for s in STYLES for k in KERNEL_NAMES for t in TECHNIQUES}


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """Count ``lower_kernel`` and ``place_buffers`` calls, also in the
    forked children of a pooled sweep (through a file)."""
    log = tmp_path / "calls.log"
    log.touch()

    def counted(name):
        real = getattr(pipeline, name)

        def call(*args, **kwargs):
            with open(log, "a") as f:
                f.write(name + "\n")
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, call)

    counted("lower_kernel")
    counted("place_buffers")
    return lambda name: log.read_text().split().count(name)


# --------------------------------------------------------------------------
# sharing


@pytest.mark.parametrize("order", [TECHNIQUES, TECHNIQUES[::-1]],
                         ids=["table-order", "reversed"])
@pytest.mark.parametrize("style", STYLES)
def test_shared_preparations_equal_lone_ones(lone, style, order):
    with shared_simulations() as memo:
        for kernel in KERNEL_NAMES:
            for technique in order:
                assert _run(kernel, technique, style) == \
                    lone[(kernel, technique, style)], (kernel, technique)
    assert len(memo.bases) == len(KERNEL_NAMES)
    assert memo.shared_preparations == 2 * len(KERNEL_NAMES)


def test_the_stored_base_is_never_changed():
    with shared_simulations() as memo:
        for technique in TECHNIQUES:
            run_technique("atax", technique, scale="small")
    (base,) = memo.bases.values()
    fresh = pipeline._buffer("atax", "bb", "small", {})
    assert base.lowered.circuit.fingerprint() == \
        fresh.lowered.circuit.fingerprint()
    assert [c.unit_names for c in base.cfcs] == \
        [c.unit_names for c in fresh.cfcs]
    assert base.lowered.kernel == build("atax", scale="small")


def test_each_preparation_owns_its_cfcs():
    with shared_simulations() as memo:
        prep = prepare_circuit("atax", "crush", scale="small")
    (base,) = memo.bases.values()
    assert prep.cfcs and all(c.circuit is prep.circuit for c in prep.cfcs)
    names = [set(c.unit_names) for c in base.cfcs]
    for c in prep.cfcs:
        c.unit_names.add("elsewhere")
    assert [c.unit_names for c in base.cfcs] == names


def test_serial_sweep_lowers_and_buffers_each_kernel_once(calls):
    jobs = build_matrix(kernels=("histogram", "atax"), scale="small")
    outcome = run_sweep(jobs, workers=0)
    assert not outcome.failed_records
    assert calls("lower_kernel") == 2 and calls("place_buffers") == 2
    assert outcome.shared_preparations == 4


def test_pooled_sweep_prepares_every_row(calls):
    jobs = build_matrix(kernels=("histogram", "atax"), scale="small",
                        simulate=False)
    outcome = run_sweep(jobs, workers=1)
    assert not outcome.failed_records
    assert calls("lower_kernel") == 6 and calls("place_buffers") == 6
    assert outcome.shared_preparations == 0


def test_rows_add_the_one_placement_time_to_their_sharing_time():
    with shared_simulations() as memo:
        preps = [prepare_circuit("gsum", t, scale="small")
                 for t in TECHNIQUES]
    (base,) = memo.bases.values()
    assert {p.buffer_time for p in preps} == {base.buffer_time}


def test_shared_count_reaches_the_artifact_and_the_summary(tmp_path):
    jobs = [SweepJob("histogram", t, scale="small", simulate=False)
            for t in ("naive", "inorder")]
    outcome = run_sweep(jobs, workers=0)
    assert outcome.shared_preparations == 1
    paths = write_outputs(outcome, tmp_path)
    assert load_outcome(paths["json"]).shared_preparations == 1

    stream = io.StringIO()
    ProgressReporter(total=2, stream=stream, quiet=True).summary(outcome)
    assert "1 preparations shared" in stream.getvalue()


# --------------------------------------------------------------------------
# where sharing must not happen


def test_run_technique_outside_a_sweep_prepares_every_row(calls):
    for technique in ("naive", "inorder"):
        run_technique("histogram", technique, scale="small", simulate=False)
    assert calls("lower_kernel") == 2 and calls("place_buffers") == 2


def test_a_failed_preparation_stores_nothing(monkeypatch):
    real = pipeline.place_buffers
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected buffer placement failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "place_buffers", flaky)
    with shared_simulations() as memo:
        with pytest.raises(RuntimeError, match="injected"):
            prepare_circuit("histogram", "naive", scale="small")
        assert not memo.bases and memo.shared_preparations == 0
        prepare_circuit("histogram", "naive", scale="small")
        prepare_circuit("histogram", "crush", scale="small")
    assert len(calls) == 2
    assert len(memo.bases) == 1 and memo.shared_preparations == 1


def test_styles_scales_and_overrides_never_share():
    with shared_simulations() as memo:
        prepare_circuit("histogram", "naive", scale="small")
        prepare_circuit("histogram", "naive", style="fast-token",
                        scale="small")
        prepare_circuit("histogram", "naive", scale="paper")
        prepare_circuit("histogram", "naive", scale="small", N=8)
        prepare_circuit("histogram", "naive", scale="small", N=8, B=4)
        assert memo.shared_preparations == 0 and len(memo.bases) == 5
        prepare_circuit("histogram", "inorder", scale="small", B=4, N=8)
    assert memo.shared_preparations == 1
