"""A serial sweep simulates each distinct circuit once.

Rows whose prepared circuits, inputs and simulation settings are
identical share one verified run (``repro.pipeline.shared_simulations``,
keyed by ``DataflowCircuit.fingerprint`` and the seed), one-seed rows
and lane batches alike.  Sharing must never change a row, and must never
happen where a run's identity is wider than the key: outside a sweep,
under the sanitizer, after a failure, across cycle budgets or backends,
or for a circuit with no fingerprint.
"""

import copy
import io

import pytest

import repro.frontend.runner as runner
import repro.pipeline as pipeline
from repro.circuit.channel import PortRef
from repro.circuit.units import (
    CreditCounter,
    ElasticBuffer,
    FixedOrderMerge,
    FunctionalUnit,
    LoadPort,
    Sequence,
)
from repro.circuit.units.functional import op_spec
from repro.pipeline import (
    prepare_circuit,
    run_technique,
    run_technique_batch,
    shared_simulations,
)
from repro.sim import DEFAULT_BACKEND
from repro.sweep import (
    ProgressReporter,
    SweepJob,
    build_matrix,
    load_outcome,
    run_sweep,
    write_outputs,
)


@pytest.fixture
def sim_calls(monkeypatch):
    """Count the seeds the pipeline actually simulates."""
    calls = []
    real = pipeline.simulate_kernel_batch

    def counted(lowered, seeds, **kwargs):
        calls.extend((lowered.kernel.name, seed) for seed in seeds)
        return real(lowered, seeds, **kwargs)

    monkeypatch.setattr(pipeline, "simulate_kernel_batch", counted)
    return calls


def histogram_jobs(*techniques, **fields):
    return [SweepJob("histogram", t, scale="small", **fields)
            for t in techniques]


# --------------------------------------------------------------------------
# sharing


def test_serial_sweep_simulates_each_distinct_circuit_once(sim_calls):
    jobs = build_matrix(kernels=("histogram", "atax"), scale="small")
    outcome = run_sweep(jobs, workers=0)
    assert not outcome.failed_records
    # histogram: one circuit for all three techniques; atax: In-order and
    # CRUSH build the same circuit.
    assert len(sim_calls) == 3
    assert outcome.shared_simulations == 3

    for record in outcome.records:
        job = record.job
        alone = run_technique(job.kernel, job.technique, scale="small")
        assert record.result.deterministic_metrics() == \
            alone.deterministic_metrics(), job.label()
        assert record.result.sim_backend == alone.sim_backend


def test_a_lane_sweep_shares_simulations_like_a_scalar_sweep(sim_calls):
    jobs = build_matrix(kernels=("atax", "histogram"), scale="small",
                        seeds=(7, 11))
    scalar = run_sweep(jobs, workers=0).raise_on_failure()
    del sim_calls[:]
    laned = run_sweep(jobs, workers=0, lanes=2).raise_on_failure()
    # histogram: one circuit for all three techniques; atax: In-order and
    # CRUSH build the same circuit.  Two seeds each.
    assert scalar.shared_simulations == laned.shared_simulations == 6
    assert sorted(sim_calls) == sorted(
        (kernel, seed) for kernel in ("atax", "atax", "histogram")
        for seed in (7, 11))

    for record in laned.records:
        job = record.job
        alone = run_technique(job.kernel, job.technique, scale="small",
                              seed=job.seed)
        assert record.result.deterministic_metrics() == \
            alone.deterministic_metrics(), job.label()
    assert [r.result.deterministic_metrics() for r in laned.records] == \
        [r.result.deterministic_metrics() for r in scalar.records]


def test_a_batch_simulates_only_the_seeds_the_memo_lacks(sim_calls):
    with shared_simulations() as memo:
        run_technique_batch("histogram", "naive", [7, 11], scale="small")
        del sim_calls[:]
        rows = run_technique_batch("histogram", "inorder", [11, 13, 7],
                                   scale="small")
    assert sim_calls == [("histogram", 13)]
    assert memo.shared == 2
    alone = [run_technique("histogram", "inorder", scale="small", seed=s)
             for s in (11, 13, 7)]
    assert [r.deterministic_metrics() for r in rows] == \
        [a.deterministic_metrics() for a in alone]
    assert [r.seed for r in rows] == [11, 13, 7]


def test_the_memo_keys_the_resolved_backend(sim_calls):
    jobs = (histogram_jobs("naive")
            + histogram_jobs("inorder", sim_backend=DEFAULT_BACKEND))
    outcome = run_sweep(jobs, workers=0)
    assert len(sim_calls) == 1 and outcome.shared_simulations == 1


def test_shared_count_reaches_the_artifact_and_the_summary(tmp_path):
    outcome = run_sweep(histogram_jobs("naive", "inorder"), workers=0)
    assert outcome.shared_simulations == 1
    paths = write_outputs(outcome, tmp_path)
    assert load_outcome(paths["json"]).shared_simulations == 1

    stream = io.StringIO()
    ProgressReporter(total=2, stream=stream, quiet=True).summary(outcome)
    assert "1 simulations shared" in stream.getvalue()

    alone = run_sweep(histogram_jobs("naive"), workers=0)
    assert alone.shared_simulations == 0
    assert "shared" not in ProgressReporter(
        total=1, stream=io.StringIO()).summary(alone)


def test_pooled_sweep_shares_nothing():
    outcome = run_sweep(histogram_jobs("naive", "inorder"), workers=1)
    assert not outcome.failed_records
    assert outcome.shared_simulations == 0


# --------------------------------------------------------------------------
# where sharing must not happen


def test_run_technique_outside_a_sweep_never_shares(sim_calls):
    rows = [run_technique("histogram", t, scale="small")
            for t in ("naive", "inorder")]
    assert len(sim_calls) == 2
    assert rows[0].cycles == rows[1].cycles


def test_a_sanitized_sweep_simulates_every_row(sim_calls, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
    outcome = run_sweep(histogram_jobs("naive", "inorder"), workers=0)
    assert not outcome.failed_records
    assert len(sim_calls) == 2 and outcome.shared_simulations == 0


def test_sanitized_runs_stay_out_of_the_memo(sim_calls):
    with shared_simulations() as memo:
        for t in ("naive", "inorder"):
            run_technique("histogram", t, scale="small", sanitize=True)
    assert len(sim_calls) == 2
    assert memo.shared == 0 and not memo.runs


@pytest.mark.parametrize("armed_by", ["argument", "variable"])
def test_a_sanitized_batch_runs_seed_by_seed_outside_the_memo(
        monkeypatch, armed_by):
    plain = run_technique_batch("atax", "crush", [7, 11], scale="small")
    engines = []
    real = runner.create_engine

    def recorded(*args, **kwargs):
        engines.append(real(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(runner, "create_engine", recorded)
    sanitize = True
    if armed_by == "variable":
        monkeypatch.setenv("REPRO_SIM_SANITIZE", "1")
        sanitize = None
    with shared_simulations() as memo:
        rows = [run_technique_batch("atax", t, [7, 11], scale="small",
                                    sanitize=sanitize)
                for t in ("crush", "inorder")]  # twins: one circuit
    assert len(engines) == 4
    assert all(e.sanitizer.cycles_checked > 0 for e in engines)
    assert memo.shared == 0 and not memo.runs
    for twin in rows:
        assert [r.data_plane for r in twin] == ["scalar", "scalar"]
        assert [r.cycles for r in twin] == [r.cycles for r in plain]


def test_a_failed_run_is_not_stored(monkeypatch):
    real = pipeline.simulate_kernel_batch
    calls = []

    def flaky(lowered, seeds, **kwargs):
        calls.append(lowered.kernel.name)
        if len(calls) == 1:
            raise RuntimeError("injected simulation failure")
        return real(lowered, seeds, **kwargs)

    monkeypatch.setattr(pipeline, "simulate_kernel_batch", flaky)
    outcome = run_sweep(histogram_jobs("naive", "inorder"), workers=0,
                        retries=0)
    failed, ok = outcome.records
    assert failed.error_type == "RuntimeError" and ok.ok
    assert len(calls) == 2
    assert outcome.shared_simulations == 0


def test_twins_with_different_cycle_budgets_simulate_separately(sim_calls):
    jobs = (histogram_jobs("naive", max_cycles=100_000)
            + histogram_jobs("inorder", max_cycles=200_000))
    outcome = run_sweep(jobs, workers=0)
    assert not outcome.failed_records
    assert len(sim_calls) == 2 and outcome.shared_simulations == 0


def test_event_and_codegen_runs_simulate_separately(sim_calls):
    jobs = (histogram_jobs("naive", sim_backend="event")
            + histogram_jobs("inorder", sim_backend="codegen"))
    outcome = run_sweep(jobs, workers=0)
    assert not outcome.failed_records
    assert len(sim_calls) == 2 and outcome.shared_simulations == 0
    assert [r.result.sim_backend for r in outcome.records] == \
        ["event", "codegen"]


def test_an_unkeyable_circuit_still_simulates(sim_calls, monkeypatch):
    real = pipeline.prepare_circuit

    def with_odd_attribute(*args, **kwargs):
        prep = real(*args, **kwargs)
        next(iter(prep.circuit.units.values())).odd = object()
        assert prep.circuit.fingerprint() is None
        return prep

    monkeypatch.setattr(pipeline, "prepare_circuit", with_odd_attribute)
    outcome = run_sweep(histogram_jobs("naive", "inorder"), workers=0)
    assert not outcome.failed_records
    assert len(sim_calls) == 2 and outcome.shared_simulations == 0


# --------------------------------------------------------------------------
# the fingerprint


@pytest.fixture(scope="module")
def prepared():
    """A prepared circuit with every unit kind the mutations touch:
    fast-token atax/crush folds constants into FUs and has credit
    counters; a cyclic sequencer and a value sequence are added."""
    circuit = prepare_circuit("atax", "crush", style="fast-token",
                              scale="small").circuit
    circuit.add(FixedOrderMerge("seq_merge", 2, order=[0, 1, 0]))
    circuit.add(Sequence("values", [1, 2, 3]))
    return circuit


def _first(circuit, kind, where=lambda u: True):
    return next(u for u in circuit.units.values()
                if isinstance(u, kind) and where(u))


def _set(kind, attr, value, where=lambda u: True):
    def mutate(c):
        setattr(_first(c, kind, where), attr, value)
    return mutate


def _change_const(c):
    fu = _first(c, FunctionalUnit, lambda u: u.const_ops)
    slot, value = next(iter(fu.const_ops.items()))
    fu.const_ops[slot] = value + 1


def _add_credit(c):
    _first(c, CreditCounter).initial += 1


def _move_endpoint(c):
    a, b = c.channels[0], c.channels[1]
    a.dst, b.dst = b.dst, a.dst


def _move_source_port(c):
    ch = c.channels[0]
    ch.src = PortRef(ch.src.unit, ch.src.index + 1)


MUTATIONS = {
    "buffer slots": _set(ElasticBuffer, "slots", 7),
    "fu op": _set(FunctionalUnit, "op", "fsub",
                  lambda u: u.op == "fadd"),
    "fu spec": _set(FunctionalUnit, "spec", op_spec("fsub"),
                    lambda u: u.op == "fadd"),
    "fu latency": _set(FunctionalUnit, "latency", 3,
                       lambda u: u.op == "fadd"),
    "const operand": _change_const,
    "credit count": _add_credit,
    "merge order": _set(FixedOrderMerge, "order", [1, 0, 0]),
    "sequence values": _set(Sequence, "values", [1, 2, 4]),
    "load array": _set(LoadPort, "array", "elsewhere"),
    "channel endpoint": _move_endpoint,
    "channel source port": _move_source_port,
}


@pytest.mark.parametrize("change", sorted(MUTATIONS))
def test_fingerprint_sees_every_simulated_parameter(prepared, change):
    circuit = copy.deepcopy(prepared)
    before = circuit.fingerprint()
    assert before is not None and before == prepared.fingerprint()
    MUTATIONS[change](circuit)
    assert circuit.fingerprint() != before


def test_fingerprint_ignores_meta(prepared):
    circuit = copy.deepcopy(prepared)
    for unit in circuit.units.values():
        unit.meta["order_state"] = True
        unit.meta["note"] = object()
    assert circuit.fingerprint() == prepared.fingerprint()
