"""The kernel runner's one path into the simulator.

Every seed gets the same set-up and the same verification, alone or as
a lane: a result that differs from the C reference raises, and a batch
with no lane loop to use (one seed, or the event backend) or with the
sanitizer armed runs seed by seed, each run with its own sanitizer.
"""

import pytest

from repro.errors import SimulationError
from repro.frontend import runner, simulate_kernel, simulate_kernel_batch
from repro.pipeline import prepare_circuit, run_technique_batch
from repro.sim import HandshakeSanitizer


@pytest.fixture(scope="module")
def lowered():
    return prepare_circuit("atax", "crush", scale="small").lowered


@pytest.fixture
def perturbed_reference(monkeypatch, lowered):
    """Make the reference disagree with the circuit on one array."""
    real = runner.run_reference
    name = lowered.kernel.arrays[0].name

    def perturbed(kernel, inputs):
        ref = real(kernel, inputs)
        ref.arrays[name] = ref.arrays[name] + 1.0
        return ref

    monkeypatch.setattr(runner, "run_reference", perturbed)
    return name


def test_scalar_run_raises_on_a_reference_mismatch(lowered,
                                                  perturbed_reference):
    with pytest.raises(SimulationError,
                       match="diverges from the reference semantics"):
        simulate_kernel(lowered)


def test_laned_batch_raises_on_a_reference_mismatch(lowered,
                                                    perturbed_reference):
    with pytest.raises(SimulationError,
                       match=r"\(seed 7\): simulation diverges from the "
                             "reference semantics"):
        simulate_kernel_batch(lowered, [7, 11], backend="codegen")


def test_one_seed_batch_runs_seed_by_seed(lowered):
    (row,) = run_technique_batch("gsumif", "crush", seeds=[7], scale="small")
    assert row.data_plane == "scalar"
    (run,) = simulate_kernel_batch(lowered, [7], backend="codegen")
    want = simulate_kernel(lowered, seed=7, backend="codegen")
    assert (run.cycles, run.fires, run.data_plane) == \
        (want.cycles, want.fires, "scalar")


@pytest.mark.parametrize("armed_by", ["argument", "variable"])
def test_sanitized_batch_runs_seed_by_seed_with_a_sanitizer_each(
        lowered, monkeypatch, armed_by):
    plain = simulate_kernel_batch(lowered, [7, 11], backend="codegen")
    assert [run.data_plane for run in plain] == ["tuple", "tuple"]

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
    runs = simulate_kernel_batch(lowered, [7, 11], backend="codegen",
                                 sanitize=sanitize)
    assert len(engines) == 2
    assert all(e.sanitizer.cycles_checked > 0 for e in engines)
    assert [run.data_plane for run in runs] == ["scalar", "scalar"]
    assert [(r.cycles, r.fires) for r in runs] == \
        [(r.cycles, r.fires) for r in plain]


def test_a_prebuilt_sanitizer_observes_one_seed(lowered):
    sanitizer = HandshakeSanitizer(lowered.circuit)
    with pytest.raises(SimulationError, match="observes one run"):
        simulate_kernel_batch(lowered, [7, 11], sanitize=sanitizer)
    (run,) = simulate_kernel_batch(lowered, [7], sanitize=sanitizer)
    assert run.cycles == simulate_kernel(lowered, seed=7).cycles
    assert sanitizer.cycles_checked > 0 and sanitizer.violation_count == 0
