"""The kernel runner's one path into the simulator.

Every seed gets the same set-up and the same verification, alone or as
a lane: a result that differs from the C reference raises, and a batch
with no lane loop to use (one seed, or the event backend) runs seed by
seed with the same observer refusal.
"""

import pytest

from repro.errors import SimulationError
from repro.frontend import runner, simulate_kernel, simulate_kernel_batch
from repro.pipeline import prepare_circuit, run_technique_batch


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


def test_one_seed_batch_refuses_observers(lowered):
    with pytest.raises(SimulationError, match="HandshakeSanitizer"):
        simulate_kernel_batch(lowered, [7], sanitize=True)
