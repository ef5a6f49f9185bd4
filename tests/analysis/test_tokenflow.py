"""The static token-flow analyzer: wrapper views, deadlock-freedom, and
the predicted-vs-simulated II soundness bridge.

The exhaustive 33-pair simulation cross-check runs in CI as
``python -m repro analyze ii``; here the static side covers every pair
(cheap — no simulation) and the measurement bridge is exercised on a
representative subset containing both choice-free kernels (prediction
must be *exact*) and data-dependent ones (prediction must be *sound*).
"""

from fractions import Fraction

import pytest

from repro.analysis import analyze_circuit, measure_predictions, wrapper_views
from repro.frontend.kernels import KERNEL_NAMES
from repro.pipeline import TECHNIQUES, predict_ii, prepare_circuit

ALL_PAIRS = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]


@pytest.fixture(scope="module")
def gemm_crush():
    return prepare_circuit("gemm", "crush", scale="small")


class TestWrapperViews:
    def test_views_from_decisions(self, gemm_crush):
        views = wrapper_views(gemm_crush.circuit, gemm_crush.decisions)
        assert views
        for v in views:
            assert v.size == len(v.joins) == len(v.output_buffers)
            assert v.credited
            assert all(op in "+".join(v.group) for op in v.group)
            assert v.shared_unit in gemm_crush.circuit.units

    @pytest.mark.parametrize("kernel,technique", ALL_PAIRS,
                             ids=[f"{k}-{t}" for k, t in ALL_PAIRS])
    def test_views_recovered_from_tags_alone(self, kernel, technique):
        # The sharing pass' records are the views; without them each
        # wrapper is rebuilt from its unit tags: the same units, no group.
        prep = prepare_circuit(kernel, technique, scale="small")
        records = wrapper_views(prep.circuit, prep.decisions)
        assert records == sorted(prep.decisions.wrappers, key=lambda w: w.base)
        bare = wrapper_views(prep.circuit, None)
        assert [b.base for b in bare] == [w.base for w in records]
        for b, w in zip(bare, records):
            assert b.group == []
            for name in ("shared_unit", "arbiter", "cond_buffer", "branch",
                         "joins", "credit_counters", "output_buffers",
                         "lazy_forks"):
                assert getattr(b, name) == getattr(w, name), name


class TestStaticAnalysis:
    @pytest.mark.parametrize("kernel,technique", ALL_PAIRS,
                             ids=[f"{k}-{t}" for k, t in ALL_PAIRS])
    def test_every_pair_is_deadlock_free(self, kernel, technique):
        prep = prepare_circuit(kernel, technique, scale="small")
        analysis = predict_ii(prep)
        assert analysis.deadlock_free, [i.message for i in analysis.issues]
        assert not analysis.issues
        # Every performance-critical CFC gets a concrete prediction.
        for name, pred in analysis.predictions.items():
            assert pred.ii is not None and pred.ii >= 1, name

    def test_predictions_are_exact_fractions(self, gemm_crush):
        analysis = predict_ii(gemm_crush)
        assert analysis.ii is not None
        assert isinstance(analysis.ii, Fraction)

    def test_contention_bound_floor(self):
        # A wrapper serving N slots of one CFC cannot start more than one
        # of them per cycle: predicted II >= in-CFC slot count.
        prep = prepare_circuit("gemm", "crush", scale="small")
        analysis = predict_ii(prep)
        for pred in analysis.predictions.values():
            assert pred.ii >= max(1, pred.contention)

    def test_technique_invariance_on_clean_kernels(self):
        # Sharing (done right) must not change the predicted steady-state
        # II relative to the unshared naive build: Eq. 3 sizes credits so
        # the shared unit never throttles the loop.
        per_technique = {}
        for technique in TECHNIQUES:
            prep = prepare_circuit("atax", technique, scale="small")
            per_technique[technique] = predict_ii(prep).ii
        assert len(set(per_technique.values())) == 1, per_technique


class TestMeasurementBridge:
    #: Choice-free kernels: the static bound must match simulation
    #: exactly on every measurable CFC.
    CHOICE_FREE = [("atax", "crush"), ("gemm", "naive"), ("syr2k", "crush")]
    #: Data-dependent control flow: conservative bounds are acceptable,
    #: unsoundness is not.
    DATA_DEPENDENT = [("gsumif", "crush")]

    @pytest.mark.parametrize("kernel,technique", CHOICE_FREE + DATA_DEPENDENT,
                             ids=[f"{k}-{t}"
                                  for k, t in CHOICE_FREE + DATA_DEPENDENT])
    def test_simulated_ii_never_exceeds_prediction(self, kernel, technique):
        prep = prepare_circuit(kernel, technique, scale="small")
        analysis = predict_ii(prep)
        measurements = measure_predictions(prep.lowered, analysis)
        assert measurements
        for m in measurements:
            assert m.sound, (
                f"{kernel}/{technique} {m.cfc}: simulated II {m.simulated} "
                f"exceeds the static bound {m.predicted}"
            )
        if (kernel, technique) in self.CHOICE_FREE:
            measured = [m for m in measurements if m.simulated is not None]
            assert measured
            for m in measured:
                assert m.exact, (
                    f"{kernel}/{technique} {m.cfc}: choice-free prediction "
                    f"{m.predicted} != simulated {m.simulated}"
                )


class TestPipelineIntegration:
    def test_predicted_ii_round_trips_through_json(self):
        from repro.pipeline import TechniqueResult, run_technique

        row = run_technique("gemm", "crush", scale="small", simulate=False)
        assert row.predicted_ii  # gemm has a performance-critical CFC
        assert Fraction(row.predicted_ii) >= 1
        again = TechniqueResult.from_json(row.to_json())
        assert again.predicted_ii == row.predicted_ii
        assert again.flow_diags == row.flow_diags

    def test_predicted_ii_matches_standalone_analysis(self):
        from repro.pipeline import run_technique

        prep = prepare_circuit("gemm", "crush", scale="small")
        expected = str(analyze_circuit(
            prep.circuit, cfcs=prep.cfcs, decisions=prep.decisions
        ).ii)
        row = run_technique("gemm", "crush", scale="small", simulate=False)
        assert row.predicted_ii == expected

    def test_sweep_csv_carries_the_flow_columns(self):
        from repro.sweep.report import CSV_HEADERS

        assert "predicted_ii" in CSV_HEADERS
        assert "flow_diags" in CSV_HEADERS
