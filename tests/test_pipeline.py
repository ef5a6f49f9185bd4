"""The end-to-end pipeline API (one Table-2/3 row per call)."""

from collections import Counter

import pytest

from repro.errors import ReproError
from repro.pipeline import (
    TECHNIQUES,
    analyze_memdep,
    predict_ii,
    prepare_circuit,
    run_technique,
    run_technique_batch,
)


class TestRunTechnique:
    def test_row_fields_populated(self):
        row = run_technique("mvt", "crush", scale="small")
        assert row.kernel == "mvt" and row.technique == "crush"
        assert row.dsp == 5
        assert row.slices > 0 and row.lut > 0 and row.ff > 0
        assert row.cp_ns > 3.0
        assert row.cycles > 0
        assert row.exec_time_us == pytest.approx(
            row.cp_ns * row.cycles / 1000.0, rel=0.01
        )
        assert row.opt_time_s > 0
        assert row.groups and all(isinstance(g, list) for g in row.groups)
        assert row.estimate is not None

    def test_metrics_dict(self):
        row = run_technique("mvt", "naive", scale="small")
        m = row.metrics()
        assert set(m) == {
            "dsp", "slices", "lut", "ff", "cp_ns", "cycles",
            "exec_time_us", "opt_time_s",
        }

    def test_unknown_technique(self):
        with pytest.raises(ReproError, match="unknown technique"):
            run_technique("mvt", "telepathy")

    def test_simulate_false_skips_cycles(self):
        row = run_technique("mvt", "crush", scale="small", simulate=False)
        assert row.cycles == 0
        assert row.exec_time_us == 0
        assert row.dsp == 5

    def test_an_unsimulated_batch_gives_one_static_row_per_seed(self):
        simulated = run_technique("gsumif", "crush", scale="small")
        rows = run_technique_batch("gsumif", "crush", [7, 11],
                                   scale="small", simulate=False)
        assert [r.seed for r in rows] == [7, 11]
        static = ("fu_census", "dsp", "slices", "lut", "ff", "cp_ns",
                  "groups", "predicted_ii", "mem_class", "lint_errors",
                  "lint_warnings", "flow_diags", "memdep_diags")
        for row in rows:
            assert (row.cycles, row.exec_time_us, row.sim_backend) == \
                (0, 0, "")
            assert [getattr(row, f) for f in static] == \
                [getattr(simulated, f) for f in static]

    def test_only_simulated_rows_record_a_backend(self):
        from repro.sim import DEFAULT_BACKEND

        static = run_technique("gsum", "naive", scale="small",
                               simulate=False)
        simulated = run_technique("gsum", "naive", scale="small")
        assert static.sim_backend == ""
        assert simulated.sim_backend == DEFAULT_BACKEND

    def test_size_overrides_forwarded(self):
        small = run_technique("gemm", "naive", scale="small", simulate=True)
        smaller = run_technique(
            "gemm", "naive", scale="small", simulate=True, NI=2, NJ=2, NK=2
        )
        assert smaller.cycles < small.cycles

    def test_all_techniques_listed(self):
        assert TECHNIQUES == ("naive", "inorder", "crush")


class TestOneAnalysisPerRow:
    """A row runs token-flow and memory-dependence analysis once per
    prepared circuit: with the lint gate on, the row's ``predicted_ii``
    and ``mem_class`` come from the analyses the lint run cached."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.analysis as analysis
        from repro.analysis import memdep, tokenflow

        counts = Counter()

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        # Every name the pipeline and the lint context look them up by.
        monkeypatch.setattr(tokenflow, "analyze_circuit",
                            counting("flow", tokenflow.analyze_circuit))
        monkeypatch.setattr(analysis, "analyze_circuit",
                            counting("flow", analysis.analyze_circuit))
        monkeypatch.setattr(memdep, "analyze_kernel",
                            counting("memdep", memdep.analyze_kernel))
        return counts

    @staticmethod
    def direct_columns(kernel, technique):
        prep = prepare_circuit(kernel, technique, scale="small")
        ii = predict_ii(prep).ii
        return ("" if ii is None else str(ii)), analyze_memdep(prep).mem_class

    @pytest.mark.parametrize("lint", ["warn", "off"])
    def test_run_technique(self, calls, lint):
        row = run_technique(
            "gsumif", "crush", scale="small", simulate=False, lint=lint
        )
        assert calls == {"flow": 1, "memdep": 1}
        assert row.predicted_ii
        assert (row.predicted_ii, row.mem_class) == self.direct_columns(
            "gsumif", "crush"
        )

    def test_run_technique_batch(self, calls):
        rows = run_technique_batch("atax", "inorder", [7, 11], scale="small")
        assert calls == {"flow": 1, "memdep": 1}
        want = self.direct_columns("atax", "inorder")
        assert [(r.predicted_ii, r.mem_class) for r in rows] == [want] * 2
