"""CLI entry point and VCD export."""

import pytest

from repro.cli import main


class TestCLI:
    def test_kernels_lists_all(self, capsys):
        assert main(["kernels", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        for name in ("atax", "gsumif", "syr2k"):
            assert name in out
        assert "5 fadd" in out  # gsum census visible

    def test_run_crush(self, capsys):
        assert main(["run", "mvt", "crush", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "DSPs        : 5" in out
        assert "verified against reference" in out
        assert "groups" in out

    def test_run_no_sim(self, capsys):
        assert main(["run", "gemm", "naive", "--scale", "small", "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "cycles" not in out

    def test_run_unknown_kernel_is_clean_error(self, capsys):
        assert main(["run", "nonsense"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrapper_breakdown(self, capsys):
        assert main(["wrapper", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "Output buffers" in out
        assert "shared" in out

    def test_run_with_sanitize_and_lint_gate(self, capsys):
        assert main(["run", "gsum", "crush", "--scale", "small",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "lint" in out  # the pre-sim gate reports its counts
        assert "verified against reference" in out

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "kernels", "--scale", "small"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gemm" in proc.stdout


class TestVCD:
    def test_vcd_roundtrip(self, tmp_path):
        from repro.circuit import DataflowCircuit, FunctionalUnit, Sequence, Sink
        from repro.sim import Engine, Trace
        from repro.sim.vcd import write_vcd

        c = DataflowCircuit("vcd_demo")
        a = c.add(Sequence("a", [1.0, 2.0]))
        b = c.add(Sequence("b", [3.0, 4.0]))
        fu = c.add(FunctionalUnit("mul", "fmul"))
        s = c.add(Sink("out"))
        c.connect(a, 0, fu, 0)
        c.connect(b, 0, fu, 1)
        c.connect(fu, 0, s, 0)
        tr = Trace(record_all=True)
        Engine(c, trace=tr).run(lambda: s.count == 2, max_cycles=50)

        path = tmp_path / "run.vcd"
        n = write_vcd(c, tr, str(path))
        text = path.read_text()
        assert n == sum(len(v) for v in tr.fires.values())
        assert "$enddefinitions" in text
        assert "mul__0__to__out__0" in text
        # Every declared var toggles at least once.
        assert text.count("$var wire 1") == len(c.channels)

    def test_vcd_idents_unique(self):
        from repro.sim.vcd import _ident

        ids = {_ident(i) for i in range(500)}
        assert len(ids) == 500


class TestLintCLI:
    def test_lint_single_config_is_clean(self, capsys):
        assert main(["lint", "gsum", "crush", "--scale", "small"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_defaults_to_crush(self, capsys):
        assert main(["lint", "gsum", "--scale", "small"]) == 0
        assert "gsum/crush" in capsys.readouterr().out

    def test_lint_without_target_is_a_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lint_json_output(self, capsys):
        import json

        assert main(["lint", "gsum", "crush", "--scale", "small",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["kernel"] == "gsum"
        assert payload[0]["technique"] == "crush"
        assert payload[0]["errors"] == 0
        assert payload[0]["diagnostics"] == []

    def test_lint_rule_overrides_are_accepted(self, capsys):
        assert main(["lint", "gsum", "crush", "--scale", "small",
                     "--rule", "ST002=off", "--rule", "ST004=error"]) == 0

    def test_lint_bad_rule_spec_is_a_clean_error(self, capsys):
        assert main(["lint", "gsum", "crush", "--rule", "ST002"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lint_exit_codes_for_findings(self, capsys, monkeypatch):
        """Warnings exit 3 (4 under --strict); errors always exit 4."""
        import repro.pipeline as pipeline
        from repro.lint import Diagnostic, LintReport

        def fake_prepare(kernel, technique, style="bb", scale="paper"):
            return None

        severity = {"value": "warning"}

        def fake_lint(prep, config=None, expected_ii=None):
            rep = LintReport(circuit="fake")
            rep.add(Diagnostic(code="ST002", severity=severity["value"],
                               message="synthetic finding"))
            return rep

        monkeypatch.setattr(pipeline, "prepare_circuit", fake_prepare)
        monkeypatch.setattr(pipeline, "lint_prepared", fake_lint)
        assert main(["lint", "gsum", "crush"]) == 3
        assert main(["lint", "gsum", "crush", "--strict"]) == 4
        severity["value"] = "error"
        assert main(["lint", "gsum", "crush"]) == 4
        capsys.readouterr()


class TestAnalyzeCLI:
    def test_analyze_ii_exact_on_choice_free_kernel(self, capsys):
        assert main(["analyze", "ii", "--kernel", "gemm",
                     "--technique", "crush"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out
        assert "0 unsound" in out

    def test_analyze_ii_static_only(self, capsys):
        assert main(["analyze", "ii", "--kernel", "atax",
                     "--technique", "crush", "--no-sim"]) == 0
        out = capsys.readouterr().out
        assert "static-only" in out

    def test_analyze_ii_json_rows(self, capsys):
        import json

        assert main(["analyze", "ii", "--kernel", "gemm",
                     "--technique", "naive", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["kernel"] == "gemm"
        assert rows[0]["status"] in ("exact", "sound")
        assert rows[0]["predicted_ii"] is not None

    def test_lint_sarif_format(self, capsys):
        import json

        assert main(["lint", "gemm", "crush", "--scale", "small",
                     "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_lint_golden_dir_arms_fl005(self, capsys, tmp_path):
        import json

        # A golden that undercuts the real predicted II makes FL005 fire.
        (tmp_path / "gemm-crush.json").write_text(
            json.dumps({"predicted_ii": "1"})
        )
        code = main(["lint", "gemm", "crush", "--scale", "small",
                     "--golden-dir", str(tmp_path)])
        assert code == 3  # FL005 is warning severity
        out = capsys.readouterr().out
        assert "FL005" in out

    def test_lint_golden_dir_with_matching_golden_is_clean(self, capsys):
        code = main(["lint", "gemm", "crush", "--scale", "small",
                     "--golden-dir", "tests/goldens"])
        assert code == 0

    def test_analyze_memdep_classifies_and_gates(self, capsys):
        assert main(["analyze", "memdep", "--kernel", "histogram",
                     "--technique", "crush"]) == 0
        out = capsys.readouterr().out
        assert "lsq-required" in out
        assert "0 unsound" in out

    def test_analyze_memdep_static_only_json(self, capsys):
        import json

        assert main(["analyze", "memdep", "--kernel", "atax",
                     "--technique", "naive", "--no-sim", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["kernel"] == "atax"
        assert rows[0]["memdep"]["mem_class"] == "static-ok"
        assert rows[0]["soundness"] == "skipped"
        assert rows[0]["measurements"] == []

    def test_analyze_memdep_sarif(self, capsys):
        import json

        assert main(["analyze", "memdep", "--kernel", "spmv",
                     "--technique", "naive", "--no-sim",
                     "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert results and all(
            r["ruleId"].startswith("MD") for r in results
        )

    def test_analyze_memdep_exits_4_on_md_error(self, capsys, monkeypatch):
        # Force a proved violation by making the MD003 findings errors.
        import dataclasses

        from repro.lint import RULES

        monkeypatch.setitem(
            RULES, "MD003",
            dataclasses.replace(RULES["MD003"], severity="error"),
        )
        code = main(["analyze", "memdep", "--kernel", "histogram",
                     "--technique", "naive", "--no-sim"])
        assert code == 4
        captured = capsys.readouterr()
        assert "proved memory-dependence violation" in captured.err


class TestCLISharesPreparations:
    """``repro lint`` and ``repro analyze`` lower and buffer each kernel
    once for all of its techniques."""

    @pytest.fixture
    def placements(self, monkeypatch):
        import repro.frontend.kernels as kernels
        import repro.pipeline as pipeline

        monkeypatch.setattr(kernels, "KERNEL_NAMES", ("histogram", "atax"))
        calls = []
        real = pipeline.place_buffers

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "place_buffers", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["lint", "--all"],
        ["analyze", "ii", "--no-sim"],
        ["analyze", "memdep", "--no-sim"],
    ], ids=["lint", "analyze-ii", "analyze-memdep"])
    def test_each_kernel_is_buffered_once(self, placements, argv, capsys):
        assert main([*argv, "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out and "atax" in out
        assert len(placements) == 2
