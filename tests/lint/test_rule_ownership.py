"""One owner per invariant: each single defect is reported once, by the
rule that proves it, and the rule catalog in DESIGN.md is the registry.

The defect table pins the exact codes, so a second rule that starts
re-reporting Eq. 1 or a dead cycle under another code fails here.
"""

import re
from pathlib import Path

import pytest

from repro.circuit import DataflowCircuit, FunctionalUnit, Sequence, Sink
from repro.core.wrapper import insert_sharing_wrapper
from repro.errors import CircuitError, LintError
from repro.lint import RULES, LintConfig, run_lint
from repro.pipeline import lint_prepared, prepare_circuit
from tests.lint.test_rules_credit import _two_stream_circuit as _two_streams

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def _codes(report):
    return sorted(d.code for d in report.diagnostics)


def test_uncredited_wrapper_is_fl002_only():
    c = _two_streams()
    insert_sharing_wrapper(c, ["m0", "m1"], use_credits=False)
    assert _codes(run_lint(c, cfcs=[])) == ["FL002"]


def test_shrunk_output_buffer_is_fl002_plus_the_cr001_drift():
    prep = prepare_circuit("gsum", "crush", scale="small")
    w = prep.decisions.wrappers[0]
    cc = prep.circuit.units[w.credit_counters[0]]
    ob = prep.circuit.units[w.output_buffers[0]]
    ob.slots = cc.initial - 1
    report = lint_prepared(prep)
    assert _codes(report) == ["CR001", "FL002"]
    assert "Eq. 1" in report.by_code("FL002")[0].message
    assert "drifted" in report.by_code("CR001")[0].message


def test_one_raised_credit_counter_is_one_finding_per_rule():
    # The count lives only in the counter's ``initial``: raising it by one
    # breaks Eq. 1 once (FL002), drifts from the decision once (CR001)
    # and buys a surplus credit (FL004), with no second FL002 for a
    # stale copy of the count.
    prep = prepare_circuit("gsum", "crush", scale="small")
    w = prep.decisions.wrappers[0]
    prep.circuit.units[w.credit_counters[0]].initial += 1
    report = lint_prepared(prep)
    assert _codes(report) == ["CR001", "FL002", "FL004"]
    assert "Eq. 1" in report.by_code("FL002")[0].message


def test_tokenless_loop_backedge_is_fl001_only():
    prep = prepare_circuit("gsum", "crush", scale="small")
    backedge = next(ch for ch in prep.circuit.channels
                    if ch.attrs.get("backedge") and ch.attrs.get("tokens"))
    tokens = backedge.attrs["tokens"]
    backedge.attrs["tokens"] = 0
    assert _codes(lint_prepared(prep)) == ["FL001"]
    backedge.attrs["tokens"] = tokens
    assert _codes(lint_prepared(prep)) == []


def test_undriven_input_is_st001_only_and_validate_says_the_same():
    c = DataflowCircuit("dangling")
    src = c.add(Sequence("src", [1.0]))
    fu = c.add(FunctionalUnit("add", "fadd"))  # input 1 left undriven
    sink = c.add(Sink("sink"))
    c.connect(src, 0, fu, 0)
    c.connect(fu, 0, sink, 0)
    report = run_lint(c, cfcs=[])
    assert _codes(report) == ["ST001"]
    with pytest.raises(CircuitError) as exc:
        c.validate()
    messages = [d.message for d in report.diagnostics]
    assert str(exc.value).splitlines()[1:] == [f"  {m}" for m in messages]
    assert "undriven" in messages[0]


def _registered():
    LintConfig().rules()  # loads the rule modules
    return set(RULES)


def test_registry_holds_eighteen_codes_and_st006_is_retired():
    codes = _registered()
    assert len(codes) == 18
    assert "ST006" not in codes


@pytest.mark.parametrize("spec", ["ST006=off", "ST999=error"])
def test_a_config_naming_an_unknown_code_is_refused(spec):
    codes = _registered()
    config = LintConfig.from_specs([spec])
    with pytest.raises(LintError) as exc:
        run_lint(_two_streams(), cfcs=[], config=config)
    assert spec.split("=")[0] in str(exc.value)
    assert all(code in str(exc.value) for code in codes)


def test_every_registered_code_is_accepted():
    codes = sorted(_registered())
    config = LintConfig.from_specs([f"{code}=off" for code in codes])
    assert run_lint(_two_streams(), cfcs=[], config=config).diagnostics == []
    config = LintConfig.from_specs([f"{code}=info" for code in codes])
    assert run_lint(_two_streams(), cfcs=[], config=config).ok


def test_cli_refuses_an_unknown_code_with_exit_2(capsys):
    from repro.cli import main

    assert main(["lint", "atax", "crush", "--rule", "ST999=off",
                 "--rule", "CR01=error"]) == 2
    err = capsys.readouterr().err
    assert "CR01, ST999" in err and "ST007" in err


def test_design_rule_catalog_lists_exactly_the_registered_codes():
    text = DESIGN.read_text()
    table = text[text.index("### Rule catalog"):]
    table = table[:table.index("\n\n", table.index("| Code"))]
    rows = re.findall(r"^\| ([A-Z]{2}\d{3}) \| (\w+) \|", table, re.M)
    live = {code for code, severity in rows if severity != "retired"}
    retired = {code for code, severity in rows if severity == "retired"}
    assert live == _registered()
    assert retired == {"ST006"}
    for code, severity in rows:
        if code in RULES:
            assert severity == RULES[code].severity, code
