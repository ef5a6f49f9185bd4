"""Output-buffer elision (the paper's Section 6.4 extension)."""

import pytest

from repro.analysis import analyze_circuit, wrapper_views
from repro.circuit import DataflowCircuit, FunctionalUnit, Sequence, Sink
from repro.core import SharingResult, insert_sharing_wrapper
from repro.core.elision import ElisionResult, elide_output_buffers
from repro.errors import SharingError
from repro.lint import run_lint
from repro.resources import estimate_circuit
from repro.sim import Engine
from repro.verify import explore, make_environment_nondeterministic

from tests.helpers import fig1_circuit


def sink_consumers_circuit(n=3, tokens=4):
    """Shared ops draining straight into sinks: every OB is elidable."""
    c = DataflowCircuit("t")
    names, sinks = [], []
    for i in range(n):
        a = c.add(Sequence(f"a{i}", [float(k) for k in range(tokens)]))
        b = c.add(Sequence(f"b{i}", [float(i + 1)] * tokens))
        fu = c.add(FunctionalUnit(f"op{i}", "fmul"))
        s = c.add(Sink(f"s{i}"))
        c.connect(a, 0, fu, 0)
        c.connect(b, 0, fu, 1)
        c.connect(fu, 0, s, 0)
        names.append(fu.name)
        sinks.append(s)
    w = insert_sharing_wrapper(c, names, credits={nm: 2 for nm in names})
    return c, w, sinks, tokens


class TestStructuralElision:
    def test_removes_all_obs_with_sink_consumers(self):
        c, w, sinks, tokens = sink_consumers_circuit()
        before = estimate_circuit(c)
        result = elide_output_buffers(c, [w], mode="structural")
        after = estimate_circuit(c)
        assert result.count == 3
        assert w.output_buffers == ["", "", ""]  # slots stay aligned
        assert after.lut < before.lut  # the paper's motivation: LUT savings
        Engine(c).run(lambda: all(s.count == tokens for s in sinks),
                      max_cycles=2000)
        assert sinks[1].received == [0.0, 2.0, 4.0, 6.0]

    def test_keeps_obs_with_real_consumers(self):
        c, out, _ = fig1_circuit(4, slack_slots=0)
        w = insert_sharing_wrapper(c, ["M2", "M3"],
                                   credits={"M2": 1, "M3": 1})
        result = elide_output_buffers(c, [w], mode="structural")
        # M2/M3 feed a join — not always-ready, so nothing may be removed.
        assert result.count == 0
        assert len(result.kept) == 2

    def test_unknown_mode_rejected(self):
        c, w, *_ = sink_consumers_circuit()
        with pytest.raises(SharingError, match="mode"):
            elide_output_buffers(c, [w], mode="hopeful")

    def test_idempotent(self):
        c, w, sinks, tokens = sink_consumers_circuit()
        elide_output_buffers(c, [w], mode="structural")
        again = elide_output_buffers(c, [w], mode="structural")
        assert again.count == 0


class TestVerifiedElision:
    def test_verifier_distinguishes_load_bearing_from_redundant(self):
        # Figure 1's join consumer: M2's OB is load-bearing (its token must
        # wait for the much later M3 result — removing it re-enables
        # head-of-line blocking), while M3's OB is genuinely redundant (the
        # join is always ready for it by the time it arrives).  The model
        # checker proves exactly that split — a removal the structural rule
        # could never justify.
        c, out, _ = fig1_circuit(3, slack_slots=0)
        w = insert_sharing_wrapper(c, ["M2", "M3"],
                                   credits={"M2": 1, "M3": 1})
        make_environment_nondeterministic(c)
        ob_m2, ob_m3 = list(w.output_buffers)
        result = elide_output_buffers(c, [w], mode="verify", max_states=60_000)
        assert result.kept == [ob_m2]
        assert result.removed == [ob_m3]
        # The optimized circuit remains verified deadlock-free.
        assert explore(c, max_states=60_000)

    def test_verifier_allows_safe_removal(self):
        c, w, sinks, tokens = sink_consumers_circuit(n=2, tokens=2)
        make_environment_nondeterministic(c)
        result = elide_output_buffers(c, [w], mode="verify", max_states=60_000)
        # Environment sinks may stall, but with 2 credits and the branch
        # holding the head token the wrapper still cannot deadlock: the
        # checker proves the OBs removable even under stalling.
        assert result.count + len(result.kept) == 2
        assert explore(c, max_states=120_000)


def fig1_verified_elision():
    """Figure 1's verify-mode case: only M3's output buffer goes."""
    c, _, _ = fig1_circuit(3, slack_slots=0)
    w = insert_sharing_wrapper(c, ["M2", "M3"], credits={"M2": 1, "M3": 1})
    make_environment_nondeterministic(c)
    kept = w.output_buffers[0]
    elide_output_buffers(c, [w], mode="verify", max_states=60_000)
    return c, w, [kept, ""], set()


def sink_structural_elision():
    """Every output buffer goes; 2 credits against occupancy 0 (no CFCs)
    are Eq. 3's surplus, so only FL004 may report."""
    c, w, _, _ = sink_consumers_circuit()
    elide_output_buffers(c, [w], mode="structural")
    return c, w, ["", "", ""], {"FL004"}


class TestElidedWrapperRecord:
    """An elided slot keeps its place in the wrapper's record and ends at
    its lazy fork, so lint and token-flow accept the elided wrapper, from
    its record or from its tags alone."""

    @pytest.mark.parametrize(
        "elide", [fig1_verified_elision, sink_structural_elision],
        ids=["fig1-verify", "sinks-structural"],
    )
    def test_lint_and_tokenflow_read_the_elided_record(self, elide):
        c, w, slots, lint_codes = elide()
        assert w.output_buffers == slots
        decisions = SharingResult(groups=[w.group], wrappers=[w])
        flow = analyze_circuit(c, cfcs=[], decisions=decisions)
        assert flow.views == [w]
        assert flow.issues == []
        report = run_lint(c, decisions=decisions, cfcs=[])
        assert {d.code for d in report.diagnostics} == lint_codes
        [bare] = wrapper_views(c)
        assert bare.output_buffers == slots
        assert (bare.joins, bare.lazy_forks) == (w.joins, w.lazy_forks)
        assert analyze_circuit(c, cfcs=[]).issues == []
