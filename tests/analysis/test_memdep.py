"""Static memory-dependence analyzer tests.

Three layers, matching the module's contract:

* verdict tests — the 11 affine paper kernels classify ``static-ok``
  with **zero** unknown pairs (CRUSH Sec. 2's static-disambiguation
  assumption, proved rather than assumed), the 3 irregular kernels
  classify ``lsq-required``;
* structural tests — static access sites line up one-to-one with the
  ``mem_site``-tagged memory ports of the lowered circuit, and every
  proved dependence is covered by the lowering's ``@dep`` gate;
* soundness gate — :func:`measure_dependences` replays every kernel
  under the alias-recording sanitizer and asserts no
  statically-``independent`` pair ever aliases at runtime, across
  techniques and backends.
"""

import pytest

from repro.analysis.memdep import (
    MEM_LSQ_REQUIRED,
    MEM_STATIC_OK,
    analyze_kernel,
    has_dataflow_path,
    load_is_dep_gated,
    measure_dependences,
    site_ports,
)
from repro.frontend import lower_kernel
from repro.frontend.kernels import KERNEL_NAMES, build
from repro.pipeline import TECHNIQUES, prepare_circuit

#: Kernels with data-dependent addressing; everything else is affine.
IRREGULAR = ("histogram", "spmv", "pointer_chase")
AFFINE = tuple(k for k in KERNEL_NAMES if k not in IRREGULAR)


class TestVerdicts:
    @pytest.mark.parametrize("name", AFFINE)
    def test_affine_kernels_prove_static_ok(self, name):
        """Every paper kernel is fully disambiguated: no unknown pairs
        at paper scale, so the paper's no-LSQ datapath is justified."""
        report = analyze_kernel(build(name, scale="paper"))
        assert report.mem_class == MEM_STATIC_OK
        assert report.unknown_pairs == []
        for p in report.pairs:
            assert p.verdict in ("independent", "ordered")

    @pytest.mark.parametrize("name", IRREGULAR)
    def test_irregular_kernels_need_lsq(self, name):
        report = analyze_kernel(build(name, scale="paper"))
        assert report.mem_class == MEM_LSQ_REQUIRED
        assert report.unknown_pairs
        for p in report.unknown_pairs:
            assert p.test == "non-affine"
            assert p.reason  # names the data-dependent value

    def test_atax_pair_breakdown(self):
        report = analyze_kernel(build("atax", scale="paper"))
        verdicts = sorted(p.verdict for p in report.pairs)
        assert verdicts == ["independent"] * 2 + ["ordered"] * 4

    def test_pointer_chase_result_store_is_single_instance(self):
        """The loop-external result store has no loop nest — one dynamic
        instance can never alias itself."""
        report = analyze_kernel(build("pointer_chase", scale="paper"))
        (self_out,) = [
            p for p in report.pairs
            if p.a == p.b and p.array == "out"
        ]
        assert self_out.verdict == "independent"
        assert self_out.test == "single-instance"

    def test_ordered_pairs_carry_distances(self):
        """Ordered verdicts over a shared nest expose a distance vector
        (possibly with ``*`` entries), independents never do."""
        for name in AFFINE:
            report = analyze_kernel(build(name, scale="paper"))
            for p in report.pairs:
                if p.verdict == "ordered" and p.common_loops:
                    assert p.distance is not None
                    assert len(p.distance) == p.common_loops
                if p.verdict == "independent":
                    assert p.distance is None

    def test_small_and_paper_scale_agree_on_class(self):
        """The classification is a property of the access pattern, not
        the problem size."""
        for name in KERNEL_NAMES:
            small = analyze_kernel(build(name, scale="small"))
            paper = analyze_kernel(build(name, scale="paper"))
            assert small.mem_class == paper.mem_class


class TestCircuitAlignment:
    @pytest.mark.parametrize("style", ["bb", "fast-token"])
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_sites_match_ports_one_to_one(self, name, style):
        """The extractor mirrors the lowering's walk order: every static
        site maps to exactly one ``mem_site``-tagged memory port."""
        low = lower_kernel(build(name, scale="small"), style)
        ports = site_ports(low.circuit)
        report = analyze_kernel(low.kernel)
        assert set(ports) == {a.site for a in report.accesses}

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_dependent_loads_are_gated(self, name):
        """Every load in a non-independent pair sharing a loop nest sits
        behind the lowering's memory-dependency join (MD001's invariant,
        checked directly)."""
        low = lower_kernel(build(name, scale="small"), "bb")
        ports = site_ports(low.circuit)
        report = analyze_kernel(low.kernel)
        for p in report.pairs:
            if p.verdict == "independent" or not p.common_loops:
                continue
            if {p.a_kind, p.b_kind} != {"load", "store"}:
                continue
            load_site = p.a if p.a_kind == "load" else p.b
            assert load_is_dep_gated(low.circuit, ports[load_site]), (
                f"{name}: {load_site} in pair {p.label()} is not gated"
            )

    def test_dataflow_path_finds_rmw_chains(self):
        """histogram's read-modify-write: the loaded bucket value flows
        into the store (MD002's invariant for distance-0 collisions).
        The reverse path also exists — through the ``@dep`` token gating
        the *next* iteration's load — but an unrelated port pair has
        neither."""
        low = lower_kernel(build("histogram", scale="small"), "bb")
        ports = site_ports(low.circuit)
        assert has_dataflow_path(low.circuit, ports["h#ld0"], ports["h#st0"])
        assert not has_dataflow_path(
            low.circuit, ports["h#st0"], ports["idx#ld0"]
        )


class TestSoundnessGate:
    """The PR's cross-validation: static ``independent`` verdicts are
    checked against recorded runtime address traces."""

    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_no_independent_pair_aliases(self, name, technique):
        prep = prepare_circuit(name, technique, scale="small")
        report = analyze_kernel(prep.lowered.kernel)
        measurements = measure_dependences(
            prep.lowered, report=report, backend="event",
        )
        assert measurements  # every kernel touches memory
        assert {(m.a, m.b) for m in measurements} == {
            (p.a, p.b) for p in report.pairs
        }
        for m in measurements:
            assert m.sound, (
                f"{name}/{technique}: independent pair {m.a} x {m.b} "
                f"aliased at address {m.witness_addr}"
            )
            # Ports actually issued addresses — the trace is not vacuous.
            assert m.a_addresses > 0 and m.b_addresses > 0

    @pytest.mark.parametrize("backend", ["event", "codegen"])
    def test_backends_agree_on_footprints(self, backend):
        """The recorded address counts are a deterministic function of
        the kernel, not the engine."""
        prep = prepare_circuit("histogram", "crush", scale="small")
        got = measure_dependences(prep.lowered, backend=backend)
        key = [
            (m.a, m.b, m.observed_alias, m.a_addresses, m.b_addresses)
            for m in got
        ]
        base = measure_dependences(prep.lowered, backend="event")
        assert key == [
            (m.a, m.b, m.observed_alias, m.a_addresses, m.b_addresses)
            for m in base
        ]

    def test_histogram_buckets_do_collide(self):
        """Pigeonhole: 16 draws into 8 buckets must repeat, so the
        unknown self-store pair *observes* an alias — evidence the
        ``lsq-required`` class is not vacuous (and that an ``unknown``
        alias is expected, not a soundness failure)."""
        prep = prepare_circuit("histogram", "naive", scale="small")
        measurements = measure_dependences(prep.lowered, backend="event")
        (self_store,) = [
            m for m in measurements
            if m.a == m.b and m.a == "h#st0"
        ]
        assert self_store.verdict == "unknown"
        assert self_store.observed_alias
        assert self_store.witness_addr is not None
        assert self_store.sound  # only *independent* + alias is unsound


class TestCLI:
    def test_analyze_memdep_analyses_each_configuration_once(
            self, monkeypatch, capsys):
        """The table reads the lint run's memory-dependence report
        instead of analysing the kernel a second time."""
        import repro.analysis.memdep as memdep
        from repro.cli import main

        calls = []
        real = memdep.analyze_kernel

        def counting(kernel, *args, **kwargs):
            calls.append(kernel.name)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(memdep, "analyze_kernel", counting)
        assert main(["analyze", "memdep", "--kernel", "gsum",
                     "--technique", "crush", "--technique", "naive",
                     "--no-sim"]) == 0
        assert calls == ["gsum", "gsum"]
