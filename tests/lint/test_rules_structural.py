"""Mutation tests for the structural lint rules (ST001..ST007; ST006 is
retired, its token-dead cycle is FL001's).

Each test builds a small circuit, breaks exactly one structural
invariant, and asserts the rule fires under its stable code.  Other
rules may legitimately co-fire (e.g. an island also trips ST004), so
membership in ``report.codes()`` is asserted, not equality, unless the
circuit is fully clean.  ST007's per-component decision is also checked
against brute-force simple-cycle enumeration on random digraphs.
"""

import pytest

from repro.analysis.cfc import CFC
from repro.circuit import (
    Channel,
    DataflowCircuit,
    EagerFork,
    ElasticBuffer,
    FunctionalUnit,
    PortRef,
    Sequence,
    Sink,
    TransparentFifo,
)
from repro.errors import CombinationalCycleError
from repro.lint import LintConfig, run_lint
from repro.sim import CodegenEngine


def clean_pipeline():
    """Sequence -> fadd(+1.0) -> ElasticBuffer -> Sink, all width 32."""
    c = DataflowCircuit("clean")
    src = c.add(Sequence("src", [1.0, 2.0, 3.0]))
    fu = c.add(FunctionalUnit("add", "fadd", const_ops={1: 1.0}))
    eb = c.add(ElasticBuffer("eb", slots=2))
    sink = c.add(Sink("sink"))
    c.connect(src, 0, fu, 0)
    c.connect(fu, 0, eb, 0)
    c.connect(eb, 0, sink, 0)
    return c


def ring(first_cls, second_cls, tokens=1):
    """Two-buffer island ring with ``tokens`` marked on the back edge."""
    c = DataflowCircuit("ring")
    a = c.add(first_cls("a"))
    b = c.add(second_cls("b"))
    c.connect(a, 0, b, 0)
    c.connect(b, 0, a, 0, tokens=tokens)
    return c


def test_clean_pipeline_is_clean():
    rep = run_lint(clean_pipeline(), cfcs=[])
    assert rep.ok, rep.format()
    assert rep.codes() == []


def test_st001_undriven_input():
    c = DataflowCircuit("dangling")
    src = c.add(Sequence("src", [1.0]))
    fu = c.add(FunctionalUnit("add", "fadd"))  # two live inputs
    sink = c.add(Sink("sink"))
    c.connect(src, 0, fu, 0)  # input 1 left undriven
    c.connect(fu, 0, sink, 0)
    rep = run_lint(c, cfcs=[])
    assert "ST001" in rep.codes()
    assert any("input port 1" in d.message for d in rep.by_code("ST001"))


def test_st001_unconsumed_output():
    c = DataflowCircuit("dangling")
    c.add(Sequence("src", [1.0]))  # output never consumed
    rep = run_lint(c, cfcs=[])
    assert "ST001" in rep.codes()
    assert any("unconsumed" in d.message for d in rep.by_code("ST001"))


def test_st002_widened_channel_through_buffer():
    c = clean_pipeline()
    # Mutation: widen the buffer's output channel 32 -> 64.
    out = c.out_channel(c.units["eb"], 0)
    out.width = 64
    rep = run_lint(c, cfcs=[])
    assert rep.codes() == ["ST002"]
    assert not rep.errors and len(rep.warnings) == 1
    # The rule is configurable: disabling it silences the finding,
    # promoting it turns the warning into an error.
    assert run_lint(c, cfcs=[],
                    config=LintConfig(disabled=["ST002"])).ok
    promoted = run_lint(c, cfcs=[],
                        config=LintConfig(severities={"ST002": "error"}))
    assert [d.code for d in promoted.errors] == ["ST002"]


def test_st003_implicit_fanout():
    c = clean_pipeline()
    sink2 = c.add(Sink("sink2"))
    # Bypass connect()'s double-drive guard: append a raw channel that
    # taps the source's output a second time.
    c.channels.append(Channel(
        cid=len(c.channels),
        src=PortRef("src", 0),
        dst=PortRef(sink2.name, 0),
    ))
    rep = run_lint(c, cfcs=[])
    assert "ST003" in rep.codes()
    assert any("implicit fan-out" in d.message for d in rep.by_code("ST003"))


def test_st003_implicit_fanin():
    c = clean_pipeline()
    extra = c.add(Sequence("src2", [9.0]))
    # Second driver onto the sink's single input port.
    c.channels.append(Channel(
        cid=len(c.channels),
        src=PortRef(extra.name, 0),
        dst=PortRef("sink", 0),
    ))
    rep = run_lint(c, cfcs=[])
    assert any("implicit fan-in" in d.message for d in rep.by_code("ST003"))


def test_st004_unreachable_island():
    c = clean_pipeline()
    # A buffered ring disconnected from the token sources.
    a = c.add(ElasticBuffer("island_a"))
    b = c.add(ElasticBuffer("island_b"))
    c.connect(a, 0, b, 0)
    c.connect(b, 0, a, 0, tokens=1)
    rep = run_lint(c, cfcs=[])
    assert "ST004" in rep.codes()
    flagged = {d.unit for d in rep.by_code("ST004")}
    assert flagged == {"island_a", "island_b"}


def test_st004_no_sources_at_all():
    rep = run_lint(ring(ElasticBuffer, ElasticBuffer), cfcs=[])
    assert any("no token sources" in d.message for d in rep.by_code("ST004"))


def test_st005_combinational_ring():
    # Two transparent FIFOs: both have a combinational bypass, so the
    # handshake ring has no sequential element.
    c = ring(TransparentFifo, TransparentFifo)
    rep = run_lint(c, cfcs=[])
    assert "ST005" in rep.codes()
    # Lint surfaces exactly what the codegen engine would die on.
    with pytest.raises(CombinationalCycleError):
        CodegenEngine(c)


def test_st005_removing_the_buffer_introduces_the_cycle():
    # With an ElasticBuffer on the ring the path is registered: clean.
    buffered = ring(ElasticBuffer, TransparentFifo)
    assert "ST005" not in run_lint(buffered, cfcs=[]).codes()
    CodegenEngine(buffered)  # builds fine
    # Mutation: swap the sequential element for a transparent one.
    bare = ring(TransparentFifo, TransparentFifo)
    assert "ST005" in run_lint(bare, cfcs=[]).codes()


def test_st006_token_dead_cycle():
    # ST006 is retired: the token-dead cycle is FL001's, which names it.
    c = DataflowCircuit("dead")
    fu = c.add(FunctionalUnit("m", "fmul", latency_override=3,
                              const_ops={1: 2.0}))
    eb = c.add(ElasticBuffer("eb", slots=2))
    c.connect(fu, 0, eb, 0)
    c.connect(eb, 0, fu, 0)  # latency on the cycle, zero tokens
    rep = run_lint(c, cfcs=[CFC("loop", c, {"m", "eb"})])
    assert [d.code for d in rep.errors] == ["FL001"]
    assert "m -> eb -> m" in rep.errors[0].message
    # Marking one circulating token revives the cycle.
    c.channels[-1].attrs["tokens"] = 1
    rep2 = run_lint(c, cfcs=[CFC("loop", c, {"m", "eb"})])
    assert not rep2.errors and "FL001" not in rep2.codes()


def test_st007_saturated_ring():
    # Capacity on the ring: EB(2) + TF(1) = 3 slots.
    c = ring(ElasticBuffer, TransparentFifo, tokens=3)
    rep = run_lint(c, cfcs=[])
    assert "ST007" in rep.codes()
    assert any("saturated" in d.message for d in rep.by_code("ST007"))
    # One token fewer and the ring can breathe.
    c.channels[-1].attrs["tokens"] = 2
    assert "ST007" not in run_lint(c, cfcs=[]).codes()


def test_st007_reports_a_saturated_ring_past_the_enumeration_cap(
    monkeypatch,
):
    """The cap bounds only the search for the wording: with it at 0 the
    positive-cycle test's witness cycle is reported instead."""
    import repro.lint.rules_structural as rules

    monkeypatch.setattr(rules, "MAX_CYCLES_PER_SCC", 0)
    c = ring(ElasticBuffer, TransparentFifo, tokens=3)
    diags = run_lint(c, cfcs=[]).by_code("ST007")
    assert len(diags) == 1
    assert diags[0].severity == "error" and diags[0].unit == "a"
    assert "is saturated: 3 circulating token(s) but only 3 slot(s)" in (
        diags[0].message
    )
    c.channels[-1].attrs["tokens"] = 2
    assert "ST007" not in run_lint(c, cfcs=[]).codes()


def comb_ring():
    """Two zero-latency adders feeding each other: no storage, no tokens."""
    c = DataflowCircuit("comb_ring")
    a = c.add(FunctionalUnit("a", "iadd", const_ops={1: 1}))
    b = c.add(FunctionalUnit("b", "iadd", const_ops={1: 1}))
    c.connect(a, 0, b, 0)
    c.connect(b, 0, a, 0)
    return c


@pytest.mark.parametrize("cap", [0, 5000])
def test_st007_leaves_a_tokenless_ring_to_st005(monkeypatch, cap):
    # 0 tokens >= 0 slots, but a combinational ring is ST005's error, not
    # a saturated one: the positive-cycle test does not flag it.
    import repro.lint.rules_structural as rules

    monkeypatch.setattr(rules, "MAX_CYCLES_PER_SCC", cap)
    codes = run_lint(comb_ring(), cfcs=[]).codes()
    assert "ST005" in codes and "ST007" not in codes


def ring_beside_comb_ring():
    """One component holding two rings through ``a``: the tokenless
    zero-storage a -> fork -> b -> a, and a -> fork -> eb -> tf -> a with
    3 tokens on 3 slots, which is saturated.  In this channel order a
    search that counted 0 tokens on 0 slots as saturated would return the
    tokenless ring."""
    c = DataflowCircuit("two_rings")
    a = c.add(FunctionalUnit("a", "iadd"))
    fork = c.add(EagerFork("fork", 2))
    b = c.add(FunctionalUnit("b", "iadd", const_ops={1: 1}))
    eb = c.add(ElasticBuffer("eb", slots=2))
    tf = c.add(TransparentFifo("tf", slots=1))
    c.connect(b, 0, a, 0)
    c.connect(a, 0, fork, 0)
    c.connect(fork, 1, eb, 0)
    c.connect(fork, 0, b, 0)
    c.connect(eb, 0, tf, 0)
    c.connect(tf, 0, a, 1, tokens=3)
    return c


@pytest.mark.parametrize("cap", [0, 5000])
def test_st007_finds_a_saturated_ring_beside_a_tokenless_one(
    monkeypatch, cap
):
    """The tokenless ring cannot stand in for the saturated one as the
    component's witness, so even a cap of 0 cannot hide it."""
    import repro.lint.rules_structural as rules

    monkeypatch.setattr(rules, "MAX_CYCLES_PER_SCC", cap)
    diags = run_lint(ring_beside_comb_ring(), cfcs=[]).by_code("ST007")
    assert len(diags) == 1
    assert "3 circulating token(s) but only 3 slot(s)" in diags[0].message


def test_st007_builds_no_networkx_graph_on_a_clean_circuit(monkeypatch):
    import networkx as nx

    from repro.lint.registry import LintContext
    from repro.lint.rules_structural import check_saturated_cycles
    from repro.pipeline import prepare_circuit

    def no_graph(*args, **kwargs):
        raise AssertionError("ST007 built a networkx graph")

    circuits = [
        ring(ElasticBuffer, TransparentFifo, tokens=2),
        prepare_circuit("gsumif", "crush", scale="small").circuit,
    ]
    monkeypatch.setattr(nx, "DiGraph", no_graph)
    for c in circuits:
        found = []
        check_saturated_cycles(LintContext(c), lambda *a, **k: found.append(a))
        assert found == []


def test_st007_decision_is_not_fooled_by_many_tokens():
    """Five tokens on six slots is one slot short however many tokens
    circulate; five on five is saturated."""
    from repro.lint.rules_structural import saturated_cycles

    succ = {"a": ["b"], "b": ["a"]}
    tokens = {("a", "b"): 3, ("b", "a"): 2}
    assert saturated_cycles(succ, tokens, {"a": 3, "b": 3}) == []
    [(comp, witness)] = saturated_cycles(succ, tokens, {"a": 3, "b": 2})
    assert sorted(comp) == sorted(witness) == ["a", "b"]


def _brute_force_saturated(n, tokens, capacity):
    """The components (as sets) holding a simple cycle whose tokens, one
    or more, reach its capacity, by enumerating every simple cycle."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(tokens)
    comp_of = {}
    for comp in nx.strongly_connected_components(g):
        for v in comp:
            comp_of[v] = frozenset(comp)
    flagged = set()
    for cyc in nx.simple_cycles(g):
        total = sum(tokens[h] for h in zip(cyc, cyc[1:] + cyc[:1]))
        if total >= max(1, sum(capacity[v] for v in cyc)):
            flagged.add(comp_of[cyc[0]])
    return flagged


def test_st007_decision_equals_brute_force_enumeration():
    """Property: ``saturated_cycles`` flags exactly the components where
    simple-cycle enumeration finds tokens >= max(1, capacity), and each
    witness is such a cycle."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.lint.rules_structural import saturated_cycles

    @st.composite
    def digraphs(draw):
        n = draw(st.integers(1, 7))
        node = st.integers(0, n - 1)
        raw = draw(st.lists(
            st.tuples(node, node, st.integers(0, 3)), max_size=3 * n,
        ))
        capacity = draw(st.lists(
            st.integers(0, 3), min_size=n, max_size=n,
        ))
        # Parallel channels collapse to their minimum, as in the rule.
        tokens = {}
        for u, v, t in raw:
            tokens[u, v] = min(tokens.get((u, v), t), t)
        return n, tokens, capacity

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def check(graph):
        n, tokens, capacity = graph
        succ = {v: [] for v in range(n)}
        for u, v in tokens:
            succ[u].append(v)
        got = saturated_cycles(succ, tokens, dict(enumerate(capacity)))
        assert {frozenset(comp) for comp, _ in got} == (
            _brute_force_saturated(n, tokens, capacity)
        )
        for comp, witness in got:
            hops = list(zip(witness, witness[1:] + witness[:1]))
            assert len(set(witness)) == len(witness)
            assert set(witness) <= set(comp)
            assert sum(tokens[h] for h in hops) >= max(
                1, sum(capacity[v] for v in witness)
            )

    check()
