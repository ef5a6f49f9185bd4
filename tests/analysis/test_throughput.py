"""Max-cycle-ratio II analysis."""

from fractions import Fraction

import pytest

from repro.analysis import (
    IIResult,
    WeightedEdge,
    cycle_metrics,
    find_tokenless_cycle,
    max_cycle_ratio,
)
from repro.analysis import throughput
from repro.analysis.throughput import _adjacency, _extract_cycle, positive_cycle
from repro.errors import AnalysisError


def E(a, b, lat, tok=0):
    return WeightedEdge(a, b, lat, tok)


class TestMaxCycleRatio:
    def test_empty_graph_ii_one(self):
        assert max_cycle_ratio([]).ii == 1

    def test_acyclic_graph_ii_one(self):
        r = max_cycle_ratio([E("a", "b", 10), E("b", "c", 4)])
        assert r.ii == 1
        assert r.critical_cycle == []

    def test_single_cycle(self):
        # fadd accumulation loop: 11 cycles of latency, 1 token.
        r = max_cycle_ratio([E("m", "f", 0, 0), E("f", "b", 10, 0), E("b", "m", 1, 1)])
        assert r.ii == 11
        assert set(r.critical_cycle) == {"m", "f", "b"}

    def test_tokens_divide_latency(self):
        # 2 circulating tokens halve the II.
        r = max_cycle_ratio([E("a", "b", 10, 1), E("b", "a", 0, 1)])
        assert r.ii == Fraction(10, 2)

    def test_max_over_cycles(self):
        edges = [
            E("a", "b", 3, 0), E("b", "a", 0, 1),  # ratio 3
            E("c", "d", 20, 0), E("d", "c", 0, 1),  # ratio 20
        ]
        r = max_cycle_ratio(edges)
        assert r.ii == 20
        assert set(r.critical_cycle) == {"c", "d"}

    def test_fractional_ratio_exact(self):
        r = max_cycle_ratio([E("a", "b", 7, 1), E("b", "a", 0, 2)])
        assert r.ii == Fraction(7, 3)
        assert r.ii_int == 3

    def test_ii_never_below_one(self):
        r = max_cycle_ratio([E("a", "b", 0, 1), E("b", "a", 0, 1)])
        assert r.ii == 1

    def test_tokenless_latency_cycle_rejected(self):
        with pytest.raises(AnalysisError, match="structural deadlock"):
            max_cycle_ratio([E("a", "b", 5, 0), E("b", "a", 0, 0)])

    def test_tokenless_zero_latency_cycle_ok(self):
        # Pure combinational ring with no latency doesn't constrain II
        # (the structural pass deals with it, not the II analysis).
        r = max_cycle_ratio(
            [E("a", "b", 0, 0), E("b", "a", 0, 0), E("x", "y", 4, 1), E("y", "x", 0, 0)]
        )
        assert r.ii == 4

    def test_negative_weight_rejected(self):
        with pytest.raises(AnalysisError):
            max_cycle_ratio([E("a", "a", -1, 1)])

    def test_credit_cycle_model(self):
        # Sharing-wrapper credit loop: latency L+1, N credits -> II=(L+1)/N.
        L, N = 10, 3
        r = max_cycle_ratio(
            [E("cc", "join", 0, N), E("join", "fu", 0, 0), E("fu", "ob", L, 0),
             E("ob", "cc", 1, 0)]
        )
        assert r.ii == Fraction(L + 1, N)

    def test_parallel_edges_between_nodes(self):
        edges = [E("a", "b", 2, 1), E("a", "b", 8, 1), E("b", "a", 0, 0)]
        # With tokens on both a->b edges, the worse edge dominates: the
        # cycle through the 8-latency edge has ratio 8.
        r = max_cycle_ratio(edges)
        assert r.ii >= 8

    def test_brute_force_agreement_small_random(self):
        import itertools
        import random

        rng = random.Random(11)
        for _ in range(25):
            n = 4
            edges = []
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.5:
                        edges.append(E(a, b, rng.randrange(0, 6), rng.randrange(0, 3)))
            # Brute force: enumerate simple cycles via permutations.
            best = Fraction(1)
            ok = True
            adj = {}
            for e in edges:
                adj.setdefault(e.src, {})[e.dst] = max(
                    (x for x in [adj.get(e.src, {}).get(e.dst)] if x), default=None
                )
            # use networkx for cycle enumeration instead
            import networkx as nx

            g = nx.DiGraph()
            for e in edges:
                # keep the per-pair edge with max ratio potential: track all
                if g.has_edge(e.src, e.dst):
                    g[e.src][e.dst]["list"].append(e)
                else:
                    g.add_edge(e.src, e.dst, list=[e])
            tokenless_cycle = False
            for cyc in nx.simple_cycles(g):
                pairs = list(zip(cyc, cyc[1:] + cyc[:1]))
                # take the worst-case combination per edge position
                options = [g[a][b]["list"] for a, b in pairs]
                for combo in itertools.product(*options):
                    lat = sum(e.latency for e in combo)
                    tok = sum(e.tokens for e in combo)
                    if tok == 0:
                        if lat > 0:
                            tokenless_cycle = True
                        continue
                    best = max(best, Fraction(lat, tok))
            if tokenless_cycle:
                with pytest.raises(AnalysisError):
                    max_cycle_ratio(edges)
            else:
                assert max_cycle_ratio(edges).ii == best


class TestFindTokenlessCycle:
    """Non-raising liveness probe used by the token-flow analyzer."""

    def test_live_graph_returns_none(self):
        assert find_tokenless_cycle(
            [E("a", "b", 3, 0), E("b", "a", 1, 1)]
        ) is None

    def test_names_the_starved_cycle(self):
        cycle = find_tokenless_cycle([E("a", "b", 5, 0), E("b", "a", 0, 0)])
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_single_node_self_loop(self):
        cycle = find_tokenless_cycle([E("a", "a", 2, 0)])
        assert cycle == ["a"]
        assert find_tokenless_cycle([E("a", "a", 2, 1)]) is None

    def test_zero_latency_ring_is_not_starved(self):
        # A combinational ring with neither latency nor tokens is the
        # structural pass' business, not a marked-graph deadlock.
        assert find_tokenless_cycle(
            [E("a", "b", 0, 0), E("b", "a", 0, 0)]
        ) is None

    def test_empty_graph(self):
        assert find_tokenless_cycle([]) is None


class TestCycleMetrics:
    def test_simple_sum(self):
        lat, tok = cycle_metrics(
            [E("a", "b", 3, 1), E("b", "a", 2, 1)], ["a", "b"]
        )
        assert (lat, tok) == (5, 2)

    def test_parallel_edges_maximize_the_cycle_ratio(self):
        # a->b has two routings: (lat 2, tok 0) at ratio 2/1 round the
        # cycle, (lat 9, tok 5) at ratio 9/6.  The worst-latency pick
        # would report 9/6; the binding combination is 2/1.
        lat, tok = cycle_metrics(
            [E("a", "b", 2, 0), E("a", "b", 9, 5), E("b", "a", 0, 1)],
            ["a", "b"],
        )
        assert (lat, tok) == (2, 1)
        assert max_cycle_ratio(
            [E("a", "b", 2, 0), E("a", "b", 9, 5), E("b", "a", 0, 1)]
        ).ii == Fraction(2, 1)

    def test_latency_tie_resolves_to_fewest_tokens(self):
        # Equal-latency parallel edges: the ratio-maximizing pick is the
        # one with fewer tokens (higher ratio contribution).
        lat, tok = cycle_metrics(
            [E("a", "b", 4, 3), E("a", "b", 4, 1), E("b", "a", 0, 0)],
            ["a", "b"],
        )
        assert (lat, tok) == (4, 1)

    def test_self_loop_cycle(self):
        assert cycle_metrics([E("a", "a", 7, 2)], ["a"]) == (7, 2)

    def test_missing_hop_raises(self):
        with pytest.raises(AnalysisError, match="has no edge"):
            cycle_metrics([E("a", "b", 1, 1)], ["a", "b"])


class TestExactFractions:
    def test_tie_between_cycles_is_exact(self):
        # Two cycles with the identical fractional ratio 7/2: the result
        # must be the exact Fraction, not a float approximation.
        r = max_cycle_ratio([
            E("a", "b", 7, 1), E("b", "a", 0, 1),
            E("c", "d", 14, 2), E("d", "c", 0, 2),
        ])
        assert r.ii == Fraction(7, 2)
        assert isinstance(r.ii, Fraction)

    def test_single_node_self_loop_ratio(self):
        r = max_cycle_ratio([E("a", "a", 9, 4)])
        assert r.ii == Fraction(9, 4)
        assert r.critical_cycle == ["a"]

    def test_near_tie_resolved_exactly(self):
        # 1000001/1000 vs 1000/1: floats would struggle to order these.
        r = max_cycle_ratio([
            E("a", "b", 1000001, 500), E("b", "a", 0, 500),
            E("c", "d", 1000, 1), E("d", "c", 0, 0),
        ])
        assert r.ii == Fraction(1000001, 1000)


def _brute_force_ratio(edges):
    """Exhaustive cycle enumeration oracle for small graphs.

    Returns (max ratio, tokenless-latency-cycle-exists).
    """
    import itertools

    import networkx as nx

    g = nx.DiGraph()
    for e in edges:
        if g.has_edge(e.src, e.dst):
            g[e.src][e.dst]["list"].append(e)
        else:
            g.add_edge(e.src, e.dst, list=[e])
    best = Fraction(1)
    tokenless = False
    for cyc in nx.simple_cycles(g):
        pairs = list(zip(cyc, cyc[1:] + cyc[:1]))
        options = [g[a][b]["list"] for a, b in pairs]
        for combo in itertools.product(*options):
            lat = sum(e.latency for e in combo)
            tok = sum(e.tokens for e in combo)
            if tok == 0:
                if lat > 0:
                    tokenless = True
                continue
            best = max(best, Fraction(lat, tok))
    return best, tokenless


class TestLawlerNeverUnderestimates:
    """Property: the Lawler iteration equals exhaustive cycle enumeration
    on every small random graph (and in particular never underestimates,
    which would make the static II bound unsound)."""

    def test_hypothesis_random_graphs(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        edge = st.tuples(
            st.integers(0, 4), st.integers(0, 4),
            st.integers(0, 8), st.integers(0, 3),
        )

        @settings(max_examples=150, deadline=None)
        @given(st.lists(edge, min_size=0, max_size=12))
        def check(raw):
            edges = [E(a, b, lat, tok) for a, b, lat, tok in raw]
            want, tokenless = _brute_force_ratio(edges)
            if tokenless:
                with pytest.raises(AnalysisError):
                    max_cycle_ratio(edges)
                assert find_tokenless_cycle(edges) is not None
            else:
                got = max_cycle_ratio(edges)
                assert got.ii == want
                assert find_tokenless_cycle(edges) is None
                if got.critical_cycle:
                    lat, tok = cycle_metrics(edges, got.critical_cycle)
                    assert tok > 0 and Fraction(lat, tok) == got.ii

        check()


def _fraction_positive_cycle(adj, lam, tokenless_only=False):
    """Reference for :func:`positive_cycle`: the same queue-based
    Bellman-Ford with subtree disassembly, relaxing ``latency -
    lam*tokens`` in exact ``Fraction`` arithmetic.  The integer kernel
    must reproduce it step for step.  The relaxation tree is kept as
    explicit child lists instead of a preorder list."""
    n = len(adj)
    dist = [Fraction(0)] * n
    pred = [(n, 0, 0)] * n
    children = [[] for _ in range(n)] + [list(range(n))]
    in_tree = [True] * n
    in_queue = [True] * n
    queue = list(range(n))
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if head > 16 * n * n + 64:
            raise AnalysisError("positive-cycle search did not terminate")
        in_queue[u] = False
        if not in_tree[u]:
            continue
        du = dist[u]
        for (v, lat, tok) in adj[u]:
            if tokenless_only and tok != 0:
                continue
            nd = du + (Fraction(lat) - lam * tok)
            if nd <= dist[v]:
                continue
            if v == u:
                return [u], lat, tok
            dist[v] = nd
            below, stack = [], list(children[v])  # v's subtree
            while stack:
                x = stack.pop()
                below.append(x)
                stack.extend(children[x])
            if u in below:
                pred[v] = (u, lat, tok)
                return _extract_cycle(pred, v)
            for x in below:
                in_tree[x] = False
                children[x] = []
            if in_tree[v]:
                children[pred[v][0]].remove(v)
            children[v] = []
            in_tree[v] = True
            pred[v] = (u, lat, tok)
            children[u].append(v)
            if not in_queue[v]:
                in_queue[v] = True
                queue.append(v)
    return None


def _outcome(fn, *args):
    """A call's return value, or the message of the AnalysisError it
    raised, so raising and returning can be compared alike."""
    try:
        return fn(*args)
    except AnalysisError as exc:
        return ("AnalysisError", str(exc))


class TestIntegerKernelMatchesFractionReference:
    """Property: scaling every weight by lam's denominator turns the
    rational relaxation into an integer one without changing a single
    comparison, so the search returns the identical ``(cycle, lat, tok)``
    and ``max_cycle_ratio`` the identical II and critical cycle."""

    def test_hypothesis_random_multigraphs(self):
        pytest.importorskip("hypothesis")
        from unittest import mock

        from hypothesis import given, settings
        from hypothesis import strategies as st

        # Parallel edges, self-loops (a == b) and zero-token edges all
        # occur: nodes are drawn from a small range, tokens from 0 up.
        edge = st.tuples(
            st.integers(0, 5), st.integers(0, 5),
            st.integers(0, 9), st.integers(0, 3),
        )

        @settings(max_examples=300, deadline=None)
        @given(
            st.lists(edge, min_size=0, max_size=14),
            st.integers(-6, 40),
            st.integers(1, 12),
        )
        def check(raw, a, b):
            edges = [E(u, v, lat, tok) for u, v, lat, tok in raw]
            _, adj = _adjacency(edges)
            lam = Fraction(a, b)
            for args in ((lam, False), (lam, True), (Fraction(0), True)):
                assert _outcome(positive_cycle, adj, *args) == _outcome(
                    _fraction_positive_cycle, adj, *args
                )

            with mock.patch.object(
                throughput, "positive_cycle", _fraction_positive_cycle
            ):
                want = _outcome(max_cycle_ratio, edges)
            # IIResult equality compares ``ii`` and ``critical_cycle``.
            assert _outcome(max_cycle_ratio, edges) == want

        check()


class TestPositiveCycleAgainstBruteForce:
    """Property: at any ratio ``lam``, the kernel finds a cycle exactly
    when exhaustive enumeration finds one with Σ(latency - lam*tokens)
    > 0, and what it returns is such a cycle of the graph, with its true
    totals.  Latencies of either sign occur, as ST007 passes them."""

    def test_hypothesis_random_multigraphs(self):
        pytest.importorskip("hypothesis")
        import networkx as nx
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def graphs(draw):
            n = draw(st.integers(1, 7))
            node = st.integers(0, n - 1)
            edge = st.tuples(node, node, st.integers(-4, 9), st.integers(0, 3))
            return n, draw(st.lists(edge, max_size=16))

        @settings(max_examples=200, deadline=None)
        @given(graphs(), st.integers(-6, 40), st.integers(1, 12), st.booleans())
        def check(graph, a, b, tokenless_only):
            n, raw = graph
            lam = Fraction(a, b)
            # Per node pair, the (latency, tokens) of the usable edges.
            options = {}
            for u, v, lat, tok in raw:
                if not (tokenless_only and tok):
                    options.setdefault((u, v), []).append((lat, tok))
            adj = [[] for _ in range(n)]
            for u, v, lat, tok in raw:
                adj[u].append((v, lat, tok))

            def hops(cyc):
                return [options.get(h) for h in zip(cyc, cyc[1:] + cyc[:1])]

            # Parallel edges: the heaviest one per hop decides.
            expected = any(
                sum(max(lat - lam * tok for lat, tok in opts) for opts in ops)
                > 0
                for ops in map(hops, nx.simple_cycles(nx.DiGraph(list(options))))
            )

            found = positive_cycle(adj, lam, tokenless_only)
            assert (found is not None) == expected
            if found is None:
                return
            cyc, lat, tok = found
            assert len(set(cyc)) == len(cyc)
            assert all(hops(cyc))
            totals = {(0, 0)}
            for opts in hops(cyc):
                totals = {(l + el, t + et) for l, t in totals for el, et in opts}
            assert (lat, tok) in totals
            assert lat - lam * tok > 0

        check()
