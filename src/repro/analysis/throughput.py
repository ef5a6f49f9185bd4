"""Initiation-interval analysis via the maximum cycle ratio.

The steady-state II of a choice-free dataflow circuit equals the maximum,
over all graph cycles, of (total latency on the cycle) / (tokens circulating
on the cycle) [2, 4, 34].  Latency lives on units (pipeline depth, buffer
delay); circulating tokens are the loop-carried values injected through the
loop schema (annotated on backedge channels) and the initial credits of
credit counters.

The solver is Lawler-style: repeatedly find a cycle whose ratio exceeds the
current bound (via positive-cycle detection on reweighted edges), tighten
the bound to that cycle's exact ratio, and stop when no cycle beats it.
Each round strictly increases the bound among the finitely many distinct
cycle ratios, so termination is exact, and in practice takes a handful of
rounds even on unrolled circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import AnalysisError

Node = Hashable


@dataclass(frozen=True)
class WeightedEdge:
    """Edge of the II-analysis graph: latency earned, tokens available."""

    src: Node
    dst: Node
    latency: int
    tokens: int


@dataclass
class IIResult:
    """Outcome of the max-cycle-ratio computation.

    ``ii`` is the exact maximum ratio (>= 1); ``critical_cycle`` lists the
    nodes of a cycle achieving it (empty when no token-carrying cycle
    exists, i.e. the circuit is throughput-unconstrained).
    """

    ii: Fraction
    critical_cycle: List[Node]

    @property
    def ii_float(self) -> float:
        return float(self.ii)

    @property
    def ii_int(self) -> int:
        """The achievable integer II (ceiling of the exact ratio)."""
        return -(-self.ii.numerator // self.ii.denominator)


def _adjacency(
    edges: Sequence[WeightedEdge],
) -> Tuple[List[Node], List[List[Tuple[int, int, int]]]]:
    """Node list (sorted by str for determinism) and integer adjacency."""
    nodes = sorted({e.src for e in edges} | {e.dst for e in edges}, key=str)
    idx = {n: i for i, n in enumerate(nodes)}
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in nodes]
    for e in edges:
        if e.latency < 0 or e.tokens < 0:
            raise AnalysisError(f"negative weight on edge {e}")
        adj[idx[e.src]].append((idx[e.dst], e.latency, e.tokens))
    return nodes, adj


def find_tokenless_cycle(edges: Sequence[WeightedEdge]) -> Optional[List[Node]]:
    """Find a cycle that carries latency but no circulating tokens.

    Such a cycle is a *structural deadlock*: every unit on it waits for a
    token that can only come from the cycle itself, and nothing was ever
    injected.  Returns the node list of one starved cycle, or ``None``
    when every latency-carrying cycle holds at least one token (the
    marked-graph liveness condition).  Unlike :func:`max_cycle_ratio`
    this never raises on a dead graph — lint rules use it to report the
    exact starved cycle instead of crashing.
    """
    nodes, adj = _adjacency(edges)
    if not nodes:
        return None
    found = positive_cycle(adj, Fraction(0), tokenless_only=True)
    if found is None:
        return None
    return [nodes[i] for i in found[0]]


def cycle_metrics(
    edges: Sequence[WeightedEdge], cycle: Sequence[Node]
) -> Tuple[int, int]:
    """Total (latency, tokens) along ``cycle``'s consecutive node pairs.

    Parallel edges between the same pair are resolved *jointly* so the
    whole-cycle latency/token ratio is maximized — the combination the
    max-cycle-ratio solver actually binds on.  A per-hop greedy pick
    (e.g. worst latency) is wrong here: a lower-latency edge carrying
    fewer tokens can dominate the ratio.  The exact maximizer is found
    by Dinkelbach iteration — for a fixed ratio guess ``lam`` the best
    combination maximizes ``lat - lam*tok`` hop-independently, and the
    guess converges to the optimum in finitely many steps.  Raises
    :class:`AnalysisError` when some hop has no edge at all (the cycle
    does not exist in this graph).
    """
    options: Dict[Tuple[Node, Node], List[Tuple[int, int]]] = {}
    for e in edges:
        options.setdefault((e.src, e.dst), []).append((e.latency, e.tokens))
    seq = list(cycle)
    hops: List[List[Tuple[int, int]]] = []
    for a, b in zip(seq, seq[1:] + seq[:1]):
        opts = options.get((a, b))
        if opts is None:
            raise AnalysisError(f"cycle hop {a!r} -> {b!r} has no edge")
        hops.append(opts)

    def pick(lam: Fraction) -> Tuple[int, int]:
        lat = tok = 0
        for opts in hops:
            # Ties break toward more tokens, keeping the result on a
            # token-carrying combination whenever one attains the max.
            l, t = max(opts, key=lambda o: (o[0] - lam * o[1], o[1]))
            lat += l
            tok += t
        return lat, tok

    lam = Fraction(0)
    while True:
        lat, tok = pick(lam)
        if tok == 0 or lat - lam * tok == 0:
            return lat, tok
        nxt = Fraction(lat, tok)
        if nxt == lam:
            return lat, tok
        lam = nxt


def max_cycle_ratio(edges: Sequence[WeightedEdge]) -> IIResult:
    """Compute the maximum latency/token cycle ratio of the given graph.

    Raises :class:`AnalysisError` if some cycle carries latency but no
    tokens (a structurally deadlocked loop: nothing can ever circulate).
    """
    nodes, adj = _adjacency(edges)
    if not nodes:
        return IIResult(Fraction(1), [])

    zero_cycle = positive_cycle(adj, Fraction(0), tokenless_only=True)
    if zero_cycle is not None:
        names = [str(nodes[i]) for i in zero_cycle[0]]
        raise AnalysisError(
            "cycle with latency but no circulating tokens (structural "
            "deadlock): " + " -> ".join(names)
        )

    bound = Fraction(1)
    critical: List[Node] = []
    for _ in range(10_000):
        found = positive_cycle(adj, bound)
        if found is None:
            return IIResult(bound, critical)
        cyc, lat, tok = found
        if tok == 0:
            raise AnalysisError("tokenless positive cycle escaped the pre-check")
        ratio = Fraction(lat, tok)
        if ratio <= bound:
            # The detected cycle no longer improves the bound; done.
            return IIResult(bound, critical)
        bound = ratio
        critical = [nodes[i] for i in cyc]
    raise AnalysisError("max-cycle-ratio iteration failed to converge")


def positive_cycle(
    adj: List[List[Tuple[int, int, int]]],
    lam: Fraction,
    tokenless_only: bool = False,
) -> Optional[Tuple[List[int], int, int]]:
    """Find a cycle with Σ(latency - lam*tokens) > 0.

    Returns ``(node_list, total_latency, total_tokens)`` or ``None``.
    Bellman-Ford (queue-based) on negated weights; ``tokenless_only``
    restricts the search to edges with zero tokens (structural-deadlock
    pre-check).  Predecessors remember the exact relaxed edge so parallel
    edges between the same node pair are attributed correctly.

    The relaxation runs in plain integers.  With ``lam = p/q`` (``q > 0``)
    every edge weight is scaled by ``q`` to ``q*latency - p*tokens``;
    starting from all-zero distances, each scaled distance is exactly
    ``q`` times the rational one, so every ``nd > dist[v]`` comparison —
    and with it the visiting order, the relaxations and the returned
    cycle — is the same as relaxing ``latency - lam*tokens`` exactly.
    A caller with integer weights of its own (of either sign) passes them
    as latencies with ``lam = 0``, as lint rule ST007 does.
    """
    n = len(adj)
    p, q = lam.numerator, lam.denominator
    # Per-lam weights, each with the predecessor record its relaxation
    # stores: (v, q*lat - p*tok, (u, lat, tok)).
    wadj = [
        [
            (v, q * lat - p * tok, (u, lat, tok))
            for (v, lat, tok) in out
            if not (tokenless_only and tok)
        ]
        for u, out in enumerate(adj)
    ]
    dist = [0] * n
    pred: List[Optional[Tuple[int, int, int]]] = [None] * n  # (u, lat, tok)
    counts = [0] * n
    in_queue = [True] * n
    queue = list(range(n))
    limit = 16 * n * n + 64  # safety valve; should be unreachable
    # The queue grows while it is walked; ``head`` counts dequeues.
    for head, u in enumerate(queue, 1):
        in_queue[u] = False
        du = dist[u]
        for (v, w, step) in wadj[u]:
            nd = du + w
            if nd > dist[v]:
                dist[v] = nd
                pred[v] = step
                counts[v] += 1
                if counts[v] > n:
                    found = _extract_cycle(pred, v)
                    if found is not None:
                        return found
                    # The predecessor forest does not (yet) contain the
                    # cycle; keep relaxing — it will, since a positive
                    # cycle keeps re-relaxing its members.
                    counts[v] = 0
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
        if head > limit:
            raise AnalysisError("positive-cycle search did not terminate")
    return None


def _extract_cycle(
    pred: List[Optional[Tuple[int, int, int]]], start: int
) -> Optional[Tuple[List[int], int, int]]:
    """Find a cycle in the predecessor forest, following it from ``start``.

    The forest is functional (one predecessor per node), so the walk either
    enters a cycle or terminates at an unrelaxed node; returns None in the
    latter case (the caller then continues the search).
    """
    order: Dict[int, int] = {}
    node: Optional[int] = start
    while node is not None and node not in order:
        order[node] = len(order)
        p = pred[node]
        node = p[0] if p is not None else None
    if node is None:
        return None
    # ``node`` is the first revisited node: the cycle is node -> ... -> node.
    cycle = [node]
    lat = tok = 0
    cur = node
    while True:
        step = pred[cur]
        if step is None:  # unreachable: every cycle member was relaxed
            raise AnalysisError("predecessor forest lost a cycle member")
        u, e_lat, e_tok = step
        lat += e_lat
        tok += e_tok
        if u == node:
            break
        cycle.append(u)
        cur = u
    cycle.reverse()
    return cycle, lat, tok
