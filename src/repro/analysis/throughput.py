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

Detection (:func:`positive_cycle`) is Bellman-Ford in exact integers with
Tarjan's subtree disassembly: a positive cycle is reported at the
relaxation that closes it in the predecessor tree.
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
    Queue-based Bellman-Ford on negated weights with Tarjan's subtree
    disassembly; ``tokenless_only`` restricts the search to edges with
    zero tokens (structural-deadlock pre-check).  Predecessors remember
    the exact relaxed edge so parallel edges between the same node pair
    are attributed correctly.

    The predecessors form a tree under a virtual root (every distance
    starts at 0, as if the root reached each node by a zero edge), kept
    as a preorder list with a depth per node.  When ``u -> v`` raises
    ``dist[v]``, every node below ``v`` leaves the tree: its distance
    was derived from ``v``'s old one, and ``v`` will relax it again.
    Meeting ``u`` there means the new edge closes a cycle of tight
    edges, which is positive; it is returned at once.  A dequeued node
    that is out of the tree is skipped.  A node scanned in the queue's
    k-th pass has depth at least k, so the search ends within n + 1
    passes.

    The relaxation runs in plain integers.  With ``lam = p/q`` (``q > 0``)
    every edge weight is scaled by ``q`` to ``q*latency - p*tokens``;
    starting from all-zero distances, each scaled distance is exactly
    ``q`` times the rational one, so every ``nd > dist[v]`` comparison —
    and with it the visiting order, the tree and the returned cycle — is
    the same as relaxing ``latency - lam*tokens`` exactly.  A caller with
    integer weights of its own (of either sign) passes them as latencies
    with ``lam = 0``, as lint rule ST007 does.
    """
    n = len(adj)
    p, q = lam.numerator, lam.denominator
    dist = [0] * n
    # The edge that last raised each node: (u, lat, tok); the root is n.
    pred = [(n, 0, 0)] * n
    # The tree in preorder: a circular doubly linked list through the
    # root, which starts with every node as its child.  Depth 0 marks a
    # node out of the tree (the root, never queued, also has depth 0).
    nxt = list(range(1, n + 1)) + [0]
    prv = [n] + list(range(n))
    depth = [1] * n + [0]
    in_queue = [True] * n
    queue = list(range(n))
    limit = 16 * n * n + 64  # safety valve; should be unreachable
    # The queue grows while it is walked; ``head`` counts dequeues.
    for head, u in enumerate(queue, 1):
        if head > limit:
            raise AnalysisError("positive-cycle search did not terminate")
        in_queue[u] = False
        hu = depth[u]
        if not hu:
            continue
        du = dist[u]
        for (v, lat, tok) in adj[u]:
            if tokenless_only and tok:
                continue
            nd = du + q * lat - p * tok
            if nd <= dist[v]:
                continue
            if v == u:
                return [u], lat, tok
            dist[v] = nd
            pred[v] = (u, lat, tok)
            hv = depth[v]
            if hv:
                # Disassemble v's subtree: the entries after v that are
                # deeper than v.  Then unlink v and the disassembled run.
                x = nxt[v]
                while depth[x] > hv:
                    if x == u:
                        return _extract_cycle(pred, v)
                    depth[x] = 0
                    x = nxt[x]
                a = prv[v]
                nxt[a] = x
                prv[x] = a
            # Relink v as u's first child.
            x = nxt[u]
            nxt[u] = v
            prv[v] = u
            nxt[v] = x
            prv[x] = v
            depth[v] = hu + 1
            if not in_queue[v]:
                in_queue[v] = True
                queue.append(v)
    return None


def _extract_cycle(
    pred: List[Tuple[int, int, int]], start: int
) -> Tuple[List[int], int, int]:
    """The predecessor cycle through ``start``, in edge order and ending
    at ``start``, with its total latency and tokens."""
    cycle = [start]
    u, lat, tok = pred[start]
    while u != start:
        cycle.append(u)
        u, e_lat, e_tok = pred[u]
        lat += e_lat
        tok += e_tok
    cycle.reverse()
    return cycle, lat, tok
