"""Static token-flow analysis: deadlock proofs and II prediction.

The paper argues (Sections 4.3, 5.4) that credit counters sized by
Eq. 1 (``N_CC <= N_OB``) and Eq. 3 (``N_CC = ceil(Φ_op) + 1``) make
functional-unit sharing deadlock-free without costing throughput.  This
module *proves* both claims on a built circuit without simulating:

**Liveness** — the buffered handshake graph is abstracted into a marked
graph whose tokens are the loop-schema backedge annotations and the
credit counters' initial credits (a grant edge carries its counter's
``initial``, the one place a credit count is stored).  Each SCC of that
graph is checked separately (no cycle crosses SCC boundaries): a cycle
that carries latency but no token can never fire — a structural
deadlock — and the analysis reports the exact starved cycle.

**Throughput** — per performance-critical CFC, the max-cycle-ratio
solver (:mod:`repro.analysis.throughput`) runs over the same expanded
graph, and the result is combined with a *contention bound*: a shared
unit issues at most one operation per cycle, so a CFC containing ``k``
slots of one wrapper cannot beat ``II = k``.  The prediction is exact on
choice-free kernels and a conservative upper bound under data-dependent
control (branch/mux selection is bounded by its worst case).

**Per-slot wrapper expansion** — the crux.  A sharing wrapper's interior
(arbiter → shared unit → condition buffer → demux) is *shared* by all
slots, so the plain channel graph contains artifact paths that enter at
slot *i* and exit at slot *j*: cycles no token ever follows, which would
produce false deadlock reports and garbage ratios.  The analyzer removes
the four interior units from the graph and replaces them with one
virtual edge per slot, ``join_i -> ob_i`` (``lf_i`` once elision
removed ``ob_i``), carrying the interior's maximum-latency path.
Credit-counter grant edges get one extra cycle of latency: the grant
comes from the *registered* count (Section 4.3), so a credit returned in
cycle ``k`` is usable in ``k + 1``.  The wrappers are the sharing pass'
own :class:`~repro.core.wrapper.SharingWrapper` records, or records
rebuilt from the circuit's tags when none covers a wrapper.

The lint layer surfaces the results as rules FL001–FL005
(:mod:`repro.lint.rules_flow`); ``python -m repro analyze ii`` checks
the predictions against either simulator backend.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..circuit import (
    ArbiterMerge,
    Channel,
    CreditCounter,
    DataflowCircuit,
    ElasticBuffer,
    FixedOrderMerge,
    Mux,
    TransparentFifo,
    Unit,
)
from ..errors import AnalysisError
from .cfc import CFC, critical_cfcs
from .scc import scc_partition
from .throughput import (
    WeightedEdge,
    cycle_metrics,
    find_tokenless_cycle,
    max_cycle_ratio,
)

if TYPE_CHECKING:
    from ..core.crush import SharingResult
    from ..core.wrapper import SharingWrapper

#: Passthrough-contraction hop budget; wrapper splices are 1–2 buffers deep.
MAX_CONTRACTION_HOPS = 20

#: Interior-path DFS depth budget; wrapper interiors are 4–6 units deep.
MAX_INTERIOR_DEPTH = 50


# --------------------------------------------------------------------------
# Wrapper views: the sharing pass' wrapper records when available, records
# rebuilt from the live circuit's ``meta["wrapper"]`` tags and
# deterministic unit names otherwise.
# --------------------------------------------------------------------------


def _wrapper_from_tags(
    circuit: DataflowCircuit, tag: str
) -> "Optional[SharingWrapper]":
    """Rebuild a wrapper's units from its tags: no group, no op type, no
    decisions.

    A slot ends at its output buffer, or at its lazy fork once elision
    removed the buffer; a slot with neither is a mangled wrapper.
    """
    from ..core.wrapper import SharingWrapper

    singles: Dict[str, str] = {}
    slots: Dict[str, Dict[int, str]] = {"join": {}, "cc": {}, "ob": {}, "lf": {}}
    for name, u in circuit.units.items():
        if u.meta.get("wrapper") != tag or not name.startswith(tag):
            continue
        suffix = name[len(tag):]
        if suffix in ("arb", "unit", "cond", "branch"):
            singles[suffix] = name
            continue
        for kind in slots:
            if suffix.startswith(kind) and suffix[len(kind):].isdigit():
                slots[kind][int(suffix[len(kind):])] = name
                break
    required = ("arb", "unit", "cond", "branch")
    if any(k not in singles for k in required) or not slots["join"]:
        return None  # mangled wrapper: the structural rules own this
    n = max(slots["join"]) + 1
    joins, ccs, obs, lfs = (
        [slots[kind].get(i, "") for i in range(n)]
        for kind in ("join", "cc", "ob", "lf")
    )
    if not all(joins) or not all(o or f for o, f in zip(obs, lfs)):
        return None
    return SharingWrapper(
        group=[],
        op_type="",
        shared_unit=singles["unit"],
        arbiter=singles["arb"],
        cond_buffer=singles["cond"],
        branch=singles["branch"],
        joins=joins,
        credit_counters=ccs if all(ccs) else [],
        output_buffers=obs,
        lazy_forks=lfs if all(lfs) else [],
        credits={},
        ob_slots={},
        arbitration="",
        base=tag,
    )


def wrapper_views(
    circuit: DataflowCircuit, decisions: "Optional[SharingResult]" = None
) -> "List[SharingWrapper]":
    """All sharing wrappers of ``circuit``, as wrapper records.

    Prefers the decision records (they know the original op names, which
    slot-to-CFC attribution and the Eq. 3 checks need) whose units are
    all still in the circuit; wrappers no record covers — hand-built
    circuits, ``decisions=None`` — are rebuilt from their
    ``meta["wrapper"]`` tags and the deterministic ``<tag><role><i>``
    unit names, with an empty ``group``.
    """
    views = [
        w
        for w in (decisions.wrappers if decisions is not None else ())
        if all(name in circuit.units for name in w.all_unit_names())
    ]
    covered = {w.base for w in views}
    tags = {
        str(u.meta["wrapper"]) for u in circuit.units.values() if "wrapper" in u.meta
    }
    for tag in sorted(tags - covered):
        w = _wrapper_from_tags(circuit, tag)
        if w is not None:
            views.append(w)
    views.sort(key=lambda w: w.base)
    return views


# --------------------------------------------------------------------------
# Graph construction: per-slot expansion of the wrapper interiors.
# --------------------------------------------------------------------------


def _edge_latency(unit: Unit) -> int:
    # Credit grants come from the *registered* count (Section 4.3): a
    # credit returned in cycle k becomes grantable in k + 1, so the
    # counter's out-edges carry a cycle the unit's latency field doesn't.
    return unit.latency + (1 if isinstance(unit, CreditCounter) else 0)


def _is_passthrough(unit: Unit) -> bool:
    return (
        isinstance(unit, (ElasticBuffer, TransparentFifo))
        and unit.n_in == 1
        and unit.n_out == 1
    )


def _interior_path(
    circuit: DataflowCircuit,
    start: str,
    target: str,
    interior: FrozenSet[str],
) -> Optional[Tuple[int, int]]:
    """Maximum-latency path ``start -> ... -> target`` through ``interior``.

    Returns (latency, tokens) including ``start``'s own edge latency, or
    None when no such path exists (a miswired wrapper).  The interior of
    a wrapper is a DAG a handful of units deep, so a bounded DFS is exact.
    """
    best: List[Optional[Tuple[int, int]]] = [None]

    def walk(uname: str, lat: int, tok: int, depth: int) -> None:
        if depth > MAX_INTERIOR_DEPTH:
            raise AnalysisError(
                f"wrapper interior path from {start!r} exceeds depth "
                f"{MAX_INTERIOR_DEPTH} (interior is not a small DAG)"
            )
        out_lat = _edge_latency(circuit.units[uname])
        for ch in circuit.out_channels(circuit.units[uname]):
            lat2 = lat + out_lat
            tok2 = tok + circuit.channel_tokens(ch)
            nxt = ch.dst.unit
            if nxt == target:
                if best[0] is None or lat2 > best[0][0]:
                    best[0] = (lat2, tok2)
            elif nxt in interior:
                walk(nxt, lat2, tok2, depth + 1)

    walk(start, 0, 0, 0)
    return best[0]


@dataclass
class FlowGraph:
    """One slot-expanded token-flow graph (whole circuit or one CFC)."""

    edges: List[WeightedEdge]
    nodes: Set[str]
    #: (wrapper view, slot index) pairs whose slot units are in the graph.
    slots: List[Tuple[SharingWrapper, int]]
    #: Slots whose ``join -> ob`` interior path could not be traced.
    broken_slots: List[Tuple[SharingWrapper, int]] = field(default_factory=list)


def build_flow_graph(
    circuit: DataflowCircuit,
    views: Sequence[SharingWrapper],
    nodes: Set[str],
    slots: Sequence[Tuple[SharingWrapper, int]],
) -> FlowGraph:
    """Edges over ``nodes`` with wrapper interiors per-slot expanded.

    Channels are contracted through passthrough buffers that are not
    themselves nodes (timing/slack splices); edges entering a wrapper
    interior are dropped and replaced by the per-slot virtual edges.
    """
    core: Set[str] = set()
    for v in views:
        core.update(v.core_units())
    edges: List[WeightedEdge] = []
    for name in sorted(nodes):
        unit = circuit.units[name]
        base_lat = _edge_latency(unit)
        for ch in circuit.out_channels(unit):
            lat = base_lat
            tok = circuit.channel_tokens(ch)
            dst = ch.dst.unit
            hops = 0
            while dst not in nodes:
                if dst in core:
                    dst = ""
                    break
                mid = circuit.units[dst]
                if not _is_passthrough(mid) or hops >= MAX_CONTRACTION_HOPS:
                    dst = ""
                    break
                out = circuit.out_channel(mid, 0)
                if out is None:
                    dst = ""
                    break
                lat += mid.latency
                tok += circuit.channel_tokens(out)
                dst = out.dst.unit
                hops += 1
            if dst:
                edges.append(WeightedEdge(name, dst, lat, tok))

    # Virtual slot edges join_i -> ob_i (lf_i once ob_i is elided) through
    # the wrapper interior (core units plus any spliced passthrough
    # buffers).
    graph = FlowGraph(edges=edges, nodes=set(nodes), slots=list(slots))
    splices = {
        name
        for name, u in circuit.units.items()
        if _is_passthrough(u) and name not in nodes
    }
    for view, i in slots:
        interior = frozenset(set(view.core_units()) | splices)
        end = view.slot_end(i)
        path = _interior_path(circuit, view.joins[i], end, interior)
        if path is None:
            graph.broken_slots.append((view, i))
            continue
        join_unit = circuit.units[view.joins[i]]
        edges.append(
            WeightedEdge(
                view.joins[i], end, join_unit.latency + path[0], path[1]
            )
        )

    # Fixed-order arbitration serializes the slots in a strict cyclic
    # grant order (paper Figure 1d): model the sequencer as order edges
    # join_a -> join_b between consecutively granted slots, with the wrap
    # edge carrying the single grant token.  A dependency that opposes
    # the fixed order then closes a tokenless cycle — exactly the
    # order-induced deadlock the figure demonstrates.
    for view in views:
        arb = circuit.units.get(view.arbiter)
        if not isinstance(arb, FixedOrderMerge):
            continue
        ring = list(dict.fromkeys(
            view.joins[idx] for idx in arb.order
            if idx < view.size and view.joins[idx] in nodes
        ))
        if len(ring) < 2:
            continue
        for a, b in zip(ring, ring[1:]):
            edges.append(WeightedEdge(a, b, 1, 0))
        edges.append(WeightedEdge(ring[-1], ring[0], 1, 1))
    return graph


def _slot_units(view: SharingWrapper, i: int) -> List[str]:
    units = [view.joins[i], view.output_buffers[i]]
    if view.credit_counters:
        units.append(view.credit_counters[i])
    if view.lazy_forks:
        units.append(view.lazy_forks[i])
    return [u for u in units if u]


# --------------------------------------------------------------------------
# Analysis results.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowIssue:
    """One structural finding of the token-flow analysis."""

    #: ``zero-token-cycle`` | ``credit-overcommit`` | ``uncredited-wrapper``
    #: | ``broken-slot-path``
    kind: str
    message: str
    unit: Optional[str] = None
    cycle: Tuple[str, ...] = ()

    @property
    def deadly(self) -> bool:
        """Does this issue imply a possible deadlock (vs. misanalysis)?"""
        return self.kind in (
            "zero-token-cycle", "credit-overcommit", "uncredited-wrapper",
        )


@dataclass
class CFCPrediction:
    """Predicted steady-state II for one performance-critical CFC."""

    cfc: str
    #: Max-cycle-ratio component (None when the CFC graph is deadlocked —
    #: a zero-token-cycle issue names the starved cycle).
    ratio: Optional[Fraction]
    #: Contention bound: max count of one wrapper's slots in this CFC.
    contention: int
    critical_cycle: Tuple[str, ...] = ()
    #: Tokens circulating on the critical cycle (the measurement window).
    cycle_tokens: int = 0

    @property
    def ii(self) -> Optional[Fraction]:
        if self.ratio is None:
            return None
        return max(self.ratio, Fraction(max(1, self.contention)))


@dataclass
class FlowAnalysis:
    """Whole-circuit token-flow analysis outcome."""

    circuit: str
    issues: List[FlowIssue] = field(default_factory=list)
    predictions: Dict[str, CFCPrediction] = field(default_factory=dict)
    views: List[SharingWrapper] = field(default_factory=list)

    @property
    def deadlock_free(self) -> bool:
        """True when the liveness proof succeeded on every SCC."""
        return not any(i.deadly for i in self.issues)

    @property
    def ii(self) -> Optional[Fraction]:
        """Kernel-level predicted II: the max over all CFC predictions.

        None when there are no CFCs or any CFC's graph is deadlocked.
        """
        if not self.predictions:
            return None
        worst = Fraction(1)
        for pred in self.predictions.values():
            if pred.ii is None:
                return None
            worst = max(worst, pred.ii)
        return worst

    def issues_of(self, kind: str) -> List[FlowIssue]:
        return [i for i in self.issues if i.kind == kind]


# --------------------------------------------------------------------------
# The analyzer.
# --------------------------------------------------------------------------


def _check_liveness(
    circuit: DataflowCircuit,
    views: Sequence[SharingWrapper],
    analysis: FlowAnalysis,
) -> None:
    """Marked-graph liveness over the whole expanded circuit, per SCC."""
    core: Set[str] = set()
    for v in views:
        core.update(v.core_units())
    nodes = {name for name in circuit.units if name not in core}
    slots = [(v, i) for v in views for i in range(v.size)]
    graph = build_flow_graph(circuit, views, nodes, slots)
    for view, i in graph.broken_slots:
        analysis.issues.append(
            FlowIssue(
                kind="broken-slot-path",
                message=(
                    f"sharing wrapper {view.base!r} slot {i} "
                    f"({view.slot_label(i)}): no interior path from "
                    f"{view.joins[i]!r} to {view.slot_end(i)!r}; "
                    "the slot can never produce a result"
                ),
                unit=view.joins[i],
            )
        )
    # Decompose into SCCs: every cycle lives inside one component, so the
    # per-component reports stay small and independent.
    for comp in scc_partition((e.src, e.dst) for e in graph.edges):
        comp_edges = [
            e for e in graph.edges if e.src in comp and e.dst in comp
        ]
        cycle = find_tokenless_cycle(comp_edges)
        if cycle is None:
            continue
        names = tuple(str(n) for n in cycle)
        analysis.issues.append(
            FlowIssue(
                kind="zero-token-cycle",
                message=(
                    "cycle carries latency but no circulating token "
                    "(structural deadlock, Eq. 1 context): "
                    + " -> ".join(names) + " -> " + names[0]
                ),
                unit=names[0],
                cycle=names,
            )
        )


def _check_credits(
    circuit: DataflowCircuit,
    views: Sequence[SharingWrapper],
    analysis: FlowAnalysis,
) -> None:
    """Structural Eq. 1 on the built units."""
    for view in views:
        if not view.credited:
            analysis.issues.append(
                FlowIssue(
                    kind="uncredited-wrapper",
                    message=(
                        f"sharing wrapper {view.base!r} has no credit "
                        "counters: in-flight results are unbounded and "
                        "head-of-line blocking can deadlock the shared "
                        "unit (the naive wrapper of Figure 1b)"
                    ),
                    unit=view.shared_unit,
                )
            )
            continue
        for i in range(view.size):
            cc = circuit.units.get(view.credit_counters[i])
            ob = circuit.units.get(view.output_buffers[i])
            if not isinstance(cc, CreditCounter) or not isinstance(
                ob, TransparentFifo
            ):
                continue  # mangled wrapper: structural rules own this
            if cc.initial > ob.slots:
                analysis.issues.append(
                    FlowIssue(
                        kind="credit-overcommit",
                        message=(
                            f"sharing wrapper {view.base!r} slot {i} "
                            f"({view.slot_label(i)}): N_CC = {cc.initial} "
                            f"credits exceed N_OB = {ob.slots} output-"
                            f"buffer slot(s); Eq. 1 requires N_CC <= N_OB "
                            "or the shared unit head-of-line blocks"
                        ),
                        unit=cc.name,
                    )
                )


def _violated_pairs(
    view: SharingWrapper, circuit: DataflowCircuit
) -> List[Tuple[str, str]]:
    """Recorded must-precede pairs the built arbiter actually violates.

    Fixed-order arbiters are skipped: their grant ring already models
    their order."""
    if not isinstance(circuit.units.get(view.arbiter), ArbiterMerge):
        return []
    rank = {op: pos for pos, op in enumerate(view.built_priority(circuit) or ())}
    return [
        (producer, consumer)
        for producer, consumer in view.order_constraints
        if producer in rank and consumer in rank
        and rank[producer] > rank[consumer]
    ]


def analyze_circuit(
    circuit: DataflowCircuit,
    cfcs: Optional[Sequence[CFC]] = None,
    decisions: "Optional[SharingResult]" = None,
) -> FlowAnalysis:
    """Run the full token-flow analysis over one built circuit.

    ``cfcs`` are the *pre-rewrite* performance-critical CFCs (their
    ``unit_names`` still contain the shared-away operations, which is how
    wrapper slots are attributed to CFCs); recomputed from the live
    ``meta["cfc"]`` tags when omitted.  ``decisions`` is the sharing
    pass' result record, whose wrappers enable op-name attribution and
    the priority-inversion penalty model.
    """
    views = wrapper_views(circuit, decisions)
    analysis = FlowAnalysis(circuit=circuit.name, views=views)
    _check_credits(circuit, views, analysis)
    _check_liveness(circuit, views, analysis)

    if cfcs is None:
        cfcs = critical_cfcs(circuit)

    for cfc in cfcs:
        prewrite = set(cfc.unit_names)
        live = {n for n in prewrite if n in circuit.units}
        # Per-CFC node set: surviving members plus the slot units of every
        # wrapper slot whose original operation belonged to this CFC.
        nodes = set(live)
        slots: List[Tuple[SharingWrapper, int]] = []
        contention = 0
        for view in views:
            # An unknown op name ("") is never a unit name.
            in_cfc = [i for i in range(view.size) if view.op_name(i) in prewrite]
            if not in_cfc:
                continue
            contention = max(contention, len(in_cfc))
            for i in in_cfc:
                slots.append((view, i))
                nodes.update(_slot_units(view, i))
        if not nodes:
            continue
        graph = build_flow_graph(circuit, views, nodes, slots)
        edges = list(graph.edges)

        # Priority-inversion penalty (Algorithm 2, Figure 4): when the
        # built arbiter ranks a consumer above its producer, each issue
        # of the consumer can hold the shared unit for a full pipeline
        # pass before the producer gets in; model it as a token-carrying
        # consumer->producer edge costing the shared unit's latency.
        for view in views:
            join_of = {view.op_name(i): view.joins[i] for i in range(view.size)}
            shared = circuit.units.get(view.shared_unit)
            penalty = max(1, shared.latency if shared is not None else 1)
            for producer, consumer in _violated_pairs(view, circuit):
                if (
                    join_of.get(producer) in nodes
                    and join_of.get(consumer) in nodes
                ):
                    edges.append(
                        WeightedEdge(
                            join_of[consumer], join_of[producer], penalty, 1
                        )
                    )

        try:
            result = max_cycle_ratio(edges)
        except AnalysisError:
            # The starved cycle was already reported (with its exact
            # member list) by the whole-circuit liveness pass.
            analysis.predictions[cfc.name] = CFCPrediction(
                cfc=cfc.name, ratio=None, contention=contention
            )
            continue
        cycle = tuple(str(n) for n in result.critical_cycle)
        tokens = 0
        if cycle:
            _, tokens = cycle_metrics(edges, list(result.critical_cycle))
        analysis.predictions[cfc.name] = CFCPrediction(
            cfc=cfc.name,
            ratio=result.ii,
            contention=contention,
            critical_cycle=cycle,
            cycle_tokens=tokens,
        )
    return analysis


# --------------------------------------------------------------------------
# Prediction vs. simulation: the soundness bridge for ``repro analyze ii``.
# --------------------------------------------------------------------------


@dataclass
class IIMeasurement:
    """Predicted vs. simulated steady-state II for one CFC."""

    cfc: str
    predicted: Optional[Fraction]
    #: None when the critical cycle offers no watchable channel or no
    #: complete within-invocation window (very short runs).
    simulated: Optional[Fraction]
    channel: str = ""
    fires: int = 0

    @property
    def sound(self) -> bool:
        """Simulated II never exceeds the static bound (or no data)."""
        if self.predicted is None or self.simulated is None:
            return True
        return self.simulated <= self.predicted

    @property
    def exact(self) -> bool:
        return (
            self.predicted is not None
            and self.simulated is not None
            and self.simulated == self.predicted
        )


def _critical_channels(
    circuit: DataflowCircuit, cycle: Sequence[str]
) -> List[Channel]:
    """Real channels along the critical cycle, backedges first.

    The backedge channel carries only in-cycle tokens; mux outputs on the
    cycle also carry each invocation's initial token, which would fold
    the inter-invocation gap into the measurement.
    """
    pairs = set(zip(cycle, list(cycle[1:]) + list(cycle[:1])))
    chans = [
        ch for ch in circuit.channels
        if (ch.src.unit, ch.dst.unit) in pairs
    ]
    chans.sort(
        key=lambda ch: (0 if ch.attrs.get("backedge") else 1, ch.cid)
    )
    return chans


def _marker_channels(
    circuit: DataflowCircuit, cycle: Sequence[str]
) -> List[Channel]:
    """Channels injecting out-of-cycle tokens into the cycle via muxes.

    Their fires mark loop-invocation boundaries: steady-state windows
    must not span one (the loop restarts and the II measurement would
    mix the drain of one invocation with the fill of the next).
    """
    members = set(cycle)
    out: List[Channel] = []
    for name in cycle:
        unit = circuit.units.get(name)
        if not isinstance(unit, Mux):
            continue
        for port in range(1, unit.n_in):
            ch = circuit.in_channel(unit, port)
            if ch is not None and ch.src.unit not in members:
                out.append(ch)
    return out


def measure_predictions(
    lowered: Any,
    analysis: FlowAnalysis,
    backend: Optional[str] = None,
    seed: int = 7,
    max_cycles: int = 4_000_000,
) -> List[IIMeasurement]:
    """Simulate once and measure the achieved II on each critical cycle.

    For every CFC prediction with a critical cycle, the backedge channel
    on that cycle is watched; the simulated II is the *minimum* over
    fire-index windows of width ``cycle_tokens`` that do not span a loop
    invocation boundary — the fastest steady-state rate the hardware
    actually sustained, which the static bound must dominate.
    """
    from ..frontend import simulate_kernel  # local: sim must stay lazy here
    from ..sim.trace import Trace

    circuit: DataflowCircuit = lowered.circuit
    trace = Trace()
    watch: Dict[str, Tuple[Channel, List[Channel], int]] = {}
    for name, pred in sorted(analysis.predictions.items()):
        if pred.ii is None or not pred.critical_cycle:
            continue
        chans = _critical_channels(circuit, pred.critical_cycle)
        if not chans:
            continue
        markers = _marker_channels(circuit, pred.critical_cycle)
        trace.watch_channel(chans[0])
        for m in markers:
            trace.watch_channel(m)
        watch[name] = (chans[0], markers, max(1, pred.cycle_tokens))

    if watch:
        simulate_kernel(
            lowered, trace=trace, backend=backend, seed=seed,
            max_cycles=max_cycles,
        )

    out: List[IIMeasurement] = []
    for name, pred in sorted(analysis.predictions.items()):
        if pred.ii is None:
            out.append(IIMeasurement(cfc=name, predicted=None, simulated=None))
            continue
        if name not in watch:
            out.append(
                IIMeasurement(cfc=name, predicted=pred.ii, simulated=None)
            )
            continue
        ch, markers, width = watch[name]
        fires = trace.cycles_of(ch)
        boundaries = sorted(
            t for m in markers for t in trace.cycles_of(m)
        )
        best: Optional[Fraction] = None
        for i in range(len(fires) - width):
            a, b = fires[i], fires[i + width]
            if bisect.bisect_right(boundaries, b) != bisect.bisect_right(
                boundaries, a
            ):
                continue  # window spans an invocation restart
            rate = Fraction(b - a, width)
            if best is None or rate < best:
                best = rate
        out.append(
            IIMeasurement(
                cfc=name,
                predicted=pred.ii,
                simulated=best,
                channel=ch.label(),
                fires=len(fires),
            )
        )
    return out
