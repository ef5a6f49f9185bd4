"""Buffer placement and sizing (the Gurobi/MILP substitute).

Dynamatic places buffers before sharing to (a) break every combinational
cycle so the handshake network is well-formed and (b) slack-match
reconvergent paths so short paths hold enough tokens to keep long-latency
paths streaming at the analysed II [34, 41].  This pass reproduces both
duties with a deterministic algorithm:

1. **Cycle breaking** — every graph cycle must contain at least one
   sequential unit (elastic buffer, pipelined FU, memory port, or credit
   counter); an :class:`ElasticBuffer` is inserted on an edge of any purely
   combinational cycle.
2. **Slack matching** — within each CFC, on the DAG obtained by dropping
   token-carrying backedges, each channel whose producer is "early" relative
   to the consuming join's other inputs gets a :class:`TransparentFifo`
   sized to hold the tokens that accumulate while the slow path drains
   (≈ slack / II, plus one for skew).

The pass is re-run wholesale by the In-order baseline for every candidate
sharing decision — exactly the repeated-global-optimization pattern whose
cost CRUSH's local heuristics eliminate (the paper's 90% optimization-time
reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import (
    Channel,
    DataflowCircuit,
    ElasticBuffer,
    TransparentFifo,
    Unit,
)
from ..errors import AnalysisError
from ..resources.timing import is_combinational
from .cfc import CFC, critical_cfcs
from .scc import strongly_connected_components


@dataclass
class BufferReport:
    """What the placement pass did (consumed by tests and opt-time stats)."""

    cycle_breakers: List[str] = field(default_factory=list)
    slack_fifos: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def total_slots(self) -> int:
        return sum(s for _, s in self.slack_fifos) + 2 * len(self.cycle_breakers)


def break_combinational_cycles(circuit: DataflowCircuit) -> List[str]:
    """Insert elastic buffers until no cycle is purely combinational."""
    inserted: List[str] = []
    for _ in range(len(circuit.channels) + 1):
        comb_units = {
            n for n, u in circuit.units.items() if is_combinational(u)
        }
        succ: Dict[str, List[str]] = {n: [] for n in comb_units}
        edge_for: Dict[Tuple[str, str], Channel] = {}
        for ch in circuit.channels:
            if ch.src.unit in comb_units and ch.dst.unit in comb_units:
                succ[ch.src.unit].append(ch.dst.unit)
                edge_for.setdefault((ch.src.unit, ch.dst.unit), ch)
        self_loops = [
            ch for ch in circuit.channels if ch.src.unit == ch.dst.unit
        ]
        target: Optional[Channel] = None
        if self_loops and self_loops[0].src.unit in comb_units:
            target = self_loops[0]
        else:
            for comp in strongly_connected_components(sorted(comb_units), succ):
                if len(comp) > 1:
                    nxt = next(v for v in succ[comp[0]] if v in set(comp))
                    target = edge_for[(comp[0], nxt)]
                    break
        if target is None:
            return inserted
        buf = circuit.add(
            ElasticBuffer(circuit.fresh_name("cyclebuf"), slots=2)
        )
        _splice(circuit, target, buf)
        inserted.append(buf.name)
    raise AnalysisError("cycle breaking did not converge")


def _splice(circuit: DataflowCircuit, ch: Channel, unit: Unit) -> None:
    """Insert a 1-in/1-out unit into the middle of a channel."""
    dst_unit = circuit.units[ch.dst.unit]
    dst_port = ch.dst.index
    attrs = dict(ch.attrs)
    circuit.redirect_dst(ch, unit, 0)
    new_ch = circuit.connect(unit, 0, dst_unit, dst_port, width=ch.width)
    # Token annotations stay on the downstream half by convention.
    new_ch.attrs.update(attrs)
    ch.attrs.pop("tokens", None)
    # Inherit CFC membership so analyses keep seeing a closed subgraph.
    unit.meta.setdefault("cfc", dst_unit.meta.get("cfc"))
    if unit.meta.get("cfc") is None:
        unit.meta.pop("cfc", None)


def slack_match_cfc(
    circuit: DataflowCircuit, cfc: CFC
) -> List[Tuple[str, int]]:
    """Place transparent FIFOs on early channels of reconvergent paths.

    Slack is sized with the LP formulation (the MILP analog,
    :mod:`repro.analysis.lp_sizing`); every imbalanced channel gets a
    :class:`TransparentFifo` worth ``ceil(slack / II) + 1`` tokens.
    """
    from .lp_sizing import sized_slots, slack_lp

    ii = cfc.ii().ii
    slack = slack_lp(cfc)
    by_cid = {ch.cid: ch for ch in circuit.channels}
    placed: List[Tuple[str, int]] = []
    for cid, cycles in sorted(slack.items()):
        slots = sized_slots(cycles, ii)
        if slots == 0:
            continue
        ch = by_cid[cid]
        src_u = circuit.units[ch.src.unit]
        if isinstance(src_u, (TransparentFifo, ElasticBuffer)):
            continue
        fifo = circuit.add(
            TransparentFifo(
                circuit.fresh_name("slackbuf"), slots=slots, width_hint=ch.width
            )
        )
        fifo.meta["slack"] = cycles
        _splice(circuit, ch, fifo)
        placed.append((fifo.name, slots))
    if placed:
        cfc.unit_names.update(name for name, _ in placed)
        cfc.invalidate()
    return placed


def place_buffers(
    circuit: DataflowCircuit,
    cfcs: Optional[Sequence[CFC]] = None,
    timing: bool = True,
) -> BufferReport:
    """Run the full buffer placement pass; returns what was inserted.

    Order matters: structural cycle breaking first, then timing-driven
    registering of long combinational chains (so slack matching sees final
    path latencies), then per-CFC slack matching.
    """
    report = BufferReport()
    report.cycle_breakers = break_combinational_cycles(circuit)
    if timing:
        from .timing_buffers import insert_timing_buffers

        report.cycle_breakers.extend(insert_timing_buffers(circuit))
    if cfcs is None:
        cfcs = critical_cfcs(circuit)
    for cfc in cfcs:
        # Buffers spliced into the CFC inherit its tag; fold them in so the
        # CFC subgraph stays closed for the II analysis.
        cfc.unit_names.update(
            n
            for n, u in circuit.units.items()
            if str(u.meta.get("cfc")) == cfc.name
        )
        cfc.invalidate()
        report.slack_fifos.extend(slack_match_cfc(circuit, cfc))
    circuit.validate()
    return report
