"""Choice-free circuits (CFCs): the performance-critical loop subcircuits.

Performance optimization of dataflow circuits happens on CFCs — subcircuits
with no conditional execution, in practice the steady state of each
innermost loop (paper Section 2.1).  The frontend tags every unit belonging
to an innermost loop with ``meta["cfc"] = <loop id>``; this module collects
those tags into :class:`CFC` objects offering the graph views the heuristics
need (II, SCC condensation, in-SCC distances).

Hand-built circuits (tests, examples) can construct a :class:`CFC` directly
from a unit-name set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set

from ..circuit import Channel, DataflowCircuit
from ..errors import AnalysisError
from .scc import SCCGraph
from .throughput import IIResult, WeightedEdge, max_cycle_ratio


@dataclass
class CFC:
    """One performance-critical choice-free circuit."""

    name: str
    circuit: DataflowCircuit
    unit_names: Set[str]
    _ii: Optional[IIResult] = field(default=None, repr=False)
    _sccg: Optional[SCCGraph] = field(default=None, repr=False)

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self.unit_names

    # ------------------------------------------------------------- graph view
    def internal_channels(self) -> List[Channel]:
        return [
            ch
            for ch in self.circuit.channels
            if ch.src.unit in self.unit_names and ch.dst.unit in self.unit_names
        ]

    def weighted_edges(self) -> List[WeightedEdge]:
        """Edges for the II analysis: latency from the producing unit,
        circulating tokens from ``DataflowCircuit.channel_tokens``
        (backedge annotations, credit counters' initial credits)."""
        units = self.circuit.units
        return [
            WeightedEdge(
                ch.src.unit,
                ch.dst.unit,
                units[ch.src.unit].latency,
                self.circuit.channel_tokens(ch),
            )
            for ch in self.internal_channels()
        ]

    def successors_map(self) -> Dict[str, List[str]]:
        succ: Dict[str, List[str]] = {n: [] for n in self.unit_names}
        for ch in self.internal_channels():
            succ[ch.src.unit].append(ch.dst.unit)
        return succ

    # --------------------------------------------------------------- analyses
    def ii(self) -> IIResult:
        """Exact steady-state II of the CFC (cached)."""
        if self._ii is None:
            self._ii = max_cycle_ratio(self.weighted_edges())
        return self._ii

    def scc_graph(self) -> SCCGraph:
        """SCC condensation of the CFC (cached)."""
        if self._sccg is None:
            self._sccg = SCCGraph(sorted(self.unit_names), self.successors_map())
        return self._sccg

    def invalidate(self) -> None:
        """Drop cached analyses after a structural change."""
        self._ii = None
        self._sccg = None


def critical_cfcs(circuit: DataflowCircuit) -> List[CFC]:
    """Collect the CFCs tagged by the frontend (``meta["cfc"]``).

    Returns one :class:`CFC` per distinct tag, sorted by tag for
    determinism.  An empty result means the circuit carries no loop
    annotations (hand-built circuits) and callers should build CFCs
    explicitly.
    """
    groups: Dict[str, Set[str]] = {}
    for u in circuit.units.values():
        tag = u.meta.get("cfc")
        if tag is not None:
            groups.setdefault(str(tag), set()).add(u.name)
    return [CFC(tag, circuit, names) for tag, names in sorted(groups.items())]


def cfc_of_units(circuit: DataflowCircuit, names: Sequence[str], name: str = "cfc") -> CFC:
    """Build a CFC from an explicit unit-name list (test/example helper)."""
    missing = [n for n in names if n not in circuit.units]
    if missing:
        raise AnalysisError(f"CFC {name!r}: unknown units {missing}")
    return CFC(name, circuit, set(names))
