"""Performance analysis: SCCs, CFCs, II, occupancy, buffer placement."""

from .buffers import BufferReport, break_combinational_cycles, place_buffers, slack_match_cfc
from .cfc import CFC, cfc_of_units, critical_cfcs
from .occupancy import group_occupancy_in_cfc, occupancy_map, unit_capacity
from .scc import (
    MAX_SCC_ENUMERATION,
    SCCGraph,
    max_simple_distance,
    scc_partition,
    strongly_connected_components,
)
from .lp_sizing import sized_slots, slack_lp
from .throughput import (
    IIResult,
    WeightedEdge,
    cycle_metrics,
    find_tokenless_cycle,
    max_cycle_ratio,
)
from .memdep import (
    MEM_LSQ_REQUIRED,
    MEM_STATIC_OK,
    DepMeasurement,
    MemAccess,
    MemDepReport,
    PairVerdict,
    analyze_kernel,
    measure_dependences,
    site_ports,
)
from .timing_buffers import TARGET_CP_NS, insert_timing_buffers
from .tokenflow import (
    CFCPrediction,
    FlowAnalysis,
    FlowIssue,
    IIMeasurement,
    analyze_circuit,
    measure_predictions,
    wrapper_views,
)

__all__ = [
    "slack_lp",
    "sized_slots",
    "insert_timing_buffers",
    "TARGET_CP_NS",
    "BufferReport",
    "CFC",
    "CFCPrediction",
    "FlowAnalysis",
    "FlowIssue",
    "DepMeasurement",
    "IIMeasurement",
    "IIResult",
    "MAX_SCC_ENUMERATION",
    "MEM_LSQ_REQUIRED",
    "MEM_STATIC_OK",
    "MemAccess",
    "MemDepReport",
    "PairVerdict",
    "SCCGraph",
    "WeightedEdge",
    "analyze_circuit",
    "analyze_kernel",
    "break_combinational_cycles",
    "cfc_of_units",
    "critical_cfcs",
    "cycle_metrics",
    "find_tokenless_cycle",
    "group_occupancy_in_cfc",
    "max_cycle_ratio",
    "max_simple_distance",
    "measure_dependences",
    "measure_predictions",
    "occupancy_map",
    "site_ports",
    "place_buffers",
    "scc_partition",
    "slack_match_cfc",
    "strongly_connected_components",
    "unit_capacity",
    "wrapper_views",
]
