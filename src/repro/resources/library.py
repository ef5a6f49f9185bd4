"""FPGA resource library: per-unit LUT/FF/DSP costs and delays.

Calibrated against the paper's target (Kintex-7 xc7k160t: 101k LUTs,
202k FFs, 600 DSPs) and the Xilinx floating-point operator IP:
an fadd/fsub occupies 2 DSP blocks and an fmul 3 — which reproduces every
DSP count in the paper's Tables 1-3 exactly (e.g. atax Naive: 2 fadd +
2 fmul = 2*2 + 2*3 = 10 DSPs).  LUT/FF numbers for the dataflow units are
simple parametric formulas in port count, buffer depth and data width; the
absolute values are calibrated to land in the same range as the paper's
post-place-and-route numbers, and the *relative* behaviour (what grows with
group size, what dominates the sharing wrapper) is what the experiments
check.

Address arithmetic (integer multiply for row-major indexing) is costed as
LUT logic, not DSPs, matching the paper's DSP counts which only reflect
floating-point units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuit import (
    ArbiterMerge,
    Branch,
    Constant,
    CreditCounter,
    Demux,
    EagerFork,
    ElasticBuffer,
    Entry,
    FixedOrderMerge,
    FunctionalUnit,
    Join,
    LazyFork,
    LoadPort,
    Merge,
    Mux,
    Sequence,
    Sink,
    StorePort,
    TransparentFifo,
    Unit,
)

#: Data width assumed for cost formulas (the kernels are 32-bit).
W = 32

#: Kintex-7 xc7k160t capacities (paper Table 1).
DEVICE_LUTS = 101_000
DEVICE_FFS = 202_000
DEVICE_DSPS = 600


@dataclass(frozen=True)
class Resources:
    """LUT/FF/DSP triple with arithmetic."""

    lut: int = 0
    ff: int = 0
    dsp: int = 0

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            self.lut + other.lut, self.ff + other.ff, self.dsp + other.dsp
        )

    def scaled(self, k: int) -> "Resources":
        return Resources(self.lut * k, self.ff * k, self.dsp * k)


#: Operator costs: (LUT, FF, DSP, internal pipeline-stage delay ns).
_OP_COSTS: Dict[str, tuple] = {
    "fadd": (360, 550, 2, 3.3),
    "fsub": (360, 550, 2, 3.3),
    "fmul": (110, 180, 3, 3.5),
    "fdiv": (780, 1350, 0, 3.9),
    "fneg": (10, 34, 0, 0.6),
    "fcmp_ge": (82, 70, 0, 2.6),
    "fcmp_gt": (82, 70, 0, 2.6),
    "fcmp_le": (82, 70, 0, 2.6),
    "fcmp_lt": (82, 70, 0, 2.6),
    "iadd": (32, 0, 0, 0.9),
    "isub": (32, 0, 0, 0.9),
    "imul": (96, 0, 0, 1.6),
    "icmp_lt": (16, 0, 0, 0.6),
    "icmp_le": (16, 0, 0, 0.6),
    "icmp_eq": (12, 0, 0, 0.5),
    "icmp_ne": (12, 0, 0, 0.5),
    "and": (1, 0, 0, 0.1),
    "or": (1, 0, 0, 0.1),
    "not": (1, 0, 0, 0.1),
    "pass": (0, 0, 0, 0.0),
}


def functional_unit_resources(op: str) -> Resources:
    """Resources of one operator instance.

    A shared operator costs the same: the wrapper logic is costed on the
    wrapper's own units.
    """
    lut, ff, dsp, _ = _OP_COSTS[op]
    return Resources(lut, ff, dsp)


#: Calibration of the dataflow (non-operator) logic against the paper's
#: post-place-and-route numbers: synthesis merges/retimes much of the
#: handshake logic, so raw per-unit formulas over-count.  These factors
#: land the benchmark totals in the paper's range (e.g. atax Naive
#: ~1.6k-2k LUT/FF) while preserving all relative trends.
DATAFLOW_LUT_SCALE = 0.30
DATAFLOW_FF_SCALE = 0.35


def unit_resources(unit: Unit) -> Resources:
    """LUT/FF/DSP cost of any dataflow unit instance."""
    raw = _raw_unit_resources(unit)
    if isinstance(unit, FunctionalUnit):
        return raw
    return Resources(
        int(round(raw.lut * DATAFLOW_LUT_SCALE)),
        int(round(raw.ff * DATAFLOW_FF_SCALE)),
        raw.dsp,
    )


def _raw_unit_resources(unit: Unit) -> Resources:
    if isinstance(unit, FunctionalUnit):
        return functional_unit_resources(unit.op)
    if isinstance(unit, EagerFork):
        return Resources(3 * unit.n_out + 2, unit.n_out, 0)
    if isinstance(unit, LazyFork):
        return Resources(2 * unit.n_out + 2, 0, 0)
    if isinstance(unit, Join):
        return Resources(2 * unit.n_in + 2, 0, 0)
    if isinstance(unit, ArbiterMerge):
        # Priority encoder + W-wide data mux + index generation.
        n = unit.n_in
        if unit.meta.get("order_state"):
            # In-order access controller: same datapath plus registers
            # tracking the total-order grant sequence.
            return Resources(4 * n + (W * (n - 1)) // 2 + 10, 10 + 3 * n, 0)
        return Resources(6 * n + (W * (n - 1)) // 2 + 12, 4, 0)
    if isinstance(unit, FixedOrderMerge):
        # Same datapath, plus the grant-pointer state register.
        n = unit.n_in
        return Resources(4 * n + (W * (n - 1)) // 2 + 14, 8 + n, 0)
    if isinstance(unit, Merge):
        n = unit.n_in
        return Resources(4 * n + (W * (n - 1)) // 2 + 6, 0, 0)
    if isinstance(unit, Mux):
        n = unit.n_data
        return Resources(4 * n + (W * (n - 1)) // 2 + 6, 0, 0)
    if isinstance(unit, Branch):
        return Resources(W // 2 + 8, 0, 0)
    if isinstance(unit, Demux):
        return Resources(4 * unit.n_out + W // 4 + 8, 0, 0)
    if isinstance(unit, ElasticBuffer):
        w = getattr(unit, "width_hint", W)
        return Resources(10 + 3 * unit.slots, unit.slots * (w + 1) + 2, 0)
    if isinstance(unit, TransparentFifo):
        # Bypass mux + FIFO control + slot registers: the paper observes
        # these dominate the wrapper's LUT cost (Section 6.4).
        w = getattr(unit, "width_hint", W)
        return Resources(26 + 9 * unit.slots + w // 2, unit.slots * (w + 1) + 4, 0)
    if isinstance(unit, CreditCounter):
        bits = max(1, unit.initial.bit_length())
        return Resources(4 + 2 * bits, bits + 1, 0)
    if isinstance(unit, (LoadPort, StorePort)):
        return Resources(40, 45, 0)
    if isinstance(unit, Constant):
        return Resources(2, 0, 0)
    if isinstance(unit, (Entry, Sequence, Sink)):
        return Resources(0, 0, 0)  # test-bench scaffolding, not synthesized
    return Resources(4, 0, 0)


def stage_delay(unit: Unit) -> float:
    """Internal register-to-register delay of a sequential unit (ns)."""
    if isinstance(unit, FunctionalUnit) and unit.latency > 0:
        return _OP_COSTS[unit.op][3]
    if isinstance(unit, (LoadPort, StorePort)):
        return 2.6
    return 0.0


def comb_delay(unit: Unit) -> float:
    """Combinational pass-through delay contribution of a unit (ns)."""
    if isinstance(unit, FunctionalUnit):
        if unit.latency == 0:
            return _OP_COSTS[unit.op][3]
        return 0.55  # input join / output register margin of pipelined ops
    if isinstance(unit, EagerFork):
        # High fanout is resolved by synthesis buffer trees; delay grows
        # only up to a point.
        return 0.12 + 0.02 * min(unit.n_out, 16)
    if isinstance(unit, LazyFork):
        return 0.16 + 0.03 * min(unit.n_out, 16)
    if isinstance(unit, Join):
        return 0.14 + 0.03 * unit.n_in
    if isinstance(unit, (ArbiterMerge, FixedOrderMerge)):
        return 0.42 + 0.07 * unit.n_in
    if isinstance(unit, Merge):
        return 0.30 + 0.05 * unit.n_in
    if isinstance(unit, Mux):
        return 0.32 + 0.05 * unit.n_data
    if isinstance(unit, Branch):
        return 0.32
    if isinstance(unit, Demux):
        return 0.28 + 0.04 * unit.n_out
    if isinstance(unit, TransparentFifo):
        return 0.44  # bypass mux
    if isinstance(unit, ElasticBuffer):
        return 0.22
    if isinstance(unit, CreditCounter):
        return 0.18
    if isinstance(unit, Constant):
        return 0.05
    return 0.1


#: Fixed timing overhead per register-to-register path: clock skew, routing
#: detours, FF setup.  Calibrated so FU-bound circuits land near the
#: paper's ~5.1-5.8 ns at the 6 ns clock target.
BASE_PATH_OVERHEAD_NS = 2.05


# ---------------------------------------------------------------- Equation 2
#: DSPs are the scarce resource (600 vs 101k LUTs): weight them accordingly
#: when folding the triple into one scalar for the cost heuristic.
DSP_WEIGHT = 150


def equivalent_cost(res: Resources) -> float:
    return res.lut + res.ff + DSP_WEIGHT * res.dsp


def unit_equivalent_cost(op_type: str) -> float:
    """``C_T`` of Equation 2: one shared unit's scalar cost."""
    return equivalent_cost(functional_unit_resources(op_type))


def wrapper_equivalent_cost(op_type: str, size: int) -> float:
    """``C_WP(|G|)`` of Equation 2: scalar cost of a size-``size`` wrapper.

    Approximates the wrapper built by :func:`insert_sharing_wrapper` with
    two credits (and two OB slots) per operation — the typical Equation-3
    allocation for the paper's workloads.
    """
    if size < 2:
        return 0.0
    total = Resources()
    n_cc = 2
    total += Resources(6 * size + (W * (size - 1)) // 2 + 12, 4, 0)  # arbiter
    total += Resources(26 + 9 * (n_cc * size) + W // 2, n_cc * size * 3 + 4, 0)  # cond
    total += Resources(4 * size + W // 4 + 8, 0, 0)  # branch/demux
    per_op = (
        Resources(2 * 3 + 2, 0, 0)  # join (2 operands + credit)
        + Resources(8, 3, 0)  # credit counter
        + Resources(26 + 9 * n_cc + W // 2, n_cc * (W + 1) + 4, 0)  # OB
        + Resources(6, 0, 0)  # lazy fork
    )
    total += per_op.scaled(size)
    scaled = Resources(
        int(round(total.lut * DATAFLOW_LUT_SCALE)),
        int(round(total.ff * DATAFLOW_FF_SCALE)),
        total.dsp,
    )
    return equivalent_cost(scaled)
