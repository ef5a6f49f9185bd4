"""FPGA resource & timing models (the Vivado synthesis substitute)."""

from .estimate import ResourceEstimate, estimate_circuit, estimate_units, slice_estimate
from .library import (
    DEVICE_DSPS,
    DEVICE_FFS,
    DEVICE_LUTS,
    DSP_WEIGHT,
    Resources,
    equivalent_cost,
    functional_unit_resources,
    unit_equivalent_cost,
    unit_resources,
)
from .timing import critical_path_ns

__all__ = [
    "DEVICE_DSPS",
    "DEVICE_FFS",
    "DEVICE_LUTS",
    "DSP_WEIGHT",
    "ResourceEstimate",
    "Resources",
    "critical_path_ns",
    "equivalent_cost",
    "estimate_circuit",
    "estimate_units",
    "functional_unit_resources",
    "slice_estimate",
    "unit_equivalent_cost",
    "unit_resources",
]
