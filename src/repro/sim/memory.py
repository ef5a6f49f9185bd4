"""Flat memory model backing the load/store ports during simulation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..errors import SimulationError


class Memory:
    """Per-array flat value stores with bounds checking and access counters.

    Arrays are addressed by flattened integer indices (the frontend lowers
    multi-dimensional accesses to row-major flat addresses).  Reads of cells
    never written return the initial contents.
    """

    def __init__(self):
        self._arrays: Dict[str, List[float]] = {}
        self.reads = 0
        self.writes = 0

    def allocate(self, name: str, size: int, init: Optional[Iterable] = None) -> None:
        if name in self._arrays:
            raise SimulationError(f"array {name!r} already allocated")
        if size < 0:
            raise SimulationError(f"array {name!r}: negative size")
        if init is None:
            cells = [0.0] * size
        else:
            cells = [float(x) for x in init]
            if len(cells) != size:
                raise SimulationError(
                    f"array {name!r}: init has {len(cells)} cells, expected {size}"
                )
        self._arrays[name] = cells

    def _cells(self, name: str) -> List[float]:
        try:
            return self._arrays[name]
        except KeyError:
            raise SimulationError(f"unknown array {name!r}") from None

    def read(self, name: str, addr: int) -> float:
        cells = self._cells(name)
        if not 0 <= addr < len(cells):
            raise SimulationError(
                f"read out of bounds: {name}[{addr}] (size {len(cells)})"
            )
        self.reads += 1
        return cells[addr]

    def write(self, name: str, addr: int, value) -> None:
        cells = self._cells(name)
        if not 0 <= addr < len(cells):
            raise SimulationError(
                f"write out of bounds: {name}[{addr}] (size {len(cells)})"
            )
        self.writes += 1
        cells[addr] = float(value)

    def dump(self, name: str) -> np.ndarray:
        """Snapshot an array's contents as a NumPy vector."""
        return np.array(self._cells(name), dtype=float)

    def snapshot(self) -> Dict[str, List[float]]:
        """Copy of every array's cells (batched engines snapshot initial
        contents so per-lane re-execution can restart from scratch)."""
        return {name: list(cells) for name, cells in self._arrays.items()}

    def restore(self, snap: Dict[str, List[float]]) -> None:
        """Restore cells from a :meth:`snapshot`; resets access counters."""
        for name, cells in snap.items():
            self._arrays[name][:] = cells
        self.reads = 0
        self.writes = 0

    def arrays(self) -> List[str]:
        return sorted(self._arrays)
