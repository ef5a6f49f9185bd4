"""Output-buffer elision: the paper's Section 6.4 extension, implemented.

The output buffers dominate the sharing wrapper's LUT cost (~half at
|G| = 7, Figure 10).  The paper observes: *"if we can prove (e.g., using
model checking [50]) that the output is always ready to take tokens
computed by the shared unit, then the output buffer is redundant and can
be removed to save resources."*

This pass does exactly that, with two proof engines:

* ``mode="structural"`` — an output buffer is elidable when its
  (transitive, 1-to-1) consumer chain ends in an always-ready unit
  (a sink).  Sound, cheap, conservative.
* ``mode="verify"`` — remove the buffer on a copy of the circuit and
  *model-check* the result over every environment schedule
  (:mod:`repro.verify`); apply the removal only if the state space remains
  deadlock-free.  Sound for the finite configuration explored; intended
  for small circuits (the same scope as the model checker).

Either way, removal preserves Equation 1's spirit: with the buffer gone,
the head-of-line token waits at the branch — which is safe exactly when
the consumer can always drain it.  The wrapper's record keeps its slots
aligned: an elided buffer leaves ``""`` in ``output_buffers``, so the lint
audit and the token-flow analysis still pair slot ``i`` with its
operation, join and credit counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..circuit import DataflowCircuit, Sink, TransparentFifo, Unit
from ..errors import SharingError
from .wrapper import SharingWrapper


@dataclass
class ElisionResult:
    """Which output buffers were removed, and how it was justified."""

    removed: List[str] = field(default_factory=list)
    kept: List[str] = field(default_factory=list)
    mode: str = "structural"

    @property
    def count(self) -> int:
        return len(self.removed)


def _always_ready(circuit: DataflowCircuit, unit: Unit) -> bool:
    """Conservatively: sinks (and environment sinks) are always ready."""
    from ..verify import StallingSink

    if isinstance(unit, Sink):
        return True
    if isinstance(unit, StallingSink):
        # The environment may stall; never structurally elidable.
        return False
    return False


def _splice_out_buffer(circuit: DataflowCircuit, ob_name: str) -> None:
    """Remove a 1-in/1-out buffer, joining its neighbour channels."""
    ob = circuit.unit(ob_name)
    in_ch = circuit.in_channel(ob, 0)
    out_ch = circuit.out_channel(ob, 0)
    if in_ch is None or out_ch is None:
        raise SharingError(f"{ob_name!r} is not fully connected")
    dst_unit = circuit.units[out_ch.dst.unit]
    dst_port = out_ch.dst.index
    circuit.disconnect(out_ch)
    circuit.redirect_dst(in_ch, dst_unit, dst_port)
    circuit.remove_unit(ob)


def elide_output_buffers(
    circuit: DataflowCircuit,
    wrappers: Sequence[SharingWrapper],
    mode: str = "structural",
    max_states: int = 40_000,
) -> ElisionResult:
    """Remove provably redundant wrapper output buffers in place.

    ``mode="verify"`` requires the circuit to already carry
    :class:`~repro.verify.StallingSink` environment outputs and to be
    finite (see :func:`repro.verify.explore`).
    """
    if mode not in ("structural", "verify"):
        raise SharingError(f"unknown elision mode {mode!r}")
    result = ElisionResult(mode=mode)
    for wrapper in wrappers:
        for i, ob_name in enumerate(wrapper.output_buffers):
            if ob_name not in circuit.units:
                continue
            if mode == "structural":
                ok = _structurally_safe(circuit, ob_name)
            else:
                ok = _verified_safe(circuit, ob_name, max_states)
            if ok:
                _splice_out_buffer(circuit, ob_name)
                # The slot keeps its place, so the slots stay aligned.
                wrapper.output_buffers[i] = ""
                result.removed.append(ob_name)
            else:
                result.kept.append(ob_name)
    circuit.validate()
    return result


def _structurally_safe(circuit: DataflowCircuit, ob_name: str) -> bool:
    """The buffer's consumer (past the lazy fork's data leg) is a sink."""
    from ..circuit import LazyFork

    ob = circuit.unit(ob_name)
    out_ch = circuit.out_channel(ob, 0)
    if out_ch is None:
        return False
    consumer = circuit.units[out_ch.dst.unit]
    if isinstance(consumer, LazyFork):
        data_ch = circuit.out_channel(consumer, 0)
        if data_ch is None:
            return False
        consumer = circuit.units[data_ch.dst.unit]
    return _always_ready(circuit, consumer)


def _verified_safe(
    circuit: DataflowCircuit, ob_name: str, max_states: int
) -> bool:
    """Model-check a copy of the circuit with the buffer removed."""
    from ..verify import explore

    trial = circuit.clone()
    _splice_out_buffer(trial, ob_name)
    verdict = explore(trial, max_states=max_states)
    return bool(verdict)
