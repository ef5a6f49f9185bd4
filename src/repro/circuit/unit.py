"""Base class for dataflow units and the simulation port context.

Every unit type in the library derives from :class:`Unit` and implements the
two halves of synchronous handshake semantics:

``eval_comb(ctx)``
    The *combinational* half.  Reads the current input ``valid``/``data``
    values and output ``ready`` values through ``ctx`` and drives the
    output ``valid``/``data`` and input ``ready`` values.  The simulator
    calls this repeatedly within one cycle until all handshake signals reach
    a fixpoint, so implementations must be pure functions of
    (sequential state, observed signals).

``tick(ctx)``
    The *sequential* half.  Called once per cycle after the fixpoint, with
    ``ctx.fired_in(i)`` / ``ctx.fired_out(i)`` telling which ports actually
    transferred a token this cycle.  This is where internal state (FIFO
    contents, pipeline registers, credit counts) is updated.

Units are identified by name; port counts are fixed at construction.
"""

from __future__ import annotations

from typing import List, Optional


class PortCtx:
    """Fast accessor binding a unit's ports to the engine's signal arrays.

    The engine allocates one entry per channel in the flat lists ``valid``,
    ``ready``, ``data`` and ``fired``, then creates one ``PortCtx`` per unit
    holding the channel indices of that unit's input and output ports.
    Unconnected optional ports map to index ``-1`` and behave as
    never-valid / never-ready.

    The setters drive the engine's event-driven fixpoint: when a write
    actually changes a signal, the unit at the channel's *other* end is
    queued for re-evaluation (``cons_unit``/``prod_unit`` map channels to
    schedule slots, ``dirty``/``queue`` are the engine's work list).
    """

    __slots__ = (
        "valid",
        "ready",
        "data",
        "fired",
        "in_ch",
        "out_ch",
        "cons_unit",
        "prod_unit",
        "dirty",
        "queue",
    )

    def __init__(self, valid, ready, data, fired, in_ch, out_ch,
                 cons_unit, prod_unit, dirty, queue):
        self.valid = valid
        self.ready = ready
        self.data = data
        self.fired = fired
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.cons_unit = cons_unit
        self.prod_unit = prod_unit
        self.dirty = dirty
        self.queue = queue

    # --- input side -------------------------------------------------------
    def in_valid(self, i: int) -> bool:
        ch = self.in_ch[i]
        return ch >= 0 and self.valid[ch]

    def in_data(self, i: int):
        return self.data[self.in_ch[i]]

    def set_in_ready(self, i: int, r: bool) -> None:
        ch = self.in_ch[i]
        if ch >= 0 and self.ready[ch] != r:
            self.ready[ch] = r
            u = self.prod_unit[ch]
            if u >= 0 and not self.dirty[u]:
                self.dirty[u] = 1
                self.queue.append(u)

    def fired_in(self, i: int) -> bool:
        ch = self.in_ch[i]
        return ch >= 0 and self.fired[ch]

    # --- output side ------------------------------------------------------
    def out_ready(self, i: int) -> bool:
        ch = self.out_ch[i]
        return ch >= 0 and self.ready[ch]

    def set_out(self, i: int, v: bool, d=None) -> None:
        ch = self.out_ch[i]
        if ch >= 0 and (self.valid[ch] != v or self.data[ch] != d):
            self.valid[ch] = v
            self.data[ch] = d
            u = self.cons_unit[ch]
            if u >= 0 and not self.dirty[u]:
                self.dirty[u] = 1
                self.queue.append(u)

    def fired_out(self, i: int) -> bool:
        ch = self.out_ch[i]
        return ch >= 0 and self.fired[ch]


class Unit:
    """Abstract dataflow unit.

    Subclasses define ``n_in`` / ``n_out`` (possibly per instance) and the
    handshake semantics.  ``latency`` is the number of pipeline cycles from
    input transfer to result availability (0 = purely combinational) and is
    consumed by the throughput analysis; units whose latency depends on
    parameters override the attribute per instance.
    """

    #: number of input / output ports; subclasses set these in __init__.
    n_in: int = 0
    n_out: int = 0
    #: sequential latency in cycles as seen by the II analysis.
    latency: int = 0

    def __init__(self, name: str):
        if not name:
            raise ValueError("unit name must be non-empty")
        self.name = name
        #: Free-form annotations set by lowering/optimization passes
        #: (e.g. ``{"cfc": "loop2", "bb": 3}``); never read by the simulator.
        self.meta: dict = {}

    # --- simulation hooks --------------------------------------------------
    def reset(self) -> None:
        """Restore the unit's sequential state to its power-on value."""

    def eval_comb(self, ctx: PortCtx) -> None:
        """Drive output valid/data and input ready from state + signals."""
        raise NotImplementedError

    def tick(self, ctx: PortCtx) -> None:
        """Commit sequential state after the handshake fixpoint."""

    def state(self):
        """Snapshot of the unit's mutable sequential state (None if pure).

        Used by the explicit-state model checker (:mod:`repro.verify`) to
        hash, compare and restore circuit states.  Stateful subclasses
        override this together with :meth:`set_state`.
        """
        return None

    def set_state(self, state) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        if state is not None:
            raise NotImplementedError(f"{self.describe()} cannot restore state")

    def quiescent(self) -> bool:
        """True when the unit cannot make internal progress without I/O.

        The deadlock detector declares a deadlock only when no channel has
        fired for a while *and* every unit is quiescent (a pipelined unit
        draining an internal bubble is progress even without channel
        activity).
        """
        return True

    # --- static scheduling metadata -----------------------------------------
    def comb_deps(self):
        """Signal-level combinational dependencies, for static scheduling.

        Returns ``(fwd, bwd)``:

        * ``fwd[i]`` — the signals that output ``i``'s valid/data are a
          combinational function of;
        * ``bwd[i]`` — the signals that input ``i``'s ready is a
          combinational function of.

        Signals are named from this unit's perspective: ``("in", j)`` is
        input ``j``'s incoming valid/data, ``("out", j)`` is output ``j``'s
        incoming ready.  Signals cut by a register (read from sequential
        state only) must be omitted — buffers override this to declare
        that they break the valid and/or ready path.

        The default is the conservative fully-combinational unit: every
        driven signal depends on every observable signal, except that an
        output's valid/data never depend on that same output's ready
        (the elastic-circuit handshake invariant every unit in the
        catalogue obeys; a valid that waited for its own ready could
        deadlock the protocol).  Two contracts matter for subclasses:

        * an override may only *remove* dependencies that ``eval_comb``
          genuinely does not read for that signal;
        * any unit whose ``eval_comb`` calls into data values (not just
          valid/ready bits) must keep the corresponding ``("in", j)``
          dependencies on every signal it drives, so a static scheduler
          never runs it before those data values are final.
        """
        ins = [("in", j) for j in range(self.n_in)]
        outs = [("out", j) for j in range(self.n_out)]
        fwd = [
            ins + [("out", j) for j in range(self.n_out) if j != i]
            for i in range(self.n_out)
        ]
        bwd = [ins + outs for _ in range(self.n_in)]
        return fwd, bwd

    def needs_tick(self) -> bool:
        """True when :meth:`tick` can have an effect and must be called.

        Used by the simulation backends to skip the per-cycle tick of
        purely combinational units.  Subclasses whose ``tick`` is
        conditionally inert (e.g. a zero-latency operator) may override.
        """
        return type(self).tick is not Unit.tick

    # --- static description -------------------------------------------------
    def in_port_name(self, i: int) -> str:
        return f"in{i}"

    def out_port_name(self, i: int) -> str:
        return f"out{i}"

    def describe(self) -> str:
        return f"{type(self).__name__}({self.name})"

    def __repr__(self):
        return f"<{self.describe()}>"
