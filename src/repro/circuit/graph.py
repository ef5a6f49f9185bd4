"""The dataflow circuit container.

A :class:`DataflowCircuit` is a directed graph whose nodes are
:class:`~repro.circuit.unit.Unit` instances and whose edges are
:class:`~repro.circuit.channel.Channel` handshake links.  The container
enforces structural sanity (unique names, single driver / single consumer
per port) and offers the graph views used by the analysis and sharing
passes.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import CircuitError
from .channel import Channel, PortRef, DATA_WIDTH
from .unit import Unit
from .units.credit import CreditCounter
from .units.functional import OpSpec

#: Attribute values :func:`_canonical` writes with ``repr``.
_SCALARS = (type(None), bool, int, float, str)

#: The container types :meth:`DataflowCircuit.clone` copies in a unit's
#: attributes; a value of any other type is shared with the clone.
_COPIERS = {list: list.copy, dict: dict.copy, set: set.copy,
            deque: deque.copy}


def _clone_unit(unit: Unit) -> Unit:
    twin = object.__new__(type(unit))
    twin.__dict__.update(
        (k, _COPIERS[type(v)](v) if type(v) in _COPIERS else v)
        for k, v in vars(unit).items()
    )
    return twin


class _Unkeyable(Exception):
    """An attribute value :func:`_canonical` has no canonical form for."""


def _canonical(value) -> str:
    """A text form of ``value`` that equal values share in every process:
    scalars by ``repr``, sequences in order, dicts and sets sorted, an
    :class:`OpSpec` by its mnemonic.  Any other type raises
    :class:`_Unkeyable`."""
    kind = type(value)
    if kind in _SCALARS:
        return repr(value)
    if kind in (list, tuple, deque):
        return f"{kind.__name__}[{','.join(map(_canonical, value))}]"
    if kind is dict:
        items = sorted(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()
        )
        return f"dict{{{','.join(items)}}}"
    if kind in (set, frozenset):
        return f"{kind.__name__}{{{','.join(sorted(map(_canonical, value)))}}}"
    if kind is OpSpec:
        return f"OpSpec({value.mnemonic})"
    raise _Unkeyable(kind.__qualname__)


class DataflowCircuit:
    """A mutable dataflow circuit graph."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.units: Dict[str, Unit] = {}
        self.channels: List[Channel] = []
        # port -> channel maps; key is (unit_name, port_index)
        self._out_map: Dict[Tuple[str, int], Channel] = {}
        self._in_map: Dict[Tuple[str, int], Channel] = {}
        self._name_counters: Dict[str, int] = {}

    # ------------------------------------------------------------------ build
    def add(self, unit: Unit) -> Unit:
        """Add a unit; its name must be unique within the circuit."""
        if unit.name in self.units:
            raise CircuitError(f"duplicate unit name {unit.name!r}")
        self.units[unit.name] = unit
        return unit

    def fresh_name(self, prefix: str) -> str:
        """Generate a unique unit name with the given prefix."""
        n = self._name_counters.get(prefix, 0)
        while True:
            candidate = f"{prefix}{n}"
            n += 1
            if candidate not in self.units:
                self._name_counters[prefix] = n
                return candidate

    def connect(
        self,
        src: Unit,
        src_port: int,
        dst: Unit,
        dst_port: int,
        width: int = DATA_WIDTH,
        name: Optional[str] = None,
        **attrs,
    ) -> Channel:
        """Create a channel from ``src.out[src_port]`` to ``dst.in[dst_port]``."""
        self._check_port(src, src_port, src.n_out, "output")
        self._check_port(dst, dst_port, dst.n_in, "input")
        skey = (src.name, src_port)
        dkey = (dst.name, dst_port)
        if skey in self._out_map:
            raise CircuitError(
                f"output port {src.name}[{src_port}] already drives "
                f"{self._out_map[skey].dst}; insert a fork to duplicate tokens"
            )
        if dkey in self._in_map:
            raise CircuitError(
                f"input port {dst.name}[{dst_port}] already driven by "
                f"{self._in_map[dkey].src}"
            )
        ch = Channel(
            cid=len(self.channels),
            src=PortRef(src.name, src_port),
            dst=PortRef(dst.name, dst_port),
            width=width,
            name=name,
            attrs=dict(attrs),
        )
        self.channels.append(ch)
        self._out_map[skey] = ch
        self._in_map[dkey] = ch
        return ch

    def clone(self) -> "DataflowCircuit":
        """A copy that a rewrite pass can change without touching this one.

        Units and channels are new objects.  Each unit's list, dict, set
        and deque attributes (``meta`` included) and each channel's
        ``attrs`` are copied one level deep.  That suffices because no
        unit attribute is a container holding a mutable container; a test
        checks this for every unit of every configuration.  Other values
        are immutable (scalars, ``OpSpec``) or rebound before use (a
        memory port's ``memory``), and are shared.  Name counters carry
        over, so ``fresh_name`` continues this circuit's sequence.
        """
        twin = DataflowCircuit(self.name)
        twin.units = {name: _clone_unit(u) for name, u in self.units.items()}
        twin.channels = [
            Channel(ch.cid, ch.src, ch.dst, ch.width, ch.name, dict(ch.attrs))
            for ch in self.channels
        ]
        for ch in twin.channels:
            twin._out_map[(ch.src.unit, ch.src.index)] = ch
            twin._in_map[(ch.dst.unit, ch.dst.index)] = ch
        twin._name_counters = dict(self._name_counters)
        return twin

    def _check_port(self, unit: Unit, port: int, limit: int, kind: str) -> None:
        if unit.name not in self.units:
            raise CircuitError(f"unit {unit.name!r} not in circuit {self.name!r}")
        if not 0 <= port < limit:
            raise CircuitError(
                f"{kind} port {port} out of range for {unit.describe()} "
                f"(has {limit})"
            )

    # -------------------------------------------------------------- accessors
    def unit(self, name: str) -> Unit:
        try:
            return self.units[name]
        except KeyError:
            raise CircuitError(f"no unit named {name!r}") from None

    def out_channel(self, unit: Unit, port: int) -> Optional[Channel]:
        return self._out_map.get((unit.name, port))

    def in_channel(self, unit: Unit, port: int) -> Optional[Channel]:
        return self._in_map.get((unit.name, port))

    def out_channels(self, unit: Unit) -> List[Channel]:
        return [
            self._out_map[(unit.name, i)]
            for i in range(unit.n_out)
            if (unit.name, i) in self._out_map
        ]

    def in_channels(self, unit: Unit) -> List[Channel]:
        return [
            self._in_map[(unit.name, i)]
            for i in range(unit.n_in)
            if (unit.name, i) in self._in_map
        ]

    def channel_tokens(self, ch: Channel) -> int:
        """Tokens ``ch`` holds at reset: a credit counter's grant carries
        the counter's ``initial`` credits, which are stored nowhere else;
        any other channel its ``tokens`` annotation (loop backedges)."""
        src = self.units[ch.src.unit]
        if isinstance(src, CreditCounter):
            return src.initial
        return int(ch.attrs.get("tokens", 0))

    def successors(self, unit: Unit) -> List[Unit]:
        return [self.units[ch.dst.unit] for ch in self.out_channels(unit)]

    def predecessors(self, unit: Unit) -> List[Unit]:
        return [self.units[ch.src.unit] for ch in self.in_channels(unit)]

    def units_of_type(self, cls) -> List[Unit]:
        return [u for u in self.units.values() if isinstance(u, cls)]

    # -------------------------------------------------------------- rewiring
    def disconnect(self, ch: Channel) -> None:
        """Remove a channel; both endpoint ports become free."""
        self.channels.remove(ch)
        self._out_map.pop((ch.src.unit, ch.src.index), None)
        self._in_map.pop((ch.dst.unit, ch.dst.index), None)

    def redirect_dst(self, ch: Channel, dst: Unit, dst_port: int) -> Channel:
        """Re-point a channel's consumer end to a different input port."""
        self._check_port(dst, dst_port, dst.n_in, "input")
        dkey = (dst.name, dst_port)
        if dkey in self._in_map:
            raise CircuitError(f"input port {dst.name}[{dst_port}] already driven")
        self._in_map.pop((ch.dst.unit, ch.dst.index), None)
        ch.dst = PortRef(dst.name, dst_port)
        self._in_map[dkey] = ch
        return ch

    def redirect_src(self, ch: Channel, src: Unit, src_port: int) -> Channel:
        """Re-point a channel's producer end to a different output port."""
        self._check_port(src, src_port, src.n_out, "output")
        skey = (src.name, src_port)
        if skey in self._out_map:
            raise CircuitError(f"output port {src.name}[{src_port}] already drives")
        self._out_map.pop((ch.src.unit, ch.src.index), None)
        ch.src = PortRef(src.name, src_port)
        self._out_map[skey] = ch
        return ch

    def remove_unit(self, unit: Unit) -> None:
        """Remove a unit; all its ports must already be disconnected."""
        for i in range(unit.n_in):
            if (unit.name, i) in self._in_map:
                raise CircuitError(f"{unit.name} input {i} still connected")
        for i in range(unit.n_out):
            if (unit.name, i) in self._out_map:
                raise CircuitError(f"{unit.name} output {i} still connected")
        del self.units[unit.name]

    # ------------------------------------------------------------- validation
    def port_problems(self) -> List[Tuple[str, Optional[str], Optional[str]]]:
        """``(message, unit, channel)`` for every port not connected
        exactly once: an undriven input, an unconsumed output, or a
        channel naming a unit the circuit lacks (then ``unit`` is None and
        ``channel`` is its label)."""
        problems: List[Tuple[str, Optional[str], Optional[str]]] = []
        for u in self.units.values():
            for i in range(u.n_in):
                if (u.name, i) not in self._in_map:
                    problems.append((
                        f"{u.describe()}: input port {i} "
                        f"({u.in_port_name(i)!r}) is undriven",
                        u.name, None,
                    ))
            for i in range(u.n_out):
                if (u.name, i) not in self._out_map:
                    problems.append((
                        f"{u.describe()}: output port {i} "
                        f"({u.out_port_name(i)!r}) is unconsumed",
                        u.name, None,
                    ))
        for ch in self.channels:
            for end, nm in (("source", ch.src.unit),
                            ("destination", ch.dst.unit)):
                if nm not in self.units:
                    problems.append((
                        f"channel {ch.label()} references missing {end} "
                        f"unit {nm!r}",
                        None, ch.label(),
                    ))
        return problems

    def validate(self) -> None:
        """Raise :class:`CircuitError` listing :meth:`port_problems`."""
        problems = [message for message, _, _ in self.port_problems()]
        if problems:
            raise CircuitError(
                f"circuit {self.name!r} is malformed:\n  " + "\n  ".join(problems)
            )

    # ------------------------------------------------------------- graph view
    def fingerprint(self) -> Optional[str]:
        """SHA-256 hex digest of everything a simulation of this circuit
        can read, or ``None`` when some attribute has no canonical form.

        It covers every unit in ``units`` order (its type's module and
        qualname, its name and every instance attribute but ``meta``,
        which no simulator reads) and every channel in ``channels`` order
        (cid, endpoints, width, name, attrs).  Equal fingerprints mean
        equal circuits; an attribute of an unknown type gives ``None``
        rather than a key that might conflate two circuits.
        """
        digest = hashlib.sha256()
        try:
            for unit in self.units.values():
                kind = type(unit)
                attrs = sorted(
                    f"{k}={_canonical(v)}"
                    for k, v in vars(unit).items() if k != "meta"
                )
                digest.update(
                    f"U{kind.__module__}.{kind.__qualname__}"
                    f"|{unit.name!r}|{';'.join(attrs)}\n".encode()
                )
            for ch in self.channels:
                digest.update(
                    f"C{ch.cid}|{ch.src.unit!r}:{ch.src.index}"
                    f"|{ch.dst.unit!r}:{ch.dst.index}|{ch.width}"
                    f"|{ch.name!r}|{_canonical(ch.attrs)}\n".encode()
                )
        except _Unkeyable:
            return None
        return digest.hexdigest()

    def stats(self) -> Dict[str, int]:
        """Unit-count statistics by type name (used in reports and tests)."""
        counts: Dict[str, int] = {}
        for u in self.units.values():
            key = type(u).__name__
            counts[key] = counts.get(key, 0) + 1
        counts["_units"] = len(self.units)
        counts["_channels"] = len(self.channels)
        return counts

    def __len__(self):
        return len(self.units)

    def __contains__(self, name: str):
        return name in self.units
