"""Runtime handshake-protocol sanitizer (``--sanitize`` / ``REPRO_SIM_SANITIZE``).

Latency-insensitive correctness rests on a per-channel contract that the
engines *assume* but never check:

* **hold** — once a producer asserts ``valid`` it must keep it asserted
  until the transfer is accepted (``valid & ready``);
* **stability** — the data value must not change while ``valid`` is
  pending;
* **conservation** — tokens are neither dropped nor duplicated: lockstep
  units (joins, lazy forks, zero-latency FUs) fire all their ports in the
  same cycle, routing units (branch/demux) fire exactly one output per
  input token, and every stateful unit's final occupancy must equal its
  fire-count imbalance.

This module implements an opt-in observer enforcing that contract on
every channel every cycle, on **both** simulation backends.  It is a pure
observer — it never writes a signal and never perturbs evaluation order —
so a sanitized run is bit-identical (same cycles, same traces) to an
unsanitized one.  Violations are reported as ``repro.lint`` diagnostics
(codes ``SAN001``–``SAN005``) and surfaced as a
:class:`~repro.errors.LintError` at the end of :meth:`BaseEngine.run`.

``SAN005`` is the opt-in *alias* check backing the static
memory-dependence analyzer (:mod:`repro.analysis.memdep`): construct the
sanitizer with ``alias_pairs`` — the (load, store) site pairs the
analyzer proved ``independent`` — and it records every address each
memory port issues, raising the moment two supposedly-independent sites
touch a common cell.  Recording is armed only when ``alias_pairs`` is
passed, so ordinary sanitized runs pay nothing for it; armed or not, the
sanitizer remains a pure observer and runs stay bit-identical.

Components that are *non-persistent* by construction — merges and
arbiters (whose selected input can be displaced before the grant) and
lazy forks (whose output valid combinationally depends on sibling
readiness) — are exempt from the hold/stability assertions, exactly as in
latency-insensitive design practice; conservation still applies to them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from ..circuit import (
    ArbiterMerge,
    Branch,
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
)
from ..errors import LintError
from ..lint.diagnostics import Diagnostic

#: Environment variable enabling the sanitizer for every engine built
#: without an explicit ``sanitize=`` argument.
SANITIZE_ENV = "REPRO_SIM_SANITIZE"

#: Unit types whose outputs are non-persistent (may withdraw valid or
#: switch data before a transfer completes) and therefore exempt from the
#: hold/stability checks.
_NON_PERSISTENT = (Merge, ArbiterMerge, FixedOrderMerge, LazyFork)


def sanitize_default() -> bool:
    """True when ``REPRO_SIM_SANITIZE`` asks for sanitized simulation."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


class HandshakeSanitizer:
    """Per-cycle latency-insensitive contract checker for one circuit.

    The engine calls :meth:`observe` once per simulated cycle at the
    combinational fixpoint (fired flags set, ticks not yet applied), then
    :meth:`finish` once at the end of the run.
    """

    #: Diagnostics kept in full; further violations only bump the count.
    MAX_DIAGNOSTICS = 64

    def __init__(
        self,
        circuit,
        alias_pairs: Optional[
            List[Tuple[str, str, str, str]]
        ] = None,
    ) -> None:
        self.circuit = circuit
        nch = max((ch.cid for ch in circuit.channels), default=-1) + 1
        self._live = sorted(ch.cid for ch in circuit.channels)
        self._label_of: Dict[int, str] = {
            ch.cid: ch.label() for ch in circuit.channels
        }

        #: Per-channel: 1 = valid was pending (asserted, unfired) at the
        #: end of the previous observed cycle and the producer is held to
        #: the persistence contract.
        self._pend = bytearray(nch)
        self._pdata: List = [None] * nch
        #: Per-channel fire counts for the conservation checks.
        self.fire_counts = [0] * nch

        hold = bytearray(nch)
        for ch in circuit.channels:
            src = circuit.units[ch.src.unit]
            hold[ch.cid] = 0 if isinstance(src, _NON_PERSISTENT) else 1
        self._hold = hold

        # Lockstep groups: every listed channel must fire in the same
        # cycle as the others.  Routing groups: when the input channel
        # fires exactly one of the outputs must fire, and no output may
        # fire without the input.
        lockstep: List[Tuple[str, Tuple[int, ...]]] = []
        route: List[Tuple[str, int, Tuple[int, ...]]] = []
        for u in circuit.units.values():
            ins = [
                ch.cid
                for i in range(u.n_in)
                if (ch := circuit.in_channel(u, i)) is not None
            ]
            outs = [
                ch.cid
                for i in range(u.n_out)
                if (ch := circuit.out_channel(u, i)) is not None
            ]
            if isinstance(u, Join):
                lockstep.append((u.name, tuple(ins + outs)))
            elif isinstance(u, LazyFork):
                lockstep.append((u.name, tuple(ins + outs)))
            elif isinstance(u, FunctionalUnit):
                if u.latency == 0:
                    lockstep.append((u.name, tuple(ins + outs)))
                elif len(ins) > 1:
                    lockstep.append((u.name, tuple(ins)))
            elif isinstance(u, (Branch, Demux)):
                if len(ins) == 2:
                    lockstep.append((u.name, tuple(ins)))
                if ins and outs:
                    route.append((u.name, ins[-1], tuple(outs)))
            elif isinstance(u, StorePort) and len(ins) == 2:
                lockstep.append((u.name, tuple(ins)))
        self._lockstep = lockstep
        self._route = route

        # SAN005 alias watching — armed only when ``alias_pairs`` is
        # given (a list of (unit_a, unit_b, array, pair_label) tuples of
        # statically-independent memory-port pairs; unit_a == unit_b
        # marks a self pair, violated by any address hit twice).  When
        # armed, *every* memory port's issued addresses are recorded so
        # measurement bridges can read footprints of unlisted pairs too.
        self._alias_watch = alias_pairs is not None
        self._addr_counts: Dict[str, Dict[int, int]] = {}
        self._alias_channels: List[Tuple[int, str]] = []
        self._alias_rules: Dict[str, List[Tuple[int, str, str, str]]] = {}
        self._alias_seen: List[bool] = []
        if self._alias_watch:
            for u in circuit.units.values():
                if isinstance(u, (LoadPort, StorePort)):
                    ch = circuit.in_channel(u, 0)
                    if ch is not None:
                        self._alias_channels.append((ch.cid, u.name))
                        self._addr_counts[u.name] = {}
            for idx, (ua, ub, array, label) in enumerate(alias_pairs or []):
                self._alias_seen.append(False)
                self._alias_rules.setdefault(ua, []).append(
                    (idx, ub, array, label)
                )
                if ub != ua:
                    self._alias_rules.setdefault(ub, []).append(
                        (idx, ua, array, label)
                    )

        self.diagnostics: List[Diagnostic] = []
        self.violation_count = 0
        self.cycles_checked = 0
        self._finished = False

    # ------------------------------------------------------------- reporting
    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def _emit(
        self,
        code: str,
        message: str,
        unit: Optional[str] = None,
        cid: Optional[int] = None,
        cycle: Optional[int] = None,
    ) -> None:
        self.violation_count += 1
        if len(self.diagnostics) >= self.MAX_DIAGNOSTICS:
            return
        self.diagnostics.append(Diagnostic(
            code=code,
            severity="error",
            message=message,
            unit=unit,
            channel=self._label_of.get(cid) if cid is not None else None,
            source="sanitize",
            cycle=cycle,
        ))

    def addresses_of(self, unit: str) -> Dict[int, int]:
        """Observed ``address -> issue count`` for one memory port.

        Only populated when the sanitizer was armed with
        ``alias_pairs``; empty for unknown / non-memory units.
        """
        return dict(self._addr_counts.get(unit, {}))

    def raise_if_violations(self) -> None:
        """Raise :class:`LintError` when any violation was observed."""
        if self.ok:
            return
        shown = [d.format() for d in self.diagnostics[:8]]
        extra = self.violation_count - len(shown)
        if extra > 0:
            shown.append(f"(+{extra} more violation(s))")
        raise LintError(
            f"handshake sanitizer: {self.violation_count} protocol "
            f"violation(s) in circuit {self.circuit.name!r}:\n  "
            + "\n  ".join(shown),
            diagnostics=self.diagnostics,
        )

    # ------------------------------------------------------------- observing
    def observe(self, cycle, valid, ready, data, fired) -> None:
        """Check one cycle's fixpoint (fired flags set, pre-tick)."""
        pend = self._pend
        pdata = self._pdata
        hold = self._hold
        fires = self.fire_counts
        for c in self._live:
            f = fired[c]
            v = valid[c]
            if f:
                fires[c] += 1
            if pend[c]:
                if not v:
                    self._emit(
                        "SAN001",
                        "valid retracted before acceptance on "
                        f"{self._label_of[c]}",
                        cid=c, cycle=cycle,
                    )
                elif data[c] != pdata[c]:
                    self._emit(
                        "SAN002",
                        f"data changed while valid pending on "
                        f"{self._label_of[c]} "
                        f"({pdata[c]!r} -> {data[c]!r})",
                        cid=c, cycle=cycle,
                    )
            pend[c] = 1 if (v and not f and hold[c]) else 0
            if v:
                pdata[c] = data[c]

        if self._alias_watch:
            for c, uname in self._alias_channels:
                if not fired[c]:
                    continue
                addr = int(data[c])
                counts = self._addr_counts[uname]
                n = counts.get(addr, 0) + 1
                counts[addr] = n
                for idx, other, array, label in self._alias_rules.get(
                    uname, ()
                ):
                    if self._alias_seen[idx]:
                        continue
                    if other == uname:
                        hit = n >= 2
                    else:
                        hit = addr in self._addr_counts.get(other, ())
                    if hit:
                        self._alias_seen[idx] = True
                        self._emit(
                            "SAN005",
                            f"statically-independent pair {label} of "
                            f"array {array!r} aliased at runtime: "
                            f"address {addr} reached both sites",
                            unit=uname, cid=c, cycle=cycle,
                        )

        for name, cids in self._lockstep:
            first = bool(fired[cids[0]])
            for c in cids[1:]:
                if bool(fired[c]) != first:
                    self._emit(
                        "SAN003",
                        f"lockstep unit {name!r} fired only part of its "
                        "ports this cycle (token dropped or duplicated)",
                        unit=name, cid=c, cycle=cycle,
                    )
                    break
        for name, cin, couts in self._route:
            n_out = 0
            for c in couts:
                if fired[c]:
                    n_out += 1
            if fired[cin]:
                if n_out != 1:
                    self._emit(
                        "SAN003",
                        f"routing unit {name!r} fired {n_out} outputs for "
                        "one input token (expected exactly 1)",
                        unit=name, cid=cin, cycle=cycle,
                    )
            elif n_out:
                self._emit(
                    "SAN003",
                    f"routing unit {name!r} fired an output with no input "
                    "token (token duplicated)",
                    unit=name, cid=cin, cycle=cycle,
                )
        self.cycles_checked += 1

    # -------------------------------------------------------------- finishing
    def finish(self) -> None:
        """End-of-run conservation: every stateful unit's occupancy must
        equal its fire-count imbalance."""
        if self._finished:
            return
        self._finished = True
        circuit = self.circuit
        fires = self.fire_counts

        def fin(u, i):
            ch = circuit.in_channel(u, i)
            return fires[ch.cid] if ch is not None else 0

        def fout(u, i):
            ch = circuit.out_channel(u, i)
            return fires[ch.cid] if ch is not None else 0

        def bad(u, expect, got, what):
            self._emit(
                "SAN004",
                f"token conservation broken at {u.describe()}: {what} "
                f"is {got} but fire counts imply {expect}",
                unit=u.name,
            )

        for u in circuit.units.values():
            if isinstance(u, (ElasticBuffer, TransparentFifo)):
                expect = fin(u, 0) - fout(u, 0)
                if len(u._q) != expect:
                    bad(u, expect, len(u._q), "queue occupancy")
            elif isinstance(u, CreditCounter):
                expect = u.initial - (fout(u, 0) - fin(u, 0))
                if u._count != expect:
                    bad(u, expect, u._count, "credit count")
            elif isinstance(u, Sink):
                expect = fin(u, 0)
                if len(u.received) != expect:
                    bad(u, expect, len(u.received), "received count")
            elif isinstance(u, Entry):
                expect = fout(u, 0)
                got = u.count - u._remaining
                if got != expect:
                    bad(u, expect, got, "emitted count")
            elif isinstance(u, Sequence):
                expect = fout(u, 0)
                if u._pos != expect:
                    bad(u, expect, u._pos, "emitted count")
            elif isinstance(u, EagerFork):
                base = fin(u, 0)
                for i in range(u.n_out):
                    expect = base + (1 if u._sent[i] else 0)
                    got = fout(u, i)
                    if got != expect:
                        bad(u, expect, got, f"output {i} fire count")
            elif isinstance(u, (FunctionalUnit, LoadPort, StorePort)):
                if u.latency == 0:
                    continue
                in_flight = sum(1 for st in u._pipe if st is not None)
                expect = fin(u, 0) - fout(u, 0)
                if in_flight != expect:
                    bad(u, expect, in_flight, "pipeline occupancy")
