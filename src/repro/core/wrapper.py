"""Construction of the credit-based sharing wrapper (paper Fig. 3, Sec. 4.3).

Given a sharing group ``G = {op_1 .. op_|G|}`` of same-type functional
units, the wrapper replaces them with:

* per operation: a ``Join_i`` synchronizing op_i's operands with a credit
  from its ``CreditCounter CC_i`` (``N_CC,i`` initial credits),
* a priority **arbiter merge** selecting which ready operation issues
  (out-of-order across operations; never blocked by an absent request),
* one **shared unit** executing the selected operand bundle,
* a **condition buffer** remembering issue order so the **branch** (demux)
  steers each result to the right operation's **output buffer** ``OB_i``
  (``N_OB,i`` slots),
* per operation: a **lazy fork** that releases the result to the original
  successor and *simultaneously* returns the credit to ``CC_i`` — lazily,
  so a credit is never returned before the OB slot is actually freed.

Deadlock freedom rests on Equation 1, ``N_CC,i <= N_OB,i``: every token the
shared unit holds is guaranteed a free slot in its destination output
buffer, so the head of the line can never stall (no head-of-line blocking),
and the priority arbiter never lets a missing request starve a present one.

``arbitration="inorder"`` builds the same priority arbiter for the In-order
baseline and tags it ``order_state``: its total-order controller tracks the
grant sequence in registers, which the resource model costs.
``arbitration="fixed"`` swaps the priority arbiter for a strict cyclic-order
controller — the scheme of the paper's Figure 1d — used to demonstrate
order-induced deadlock and to model the prior work's behaviour.

Each counter's credit count is stored once, as its ``initial``; the
analyses read a grant edge's circulating tokens from there.

The returned :class:`SharingWrapper` is the one description of a shared
group: the units built, the decisions they were built from, and the
decision-time facts the sharing pass adds (Algorithm 2's must-precede
pairs, rule R2's group load).  The lint audit, the token-flow analyzer,
Equation 2's wrapper cost and output-buffer elision all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import (
    ArbiterMerge,
    CreditCounter,
    DataflowCircuit,
    Demux,
    ElasticBuffer,
    FixedOrderMerge,
    FunctionalUnit,
    Join,
    LazyFork,
    TransparentFifo,
)
from ..errors import SharingError


@dataclass
class SharingWrapper:
    """One shared group: the wrapper units built and what they were
    built from.

    Slot ``i`` pairs ``group[i]`` with ``joins[i]``, ``credit_counters[i]``,
    ``output_buffers[i]`` and ``lazy_forks[i]``; an output buffer removed by
    elision leaves ``""`` in its slot, which then ends at its lazy fork.
    A wrapper recovered from the circuit's tags alone names its units
    only: its ``group``, ``op_type``, ``arbitration`` and decisions are
    empty.
    """

    group: List[str]
    op_type: str
    shared_unit: str
    arbiter: str
    cond_buffer: str
    branch: str
    joins: List[str]
    #: Empty for the naive (uncredited) wrapper.
    credit_counters: List[str]
    output_buffers: List[str]
    lazy_forks: List[str]
    credits: Dict[str, int]
    ob_slots: Dict[str, int]
    arbitration: str = "priority"
    #: The ``meta["wrapper"]`` tag of every unit of this wrapper.
    base: str = ""
    #: The decided access order, highest priority first (Algorithm 2).
    priority: List[str] = field(default_factory=list)
    #: Algorithm 2's must-precede ``(producer, consumer)`` pairs, recorded
    #: by the sharing pass before the rewrite removed the grouped units.
    order_constraints: List[Tuple[str, str]] = field(default_factory=list)
    #: Worst-case (max over CFCs) summed occupancy of the group — rule
    #: R2's left-hand side; None when no sharing pass decided the group.
    group_load: Optional[Fraction] = None

    @property
    def size(self) -> int:
        return len(self.joins)

    @property
    def credited(self) -> bool:
        return bool(self.credit_counters)

    def core_units(self) -> List[str]:
        """The interior units every slot shares."""
        return [self.arbiter, self.shared_unit, self.cond_buffer, self.branch]

    def all_unit_names(self) -> List[str]:
        """Every unit of the wrapper, elided output buffers left out."""
        slots = self.joins + self.credit_counters + self.output_buffers
        return [n for n in self.core_units() + slots + self.lazy_forks if n]

    def op_name(self, i: int) -> str:
        """Original operation of slot ``i`` (``""`` when unknown)."""
        return self.group[i] if i < len(self.group) else ""

    def slot_label(self, i: int) -> str:
        return self.op_name(i) or f"{self.base}slot{i}"

    def slot_end(self, i: int) -> str:
        """Where slot ``i``'s result leaves the wrapper: its output
        buffer, or its lazy fork once the buffer is elided."""
        if self.output_buffers[i] or not self.lazy_forks:
            return self.output_buffers[i]
        return self.lazy_forks[i]

    def built_priority(self, circuit: DataflowCircuit) -> Optional[List[str]]:
        """The built arbiter's access order, highest priority first, as
        operation names; None when the arbiter is gone.  A fixed-order
        arbiter ranks each slot by its first grant."""
        arb = circuit.units.get(self.arbiter)
        if isinstance(arb, ArbiterMerge):
            order = arb.priority
        elif isinstance(arb, FixedOrderMerge):
            order = list(dict.fromkeys(arb.order))
        else:
            return None
        return [self.group[i] for i in order if 0 <= i < len(self.group)]


def check_credit_constraint(credits: Dict[str, int], ob_slots: Dict[str, int]) -> None:
    """Enforce Equation 1: ``N_CC,i <= N_OB,i`` for every operation."""
    for op, n_cc in credits.items():
        n_ob = ob_slots[op]
        if n_cc > n_ob:
            raise SharingError(
                f"credit constraint violated for {op!r}: N_CC={n_cc} > "
                f"N_OB={n_ob} (Equation 1) — head-of-line deadlock possible"
            )
        if n_cc < 1:
            raise SharingError(f"{op!r} needs at least one credit")


def insert_sharing_wrapper(
    circuit: DataflowCircuit,
    group: Sequence[str],
    priority: Optional[Sequence[str]] = None,
    credits: Optional[Dict[str, int]] = None,
    ob_slots: Optional[Dict[str, int]] = None,
    arbitration: str = "priority",
    fixed_order: Optional[Sequence[str]] = None,
    use_credits: bool = True,
) -> SharingWrapper:
    """Replace the group's functional units with one credit-based wrapper.

    ``priority`` lists the group's operations highest-priority first
    (default: group order).  ``credits`` maps each operation to ``N_CC``
    (default 1); ``ob_slots`` to ``N_OB`` (default: equal to the credits,
    the paper's Figure 3 configuration).  ``arbitration`` is ``"priority"``
    (CRUSH), ``"inorder"`` (the same arbiter tagged ``order_state``, the
    In-order baseline) or ``"fixed"`` (strict cyclic order following
    ``fixed_order``, default round-robin over ``group``).

    ``use_credits=False`` builds the paper's *naive* wrapper (Figure 1b):
    no credit counters, results drain straight from the output buffers.
    This variant is vulnerable to head-of-line deadlock and exists to
    demonstrate and test exactly that failure.
    """
    group = list(group)
    if len(group) < 2:
        raise SharingError("a sharing group needs at least 2 operations")
    ops: List[FunctionalUnit] = []
    for name in group:
        u = circuit.unit(name)
        if not isinstance(u, FunctionalUnit) or u.bundled:
            raise SharingError(f"{name!r} is not a shareable functional unit")
        ops.append(u)
    op_type = ops[0].op
    latency = ops[0].latency
    n_operands = ops[0].n_in
    for u in ops[1:]:
        if u.op != op_type or u.latency != latency:
            raise SharingError(
                f"group mixes operation types: {ops[0].describe()} vs "
                f"{u.describe()} (rule R1)"
            )

    credits = {name: int((credits or {}).get(name, 1)) for name in group}
    if ob_slots is None:
        ob_slots = dict(credits)
    else:
        ob_slots = {name: int(ob_slots.get(name, credits[name])) for name in group}
    if use_credits:
        check_credit_constraint(credits, ob_slots)

    if priority is None:
        priority = list(group)
    if sorted(priority) != sorted(group):
        raise SharingError("priority must be a permutation of the group")

    base = circuit.fresh_name(f"shr_{op_type}_")
    n = len(group)

    # --- per-operation front end: Join_i + CC_i ----------------------------
    joins: List[Join] = []
    ccs: List[CreditCounter] = []
    for i, (name, u) in enumerate(zip(group, ops)):
        extra = 1 if use_credits else 0
        join = circuit.add(
            Join(f"{base}join{i}", n_operands + extra, data_mode="tuple", n_bundle=n_operands)
        )
        for p in range(n_operands):
            ch = circuit.in_channel(u, p)
            if ch is None:
                raise SharingError(f"{name!r} operand {p} is unconnected")
            circuit.redirect_dst(ch, join, p)
        if use_credits:
            cc = circuit.add(CreditCounter(f"{base}cc{i}", credits[name]))
            circuit.connect(cc, 0, join, n_operands, width=0)
            ccs.append(cc)
        joins.append(join)

    # --- arbiter, shared unit, condition buffer, branch --------------------
    if arbitration in ("priority", "inorder"):
        prio_idx = [group.index(nm) for nm in priority]
        arb = circuit.add(ArbiterMerge(f"{base}arb", n, priority=prio_idx))
        if arbitration == "inorder":
            arb.meta["order_state"] = True
    elif arbitration == "fixed":
        order = list(fixed_order) if fixed_order is not None else list(group)
        order_idx = [group.index(nm) for nm in order]
        arb = circuit.add(FixedOrderMerge(f"{base}arb", n, order=order_idx))
    else:
        raise SharingError(f"unknown arbitration scheme {arbitration!r}")

    shared = circuit.add(
        FunctionalUnit(
            f"{base}unit", op_type, bundled=True, latency_override=latency
        )
    )
    # The condition buffer must hold one entry per in-flight computation:
    # with credits that is bounded by the total credit count; the naive
    # wrapper has no such bound, so it gets pipeline-depth + buffering
    # capacity.  It is a *registered* FIFO: the issue index always arrives
    # ahead of the multi-cycle shared-unit result, so the register costs no
    # latency on the result path while keeping the arbiter→branch index
    # path off the critical combinational chain.
    if use_credits:
        cond_slots = max(2, sum(credits.values()))
    else:
        cond_slots = max(2, latency) + sum(ob_slots.values())
    cond = circuit.add(
        ElasticBuffer(
            f"{base}cond", slots=cond_slots, width_hint=max(1, (n - 1).bit_length())
        )
    )
    demux = circuit.add(Demux(f"{base}branch", n))

    for i, join in enumerate(joins):
        circuit.connect(join, 0, arb, i)
    circuit.connect(arb, 0, shared, 0)
    circuit.connect(arb, 1, cond, 0, width=max(1, n.bit_length()))
    circuit.connect(cond, 0, demux, 0, width=max(1, n.bit_length()))
    circuit.connect(shared, 0, demux, 1)

    # --- per-operation back end: OB_i + lazy fork + credit return ----------
    obs: List[TransparentFifo] = []
    lfs: List[LazyFork] = []
    for i, (name, u) in enumerate(zip(group, ops)):
        ob = circuit.add(TransparentFifo(f"{base}ob{i}", slots=ob_slots[name]))
        circuit.connect(demux, i, ob, 0)
        out_ch = circuit.out_channel(u, 0)
        if out_ch is None:
            raise SharingError(f"{name!r} output is unconnected")
        if use_credits:
            lf = circuit.add(LazyFork(f"{base}lf{i}", 2))
            circuit.connect(ob, 0, lf, 0)
            circuit.redirect_src(out_ch, lf, 0)
            circuit.connect(lf, 1, ccs[i], 0, width=0)
            lfs.append(lf)
        else:
            circuit.redirect_src(out_ch, ob, 0)
        obs.append(ob)

    # --- retire the original units ------------------------------------------
    for u in ops:
        circuit.remove_unit(u)

    wrapper = SharingWrapper(
        group=group,
        op_type=op_type,
        shared_unit=shared.name,
        arbiter=arb.name,
        cond_buffer=cond.name,
        branch=demux.name,
        joins=[j.name for j in joins],
        credit_counters=[c.name for c in ccs],
        output_buffers=[o.name for o in obs],
        lazy_forks=[f.name for f in lfs],
        credits=credits,
        ob_slots=ob_slots,
        arbitration=arbitration,
        base=base,
        priority=list(priority),
    )
    for uname in wrapper.all_unit_names():
        circuit.units[uname].meta["wrapper"] = base
    circuit.validate()
    return wrapper
