"""Per-unit-type source emitters for the codegen simulation backend.

Each emitter renders one unit's combinational evaluation (or clock-edge
transition) as straight-line Python statements over *local variables*:
channel ``c``'s forward signal lives in locals ``v{c}``/``d{c}``, its
backward signal in ``r{c}``, and occurrence ``k``'s activation flag in
``a{k}``.  The blocks are exact source-level transcriptions of the
specialized closures in :mod:`repro.sim.compiled` — same driven values,
same change-detection points, same activation semantics — with every
dynamic structure (activation lists, port index loops, priority orders)
unrolled into constants, so the hot loop runs no closure calls, no dict
dispatch and no attribute lookups on the fast path.

Clock-edge blocks run in two passes (see the compiled backend): the
``tk`` pass commits sequential state reading the cycle's pristine
fixpoint — no signal local is written during that pass, so ``fired`` of
channel ``c`` is simply ``(v{c} and r{c})`` and needs no storage — and
the ``pk`` pass recomputes the ticked unit's driven signals with the
usual change detection.  Pipelined units additionally report their carry
flag (can the unit progress without any channel firing?) into the
persistent local ``k{slot}``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

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
)


#: Members per group-activity flag.  The generated loop guards the
#: combinational section and the fire scan hierarchically: ``GROUP``
#: consecutive occurrences (channels) share one ``ga{g}`` (``fg{g}``)
#: flag, set here at every activation (signal write) site, so a fully
#: idle group costs one check instead of ``GROUP``.
GROUP = 8


def _acts(sched, node_acts) -> List[str]:
    """Activation stores for one signal change: static ``a{k} = 1`` lines
    plus the group-activity flags covering them."""
    lines = [f"ga{g} = 1" for g in sorted({k // GROUP for k in node_acts})]
    lines += [f"a{k} = 1" for k in node_acts]
    return lines


def _fire_flag(c) -> str:
    """Fire-scan group flag store for a write to channel ``c``'s signals."""
    return f"fg{c // GROUP} = 1"


def _fwd_change(sched, co) -> List[str]:
    """Standard forward-signal change detection for channel ``co``.

    Assumes the new value/data are in ``nv``/``nd``.
    """
    lines = [f"if v{co} != nv or d{co} != nd:"]
    lines += [f"    v{co} = nv", f"    d{co} = nd", f"    {_fire_flag(co)}"]
    lines += [f"    {s}" for s in _acts(sched, sched.f_act[co])]
    return lines


def _bwd_change(sched, ci) -> List[str]:
    """Standard backward-signal change detection for channel ``ci``.

    Assumes the new ready value is in ``nr``.
    """
    lines = [f"if r{ci} != nr:"]
    lines += [f"    r{ci} = nr", f"    {_fire_flag(ci)}"]
    lines += [f"    {s}" for s in _acts(sched, sched.b_act[ci])]
    return lines


def _miss_scan(chs) -> List[str]:
    """Unrolled count of not-valid inputs into ``miss``/``last``."""
    lines = ["miss = 0", "last = -1"]
    for i, c in enumerate(chs):
        lines += [f"if not v{c}:", "    miss += 1", f"    last = {i}"]
    return lines


def _fu_operands(s: int, u: FunctionalUnit, ics) -> str:
    """Operand-tuple expression for a plain or const-folded FU."""
    if not u.const_ops:
        return "(" + ", ".join(f"d{c}" for c in ics) + ("," if len(ics) == 1 else "") + ")"
    parts = []
    live = 0
    for slot in range(u.spec.n_in):
        if slot in u.const_ops:
            parts.append(f"uc{s}_{slot}")
        else:
            parts.append(f"d{ics[live]}")
            live += 1
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


# ---------------------------------------------------------------------------
# Combinational evaluation blocks (one per occurrence of the unit).
# ---------------------------------------------------------------------------


def eval_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"q = u{s}._q"]
    lines += ["if q:", "    nv = 1", "    nd = q[0]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = len(q) < {u.slots}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"q = u{s}._q"]
    lines += ["if q:", "    nv = 1", "    nd = q[0]",
              "else:", f"    nv = v{ci}",
              f"    nd = d{ci} if nv else None"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = len(q) < {u.slots}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = 1 if u{s}._count > 0 else 0"]
    lines += [f"if v{co} != nv:", f"    v{co} = nv",
              f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"if not r{ci}:", f"    r{ci} = 1", f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def eval_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"nv = 1 if u{s}._remaining > 0 else 0", f"nd = uv{s}"]
    lines += _fwd_change(sched, co)
    return lines


def eval_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"sv = u{s}.values", f"sp = u{s}._pos"]
    lines += ["if sp < len(sv):", "    nv = 1", "    nd = sv[sp]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    return lines


def eval_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"if not r{ci}:", f"    r{ci} = 1", f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def eval_constant(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = v{ci}", f"nd = uv{s}"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = r{co}"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci} if iv else None",
             f"sent = u{s}._sent", "adone = True"]
    for i, co in enumerate(oc):
        lines += [f"nv = iv and not sent[{i}]"]
        lines += _fwd_change(sched, co)
        lines += [f"if not (sent[{i}] or r{co}):", "    adone = False"]
    lines += ["nr = adone"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_lazy_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci} if iv else None",
             "miss = 0", "last = -1"]
    for i, co in enumerate(oc):
        lines += [f"if not r{co}:", "    miss += 1", f"    last = {i}"]
    for i, co in enumerate(oc):
        lines += [
            f"nv = iv and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _fwd_change(sched, co)
    lines += ["nr = miss == 0"]
    lines += _bwd_change(sched, ci)
    return lines


def eval_join(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = _miss_scan(ic)
    if u.data_mode == "tuple":
        bundle = ic[: u.n_bundle]
        tup = ", ".join(f"d{c}" for c in bundle)
        if len(bundle) == 1:
            tup += ","
        data = f"({tup})"
    else:
        data = f"d{ic[0]}"
    lines += ["if miss == 0:", f"    nd = {data}", "    nv = 1",
              "else:", "    nd = None", "    nv = 0"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def eval_merge(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = []
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} v{c}:", f"    sel = {i}", "    nv = 1",
                  f"    nd = d{c}"]
    lines += ["else:", "    sel = -1", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [f"nr = ordy and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_arbiter_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = []
    for j, i in enumerate(u.priority):
        kw = "if" if j == 0 else "elif"
        lines += [f"{kw} v{ic[i]}:", f"    sel = {i}", f"    sd = d{ic[i]}"]
    lines += ["else:", "    sel = -1", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}", "found = sel >= 0"]
    lines += ["nv = found and ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = found and ro0", "nd = sel if found else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def _fom_signals(s, u, ic, oc, sched) -> List[str]:
    """Shared FixedOrderMerge output/ready recompute (eval and pk)."""
    o0, o1 = oc
    lines = [f"sel = u{s}.order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    sv = v{c}", f"    sd = d{c}"]
    lines += ["else:", "    sv = 0", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["nv = sv and ro1", "nd = sd if sv else None"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = sv and ro0", "nd = sel if sv else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i} and sv"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _fom_signals(s, u, ic, oc, sched)


def eval_mux(s, u, ic, oc, sched) -> List[str]:
    cs = ic[0]
    dchs = ic[1:]
    co = oc[0]
    nd = u.n_data
    lines = [f"sv = v{cs}", "sel = -1"]
    lines += ["if sv:", f"    sel = int(d{cs})",
              f"    if not 0 <= sel < {nd}:",
              "        raise CircuitError(",
              f"            \"mux {u.name!r}: select value %d out of range\""
              " % sel)"]
    lines += ["dv = False", "nd = None"]
    for i, c in enumerate(dchs):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    dv = v{c}",
                  f"    nd = d{c} if dv else None"]
    lines += ["if dv:", "    nv = 1", "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}", "nr = ordy and dv"]
    lines += _bwd_change(sched, cs)
    for i, ci in enumerate(dchs):
        lines += [f"nr = ordy and sv and {i} == sel"]
        lines += _bwd_change(sched, ci)
    return lines


def eval_branch(s, u, ic, oc, sched) -> List[str]:
    cc, cd = ic
    ot, of_ = oc
    lines = [f"cv = v{cc}", f"dv = v{cd}", "both = cv and dv", "tgt = -1"]
    lines += ["if cv:", f"    tgt = 0 if d{cc} else 1"]
    lines += [f"nd = d{cd} if dv else None"]
    lines += ["nv = both and tgt == 0"]
    lines += _fwd_change(sched, ot)
    lines += ["nv = both and tgt == 1"]
    lines += _fwd_change(sched, of_)
    lines += ["if tgt == 0:", f"    tr = r{ot}",
              "elif tgt == 1:", f"    tr = r{of_}",
              "else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, cc)
    lines += ["nr = cv and tr"]
    lines += _bwd_change(sched, cd)
    return lines


def eval_demux(s, u, ic, oc, sched) -> List[str]:
    ci0, ci1 = ic
    n = u.n_out
    lines = [f"sv = v{ci0}", f"dv = v{ci1}", "both = sv and dv", "tgt = -1"]
    lines += ["if sv:", f"    tgt = int(d{ci0})",
              f"    if not 0 <= tgt < {n}:",
              "        raise CircuitError(",
              f"            \"demux {u.name!r}: index %d out of range\""
              " % tgt)"]
    lines += [f"nd = d{ci1} if dv else None"]
    for i, co in enumerate(oc):
        lines += [f"nv = both and tgt == {i}"]
        lines += _fwd_change(sched, co)
    for i, co in enumerate(oc):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} tgt == {i}:", f"    tr = r{co}"]
    lines += ["else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, ci0)
    lines += ["nr = sv and tr"]
    lines += _bwd_change(sched, ci1)
    return lines


def _fu_result(s, u, ic) -> str:
    """Expression computing the FU result from the data locals."""
    if u.bundled:
        return f"cp{s}(_t if isinstance(_t, tuple) else (_t,))"
    return f"cp{s}({_fu_operands(s, u, ic)})"


def eval_functional(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    if u.latency == 0:
        lines = _miss_scan(ic)
        lines += ["if miss == 0:", "    nv = 1"]
        if u.bundled:
            lines += [f"    _t = d{ic[0]}"]
        lines += [f"    nd = {_fu_result(s, u, ic)}"]
        lines += ["else:", "    nv = 0", "    nd = None"]
        lines += _fwd_change(sched, co)
        lines += [f"ordy = r{co}"]
        for i, ci in enumerate(ic):
            lines += [
                f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
            ]
            lines += _bwd_change(sched, ci)
        return lines

    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", "    nd = head[0]",
              f"    adv = r{co}",
              "else:", "    nv = 0", "    nd = None", "    adv = True"]
    lines += _fwd_change(sched, co)
    lines += _miss_scan(ic)
    for i, ci in enumerate(ic):
        lines += [
            f"nr = adv and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def eval_load_port(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", "    nd = head[0]",
              f"    nr = r{co}",
              "else:", "    nv = 0", "    nd = None", "    nr = True"]
    lines += _fwd_change(sched, co)
    lines += _bwd_change(sched, ci)
    return lines


def eval_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    co = oc[0]
    lines = [f"head = u{s}._pipe[-1]"]
    lines += ["if head is not None:", "    nv = 1", f"    adv = r{co}",
              "else:", "    nv = 0", "    adv = True"]
    lines += [f"if v{co} != nv or d{co} is not None:",
              f"    v{co} = nv", f"    d{co} = None", f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"av = v{ca}", f"dv = v{cd}"]
    lines += ["nr = adv and dv"]
    lines += _bwd_change(sched, ca)
    lines += ["nr = adv and av"]
    lines += _bwd_change(sched, cd)
    return lines


# ---------------------------------------------------------------------------
# Clock-edge blocks.  ``tk`` commits state against the pristine fixpoint
# (channel c fired iff ``v{c} and r{c}``; no signal local is written in
# this pass); ``pk`` recomputes the unit's driven signals and, for
# pipelined units, refreshes the persistent carry flag ``k{slot}``.
# ---------------------------------------------------------------------------


def tick_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    return [
        f"q = u{s}._q",
        f"if v{co} and r{co}:",
        "    q.popleft()",
        f"if v{ci} and r{ci}:",
        f"    q.append(d{ci})",
    ]


def tick_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    return [
        f"q = u{s}._q",
        "if q:",
        f"    if v{co} and r{co}:",
        "        q.popleft()",
        f"    if v{ci} and r{ci}:",
        f"        q.append(d{ci})",
        f"elif (v{ci} and r{ci}) and not (v{co} and r{co}):",
        f"    q.append(d{ci})",
    ]


def tick_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    initial = u.initial
    return [
        f"c_ = u{s}._count",
        f"if v{co} and r{co}:",
        "    c_ -= 1",
        f"if v{ci} and r{ci}:",
        "    c_ += 1",
        f"u{s}._count = c_",
        f"if not 0 <= c_ <= {initial}:",
        "    raise CircuitError(",
        f"        \"credit counter {u.name!r}: count %d escaped \"",
        f"        \"[0, {initial}] -- more credits returned than granted\""
        " % c_)",
    ]


def tick_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    return [f"if v{co} and r{co}:", f"    u{s}._remaining -= 1"]


def tick_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    return [f"if v{co} and r{co}:", f"    u{s}._pos += 1"]


def tick_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    return [f"if v{ci} and r{ci}:", f"    u{s}.received.append(d{ci})"]


def tick_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"sent = u{s}._sent", f"if v{ci} and r{ci}:"]
    lines += [f"    sent[{i}] = False" for i in range(u.n_out)]
    lines += ["else:"]
    for i, co in enumerate(oc):
        lines += [f"    if v{co} and r{co}:", f"        sent[{i}] = True"]
    return lines


def tick_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    lines = [f"order = u{s}.order", f"sel = order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    fsel = v{c} and r{c}"]
    lines += ["else:", "    fsel = False"]
    lines += ["if fsel:", f"    u{s}._pos = (u{s}._pos + 1) % len(order)"]
    return lines


def _pipe_shift(s, u, ic, oc, sched, new_lines) -> List[str]:
    """Shared stall-or-shift skeleton for pipelined units.

    ``new_lines`` computes ``new`` from the fired input(s); the shift
    rebinds ``_pipe`` exactly like the other two backends do.
    """
    co = oc[0]
    lines = [f"pipe = u{s}._pipe"]
    lines += [f"if pipe[-1] is not None and not (v{co} and r{co}):",
              f"    adv{s} = 0",
              "else:",
              f"    adv{s} = 1"]
    lines += [f"    {x}" for x in new_lines]
    lines += [f"    u{s}._pipe = [new] + pipe[:-1]"]
    return lines


def tick_functional(s, u, ic, oc, sched) -> List[str]:
    ci0 = ic[0]
    if u.bundled:
        new_lines = [
            f"if v{ci0} and r{ci0}:",
            f"    _t = d{ci0}",
            f"    new = ({_fu_result(s, u, ic)},)",
            "else:",
            "    new = None",
        ]
    else:
        new_lines = [
            f"if v{ci0} and r{ci0}:",
            f"    new = ({_fu_result(s, u, ic)},)",
            "else:",
            "    new = None",
        ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def tick_load_port(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    new_lines = [
        f"if v{ci} and r{ci}:",
        f"    new = (mrd({u.array!r}, int(d{ci})),)",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def tick_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    new_lines = [
        f"if v{ca} and r{ca}:",
        f"    mwr({u.array!r}, int(d{ca}), d{cd})",
        "    new = True",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def _carry_refresh(s) -> List[str]:
    """Post-recompute carry flag refresh for a pipelined unit."""
    return [
        f"if u{s}._pipe[-1] is not None:",
        f"    k{s} = 0",
        "else:",
        f"    k{s} = 0",
        f"    for st_ in u{s}._pipe:",
        "        if st_ is not None:",
        f"            k{s} = 1",
        "            break",
    ]


def post_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    return eval_elastic_buffer(s, u, ic, oc, sched)


def post_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    return eval_transparent_fifo(s, u, ic, oc, sched)


def post_credit_counter(s, u, ic, oc, sched) -> List[str]:
    return eval_credit_counter(s, u, ic, oc, sched)


def post_entry(s, u, ic, oc, sched) -> List[str]:
    return eval_entry(s, u, ic, oc, sched)


def post_sequence(s, u, ic, oc, sched) -> List[str]:
    return eval_sequence(s, u, ic, oc, sched)


def post_sink(s, u, ic, oc, sched) -> List[str]:
    return eval_sink(s, u, ic, oc, sched)


def post_eager_fork(s, u, ic, oc, sched) -> List[str]:
    return eval_eager_fork(s, u, ic, oc, sched)


def post_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _fom_signals(s, u, ic, oc, sched)


def _stall_guarded(s, body) -> List[str]:
    """Skip the recompute when the apply pass stalled (head blocked)."""
    lines = [f"if adv{s}:"]
    lines += [f"    {x}" for x in body]
    lines += ["else:", f"    k{s} = 0"]
    return lines


def post_functional(s, u, ic, oc, sched) -> List[str]:
    body = eval_functional(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


def post_load_port(s, u, ic, oc, sched) -> List[str]:
    body = eval_load_port(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


def post_store_port(s, u, ic, oc, sched) -> List[str]:
    body = eval_store_port(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


# ---------------------------------------------------------------------------
# Laned (batched) block variants.
#
# The lane-parallel generator (``generate_source(..., lanes=True)``) keeps
# every *control* signal scalar — one shared valid/ready bit per channel,
# exactly as above — and widens only the *data* signals: a valid channel's
# ``d{c}`` local holds a tuple of ``LB`` per-lane values (lane index =
# dataset), an invalid channel's stays ``None``.  Under the lockstep
# assumption (all lanes make the same control decisions every cycle) the
# scalar emitters above are already lane-correct for every unit whose
# logic only moves data around: queues hold lane tuples, change detection
# compares them, sinks append them.  Only four kinds of sites need laned
# overrides, collected here:
#
# * **data entering control** (Branch condition, Mux/Demux select): the
#   per-lane values must agree in effect; a disagreement raises
#   :class:`~repro.errors.LaneDivergence`, which the batched engine turns
#   into a bit-exact per-lane scalar re-execution.
# * **scalar data sources** (Sequence values, ArbiterMerge/FixedOrderMerge
#   select outputs): broadcast to lane tuples via constants prepared in
#   the generated prologue (``usq{s}``/``lsel{s}``; ``uv{s}`` is simply
#   *bound* as a tuple, so Entry/Constant reuse the scalar emitters).
# * **per-lane computation** (FunctionalUnit results, LoadPort reads,
#   StorePort writes): mapped across the lane tuples, with loads/stores
#   dispatched through the per-lane ``mrd``/``mwr`` method lists.
# * **tuple-mode Join**: per-lane operand bundles are ``zip``s of the
#   input lane tuples.
# ---------------------------------------------------------------------------


def _lane_fu_compute(s, u, ic) -> List[str]:
    """Statements leaving the per-lane FU results tuple in ``nd``."""
    if u.bundled:
        return [
            f"nd = tuple(cp{s}(_t if isinstance(_t, tuple) else (_t,))"
            f" for _t in d{ic[0]})"
        ]
    if not u.const_ops:
        args = ", ".join(f"d{c}" for c in ic)
        return [f"nd = tuple(map(cp{s}, zip({args})))"]
    parts = []
    live = 0
    for slot in range(u.spec.n_in):
        if slot in u.const_ops:
            parts.append(f"uc{s}_{slot}")
        else:
            parts.append(f"_o[{live}]")
            live += 1
    tup = ", ".join(parts) + ("," if len(parts) == 1 else "")
    if live == 0:
        return [f"_r = cp{s}(({tup}))", "nd = (_r,) * LB"]
    args = ", ".join(f"d{c}" for c in ic)
    return [f"nd = tuple(cp{s}(({tup})) for _o in zip({args}))"]


def lane_eval_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"sv = usq{s}", f"sp = u{s}._pos"]
    lines += ["if sp < len(sv):", "    nv = 1", "    nd = sv[sp]",
              "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    return lines


def lane_eval_join(s, u, ic, oc, sched) -> List[str]:
    if u.data_mode != "tuple":
        return eval_join(s, u, ic, oc, sched)
    co = oc[0]
    lines = _miss_scan(ic)
    bundle = ic[: u.n_bundle]
    args = ", ".join(f"d{c}" for c in bundle)
    lines += ["if miss == 0:", f"    nd = tuple(zip({args}))", "    nv = 1",
              "else:", "    nd = None", "    nv = 0"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_arbiter_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = []
    for j, i in enumerate(u.priority):
        kw = "if" if j == 0 else "elif"
        lines += [f"{kw} v{ic[i]}:", f"    sel = {i}", f"    sd = d{ic[i]}"]
    lines += ["else:", "    sel = -1", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}", "found = sel >= 0"]
    lines += ["nv = found and ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = found and ro0", f"nd = lsel{s}[sel] if found else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i}"]
        lines += _bwd_change(sched, ci)
    return lines


def _lane_fom_signals(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    lines = [f"sel = u{s}.order[u{s}._pos]"]
    for i, c in enumerate(ic):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    sv = v{c}", f"    sd = d{c}"]
    lines += ["else:", "    sv = 0", "    sd = None"]
    lines += [f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["nv = sv and ro1", "nd = sd if sv else None"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = sv and ro0", f"nd = lsel{s}[sel] if sv else None"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 and ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g and sel == {i} and sv"]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _lane_fom_signals(s, u, ic, oc, sched)


def lane_eval_mux(s, u, ic, oc, sched) -> List[str]:
    cs = ic[0]
    dchs = ic[1:]
    co = oc[0]
    n = u.n_data
    lines = [f"sv = v{cs}", "sel = -1"]
    lines += [
        "if sv:",
        f"    _x = d{cs}",
        "    sel = int(_x[0])",
        # Fast path: one C-speed scan when all lanes carry the same
        # object/value (the overwhelmingly common lockstep case).
        "    if _x.count(_x[0]) != len(_x):",
        "        for _y in _x:",
        "            if int(_y) != sel:",
        f"                raise LaneDivergence({u.name + '.sel'!r}, _x)",
        f"    if not 0 <= sel < {n}:",
        "        raise CircuitError(",
        f"            \"mux {u.name!r}: select value %d out of range\""
        " % sel)",
    ]
    lines += ["dv = False", "nd = None"]
    for i, c in enumerate(dchs):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} sel == {i}:", f"    dv = v{c}",
                  f"    nd = d{c} if dv else None"]
    lines += ["if dv:", "    nv = 1", "else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}", "nr = ordy and dv"]
    lines += _bwd_change(sched, cs)
    for i, ci in enumerate(dchs):
        lines += [f"nr = ordy and sv and {i} == sel"]
        lines += _bwd_change(sched, ci)
    return lines


def lane_eval_branch(s, u, ic, oc, sched) -> List[str]:
    cc, cd = ic
    ot, of_ = oc
    lines = [f"cv = v{cc}", f"dv = v{cd}", "both = cv and dv", "tgt = -1"]
    lines += [
        "if cv:",
        f"    _x = d{cc}",
        "    if _x[0]:",
        "        tgt = 0",
        "        if not all(_x):",
        f"            raise LaneDivergence({u.name + '.cond'!r}, _x)",
        "    else:",
        "        tgt = 1",
        "        if any(_x):",
        f"            raise LaneDivergence({u.name + '.cond'!r}, _x)",
    ]
    lines += [f"nd = d{cd} if dv else None"]
    lines += ["nv = both and tgt == 0"]
    lines += _fwd_change(sched, ot)
    lines += ["nv = both and tgt == 1"]
    lines += _fwd_change(sched, of_)
    lines += ["if tgt == 0:", f"    tr = r{ot}",
              "elif tgt == 1:", f"    tr = r{of_}",
              "else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, cc)
    lines += ["nr = cv and tr"]
    lines += _bwd_change(sched, cd)
    return lines


def lane_eval_demux(s, u, ic, oc, sched) -> List[str]:
    ci0, ci1 = ic
    n = u.n_out
    lines = [f"sv = v{ci0}", f"dv = v{ci1}", "both = sv and dv", "tgt = -1"]
    lines += [
        "if sv:",
        f"    _x = d{ci0}",
        "    tgt = int(_x[0])",
        "    if _x.count(_x[0]) != len(_x):",
        "        for _y in _x:",
        "            if int(_y) != tgt:",
        f"                raise LaneDivergence({u.name + '.index'!r}, _x)",
        f"    if not 0 <= tgt < {n}:",
        "        raise CircuitError(",
        f"            \"demux {u.name!r}: index %d out of range\""
        " % tgt)",
    ]
    lines += [f"nd = d{ci1} if dv else None"]
    for i, co in enumerate(oc):
        lines += [f"nv = both and tgt == {i}"]
        lines += _fwd_change(sched, co)
    for i, co in enumerate(oc):
        kw = "if" if i == 0 else "elif"
        lines += [f"{kw} tgt == {i}:", f"    tr = r{co}"]
    lines += ["else:", "    tr = False"]
    lines += ["nr = dv and tr"]
    lines += _bwd_change(sched, ci0)
    lines += ["nr = sv and tr"]
    lines += _bwd_change(sched, ci1)
    return lines


def lane_eval_functional(s, u, ic, oc, sched) -> List[str]:
    if u.latency != 0:
        # Pipelined eval only moves the head tuple around: lane-agnostic.
        return eval_functional(s, u, ic, oc, sched)
    co = oc[0]
    lines = _miss_scan(ic)
    lines += ["if miss == 0:", "    nv = 1"]
    lines += ["    " + x for x in _lane_fu_compute(s, u, ic)]
    lines += ["else:", "    nv = 0", "    nd = None"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [
            f"nr = ordy and (miss == 0 or (miss == 1 and last == {i}))"
        ]
        lines += _bwd_change(sched, ci)
    return lines


def lane_tick_functional(s, u, ic, oc, sched) -> List[str]:
    ci0 = ic[0]
    new_lines = [f"if v{ci0} and r{ci0}:"]
    new_lines += ["    " + x for x in _lane_fu_compute(s, u, ic)]
    new_lines += ["    new = (nd,)", "else:", "    new = None"]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_tick_load_port(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    new_lines = [
        f"if v{ci} and r{ci}:",
        f"    new = (tuple(_f({u.array!r}, int(_a))"
        f" for _f, _a in zip(mrd, d{ci})),)",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_tick_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    new_lines = [
        f"if v{ca} and r{ca}:",
        f"    for _f, _a, _x in zip(mwr, d{ca}, d{cd}):",
        f"        _f({u.array!r}, int(_a), _x)",
        "    new = True",
        "else:",
        "    new = None",
    ]
    return _pipe_shift(s, u, ic, oc, sched, new_lines)


def lane_post_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    return _lane_fom_signals(s, u, ic, oc, sched)


def lane_post_functional(s, u, ic, oc, sched) -> List[str]:
    body = lane_eval_functional(s, u, ic, oc, sched) + _carry_refresh(s)
    return _stall_guarded(s, body)


#: Combinational block emitters by catalogue type.
EVAL_BLOCKS = {
    ElasticBuffer: eval_elastic_buffer,
    TransparentFifo: eval_transparent_fifo,
    CreditCounter: eval_credit_counter,
    Entry: eval_entry,
    Sequence: eval_sequence,
    Sink: eval_sink,
    Constant: eval_constant,
    EagerFork: eval_eager_fork,
    LazyFork: eval_lazy_fork,
    Join: eval_join,
    Merge: eval_merge,
    ArbiterMerge: eval_arbiter_merge,
    FixedOrderMerge: eval_fixed_order_merge,
    Mux: eval_mux,
    Branch: eval_branch,
    Demux: eval_demux,
    FunctionalUnit: eval_functional,
    LoadPort: eval_load_port,
    StorePort: eval_store_port,
}

#: Clock-edge (apply, post) block emitters by catalogue type.
TICK_BLOCKS = {
    ElasticBuffer: (tick_elastic_buffer, post_elastic_buffer),
    TransparentFifo: (tick_transparent_fifo, post_transparent_fifo),
    CreditCounter: (tick_credit_counter, post_credit_counter),
    Entry: (tick_entry, post_entry),
    Sequence: (tick_sequence, post_sequence),
    Sink: (tick_sink, post_sink),
    EagerFork: (tick_eager_fork, post_eager_fork),
    FixedOrderMerge: (tick_fixed_order_merge, post_fixed_order_merge),
    FunctionalUnit: (tick_functional, post_functional),
    LoadPort: (tick_load_port, post_load_port),
    StorePort: (tick_store_port, post_store_port),
}

#: Pipelined types whose post pass maintains a carry flag ``k{slot}``.
CARRY_TYPES = (FunctionalUnit, LoadPort, StorePort)

#: Laned combinational emitters: scalar blocks are lane-correct for every
#: type not overridden here (control stays scalar; data tuples flow
#: through unchanged).
LANE_EVAL_BLOCKS = dict(EVAL_BLOCKS)
LANE_EVAL_BLOCKS.update({
    Sequence: lane_eval_sequence,
    Join: lane_eval_join,
    ArbiterMerge: lane_eval_arbiter_merge,
    FixedOrderMerge: lane_eval_fixed_order_merge,
    Mux: lane_eval_mux,
    Branch: lane_eval_branch,
    Demux: lane_eval_demux,
    FunctionalUnit: lane_eval_functional,
})

#: Laned clock-edge (apply, post) emitters.  Sequence needs its post
#: overridden too: the scalar post re-reads ``u.values`` (scalar data)
#: where the laned comb pass reads the broadcast ``usq`` tuples.
LANE_TICK_BLOCKS = dict(TICK_BLOCKS)
LANE_TICK_BLOCKS.update({
    Sequence: (tick_sequence, lane_eval_sequence),
    FixedOrderMerge: (tick_fixed_order_merge, lane_post_fixed_order_merge),
    FunctionalUnit: (lane_tick_functional, lane_post_functional),
    LoadPort: (lane_tick_load_port, post_load_port),
    StorePort: (lane_tick_store_port, post_store_port),
})


# ---------------------------------------------------------------------------
# Mask-lane (MIMD) block variants.
#
# After the first data→control divergence the batched engine *promotes*
# the whole pass from lockstep to mask mode (``make_mask_loop`` in the
# same generated module) instead of falling back to scalar.  The signal
# representation changes:
#
# * every 1-bit control signal — ``v{c}``, ``r{c}``, fire bits — becomes
#   a **lane bitmask integer** (bit ``l`` = lane ``l``), so control
#   algebra is pure bitwise arithmetic on big ints (``nv = va & vb``,
#   ``sf = (sf | fired) & ~fi``, ...);
# * every data local is **always** a full-width lane tuple (``ztup``,
#   a shared ``(None,) * LB``, stands in where no lane is valid); a
#   lane's slot is meaningful only where the channel's valid bit is set;
# * per-unit sequential state is **per lane**: queues are lists of
#   ``LB`` deques, counters lists of ``LB`` ints, pipelines lists of
#   ``LB`` stage lists — held in per-slot dicts (``rt._mstate``) built
#   by :func:`mask_state` at promotion, with derived occupancy *masks*
#   (``qn``/``qf``/``cz``/``env``/``sqv``/``hv``/``kc``/``sf``/``fs``)
#   maintained incrementally so the combinational pass stays bitwise;
# * clock-edge blocks iterate **set bits only** (``_b = _m & -_m``), so
#   per-cycle data work is proportional to the lanes that actually
#   fired, and everything is gated by the ``live`` mask — a lane whose
#   ``done`` predicate held has its bit cleared and coasts with frozen
#   state instead of aborting the batch.
#
# Exactness: in any lane ``l``, the projections of these masks/tuples
# evolve exactly like the scalar engine's signals on that lane's inputs
# (each emitter is the scalar emitter's logic applied lane-wise), so a
# mask-mode batch is bit-identical to B scalar runs — including after a
# mid-cycle promotion, because the combinational pass never mutates unit
# state and re-arming every activation flag recomputes the fixpoint from
# scratch, exactly like engine initialization does.
# ---------------------------------------------------------------------------


def _bitloop(mask_expr: str, body: List[str]) -> List[str]:
    """Iterate the set bits of ``mask_expr``: ``_b`` = bit, ``_i`` = lane."""
    lines = [f"_m = {mask_expr}", "while _m:",
             "    _b = _m & -_m", "    _m &= _m - 1",
             "    _i = _b.bit_length() - 1"]
    lines += ["    " + x for x in body]
    return lines


def _blend_fill(sources) -> List[str]:
    """Fill the preallocated ``_l`` list per (mask_expr, lane_expr)."""
    lines: List[str] = []
    for mask, expr in sources:
        lines += _bitloop(mask, [f"_l[_i] = {expr}"])
    return lines


def _mand(exprs) -> str:
    """Bitwise-AND expression over ``exprs`` (``FULL`` when empty)."""
    return " & ".join(exprs) if exprs else "FULL"


def mask_eval_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = qn{s}", f"nd = tuple(qh{s}) if nv else ztup"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = FULL & ~qf{s}"]
    lines += _bwd_change(sched, ci)
    return lines


def mask_eval_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"_qn = qn{s}", f"nv = _qn | (v{ci} & ~_qn)"]
    # Partial-occupancy blend: start from the denser side (C-speed list
    # copy) and patch only the sparse side's lanes, instead of a
    # per-lane conditional over all LB lanes.
    lines += ["if _qn == 0:", f"    nd = d{ci} if nv else ztup",
              "elif _qn == FULL:", f"    nd = tuple(qh{s})",
              "else:",
              f"    _dc = d{ci}", f"    _qh = qh{s}",
              "    _em = FULL & ~_qn",
              "    if _em.bit_count() <= _qn.bit_count():",
              "        _l = list(_qh)"]
    lines += ["        " + x for x in _bitloop("_em", ["_l[_i] = _dc[_i]"])]
    lines += ["    else:",
              "        _l = list(_dc)"]
    lines += ["        " + x for x in _bitloop("_qn", ["_l[_i] = _qh[_i]"])]
    lines += ["    nd = tuple(_l)"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = FULL & ~qf{s}"]
    lines += _bwd_change(sched, ci)
    return lines


def mask_eval_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = cz{s}"]
    lines += [f"if v{co} != nv:", f"    v{co} = nv", f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"if r{ci} != FULL:", f"    r{ci} = FULL",
              f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def mask_eval_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"nv = env{s}", f"nd = uv{s}"]
    lines += _fwd_change(sched, co)
    return lines


def mask_eval_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"nv = sqv{s}", f"nd = tuple(sqh{s}) if nv else ztup"]
    lines += _fwd_change(sched, co)
    return lines


def mask_eval_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"if r{ci} != FULL:", f"    r{ci} = FULL",
             f"    {_fire_flag(ci)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.b_act[ci])]
    return lines


def mask_eval_constant(s, u, ic, oc, sched) -> List[str]:
    # Pure mask pass-through: the scalar emitter's statements are already
    # lane-exact when v/r are masks and ``uv`` is a broadcast tuple.
    return eval_constant(s, u, ic, oc, sched)


def mask_eval_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci}"]
    for i, co in enumerate(oc):
        lines += [f"nv = iv & ~sf{s}_{i}"]
        lines += _fwd_change(sched, co)
    terms = " & ".join(f"(sf{s}_{i} | r{co})" for i, co in enumerate(oc))
    lines += [f"nr = {terms}"]
    lines += _bwd_change(sched, ci)
    return lines


def mask_eval_lazy_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"iv = v{ci}", f"nd = d{ci}"]
    for i, co in enumerate(oc):
        others = _mand([f"r{c2}" for j, c2 in enumerate(oc) if j != i])
        lines += [f"nv = iv & {others}"]
        lines += _fwd_change(sched, co)
    lines += [f"nr = {_mand([f'r{c2}' for c2 in oc])}"]
    lines += _bwd_change(sched, ci)
    return lines


def mask_eval_join(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = [f"av = {_mand([f'v{c}' for c in ic])}"]
    if u.data_mode == "tuple":
        args = ", ".join(f"d{c}" for c in ic[: u.n_bundle])
        lines += ["if av:", f"    nd = tuple(zip({args}))",
                  "else:", "    nd = ztup"]
    else:
        lines += [f"nd = d{ic[0]}"]
    lines += ["nv = av"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        others = [f"v{c}" for j, c in enumerate(ic) if j != i]
        lines += [f"nr = {_mand(['ordy'] + others)}"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_merge(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    lines = ["_t = 0"]
    for i, c in enumerate(ic):
        lines += [f"p{i} = v{c} & ~_t", f"_t |= v{c}"]
    lines += ["nv = _t"]
    lines += ["if nv == p0:", f"    nd = d{ic[0]} if nv else ztup",
              "else:", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"p{i}", f"d{c}[_i]") for i, c in enumerate(ic)]
    )]
    lines += ["    nd = tuple(_l)"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}"]
    for i, ci in enumerate(ic):
        lines += [f"nr = ordy & p{i}"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_arbiter_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    first = u.priority[0]
    lines = ["_t = 0"]
    for i in u.priority:
        lines += [f"p{i} = v{ic[i]} & ~_t", f"_t |= v{ic[i]}"]
    lines += ["found = _t", f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["if found == 0:", "    sd = ztup", "    si = ztup",
              f"elif p{first} == found:", f"    sd = d{ic[first]}",
              f"    si = lsel{s}[{first}]",
              "else:", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"p{i}", f"d{ic[i]}[_i]") for i in range(u.n_in)]
    )]
    lines += ["    sd = tuple(_l)", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"p{i}", str(i)) for i in range(u.n_in)]
    )]
    lines += ["    si = tuple(_l)"]
    lines += ["nv = found & ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = found & ro0", "nd = si"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 & ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g & p{i}"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    o0, o1 = oc
    terms = " | ".join(
        f"(fs{s}_{i} & v{c})" for i, c in enumerate(ic)
    )
    lines = [f"sv = {terms}", f"ro0 = r{o0}", f"ro1 = r{o1}"]
    lines += ["if sv == 0:", "    sd = ztup", "    si = ztup"]
    for i, c in enumerate(ic):
        lines += [f"elif fs{s}_{i} == FULL:", f"    sd = d{c}",
                  f"    si = lsel{s}[{i}]"]
    lines += ["else:", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"fs{s}_{i} & sv", f"d{c}[_i]") for i, c in enumerate(ic)]
    )]
    lines += ["    sd = tuple(_l)", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"fs{s}_{i} & sv", str(i)) for i in range(u.n_in)]
    )]
    lines += ["    si = tuple(_l)"]
    lines += ["nv = sv & ro1", "nd = sd"]
    lines += _fwd_change(sched, o0)
    lines += ["nv = sv & ro0", "nd = si"]
    lines += _fwd_change(sched, o1)
    lines += ["g = ro0 & ro1"]
    for i, ci in enumerate(ic):
        lines += [f"nr = g & fs{s}_{i} & v{ci}"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_mux(s, u, ic, oc, sched) -> List[str]:
    cs = ic[0]
    dchs = ic[1:]
    co = oc[0]
    n = u.n_data
    lines = [f"svm = v{cs}", f"_sm = [0] * {n}"]
    scan = _bitloop("svm", [
        "_j = int(_x[_i])",
        f"if not 0 <= _j < {n}:",
        "    raise CircuitError(",
        f"        \"mux {u.name!r}: select value %d out of range\" % _j)",
        "_sm[_j] |= _b",
    ])
    lines += ["if svm:", f"    _x = d{cs}"]
    lines += ["    " + x for x in scan]
    dv_terms = " | ".join(
        f"(_sm[{i}] & v{c})" for i, c in enumerate(dchs)
    )
    lines += [f"dvm = {dv_terms}", "nv = dvm"]
    lines += ["if dvm == 0:", "    nd = ztup"]
    for i, c in enumerate(dchs):
        lines += [f"elif _sm[{i}] == svm:", f"    nd = d{c}"]
    lines += ["else:", "    _l = [None] * LB"]
    lines += ["    " + x for x in _blend_fill(
        [(f"_sm[{i}] & v{c}", f"d{c}[_i]") for i, c in enumerate(dchs)]
    )]
    lines += ["    nd = tuple(_l)"]
    lines += _fwd_change(sched, co)
    lines += [f"ordy = r{co}", "nr = ordy & dvm"]
    lines += _bwd_change(sched, cs)
    for i, ci in enumerate(dchs):
        lines += [f"nr = ordy & _sm[{i}]"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_branch(s, u, ic, oc, sched) -> List[str]:
    cc, cd = ic
    ot, of_ = oc
    lines = [f"cvm = v{cc}", f"dvm = v{cd}", "both = cvm & dvm", "tm = 0"]
    scan = _bitloop("cvm", ["if _x[_i]:", "    tm |= _b"])
    lines += ["if cvm:", f"    _x = d{cc}",
              "    if cvm == FULL and all(_x):",
              "        tm = FULL",
              "    elif not (cvm == FULL and not any(_x)):"]
    lines += ["        " + x for x in scan]
    lines += ["fm = cvm & ~tm", f"nd = d{cd}"]
    lines += ["nv = both & tm"]
    lines += _fwd_change(sched, ot)
    lines += ["nv = both & fm"]
    lines += _fwd_change(sched, of_)
    lines += [f"tr = (tm & r{ot}) | (fm & r{of_})"]
    lines += ["nr = dvm & tr"]
    lines += _bwd_change(sched, cc)
    lines += ["nr = cvm & tr"]
    lines += _bwd_change(sched, cd)
    return lines


def mask_eval_demux(s, u, ic, oc, sched) -> List[str]:
    ci0, ci1 = ic
    n = u.n_out
    lines = [f"svm = v{ci0}", f"dvm = v{ci1}", "both = svm & dvm",
             f"_sm = [0] * {n}"]
    scan = _bitloop("svm", [
        "_j = int(_x[_i])",
        f"if not 0 <= _j < {n}:",
        "    raise CircuitError(",
        f"        \"demux {u.name!r}: index %d out of range\" % _j)",
        "_sm[_j] |= _b",
    ])
    lines += ["if svm:", f"    _x = d{ci0}"]
    lines += ["    " + x for x in scan]
    lines += [f"nd = d{ci1}"]
    for i, co in enumerate(oc):
        lines += [f"nv = both & _sm[{i}]"]
        lines += _fwd_change(sched, co)
    tr = " | ".join(f"(_sm[{i}] & r{co})" for i, co in enumerate(oc))
    lines += [f"tr = {tr}"]
    lines += ["nr = dvm & tr"]
    lines += _bwd_change(sched, ci0)
    lines += ["nr = svm & tr"]
    lines += _bwd_change(sched, ci1)
    return lines


def _mask_fu_lane_expr(s, u, ics) -> List[str]:
    """Statements computing one lane's FU result into ``_l[_i]``."""
    if u.bundled:
        return [f"_t = d{ics[0]}[_i]",
                f"_l[_i] = cp{s}(_t if isinstance(_t, tuple) else (_t,))"]
    parts = []
    live = 0
    for slot in range(u.spec.n_in):
        if slot in u.const_ops:
            parts.append(f"uc{s}_{slot}")
        else:
            parts.append(f"d{ics[live]}[_i]")
            live += 1
    tup = ", ".join(parts) + ("," if len(parts) == 1 else "")
    return [f"_l[_i] = cp{s}(({tup}))"]


def mask_eval_functional(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    if u.latency == 0:
        lines = [f"av = {_mand([f'v{c}' for c in ic])}", "nv = av"]
        lines += ["if av == 0:", "    nd = ztup", "elif av == FULL:"]
        lines += ["    " + x for x in _lane_fu_compute(s, u, ic)]
        lines += ["else:", "    _l = [None] * LB"]
        lines += ["    " + x
                  for x in _bitloop("av", _mask_fu_lane_expr(s, u, ic))]
        lines += ["    nd = tuple(_l)"]
        lines += _fwd_change(sched, co)
        lines += [f"ordy = r{co}"]
        for i, ci in enumerate(ic):
            others = [f"v{c}" for j, c in enumerate(ic) if j != i]
            lines += [f"nr = {_mand(['ordy'] + others)}"]
            lines += _bwd_change(sched, ci)
        return lines

    lines = [f"nv = hv{s}", f"nd = tuple(ph{s}) if nv else ztup"]
    lines += _fwd_change(sched, co)
    lines += [f"advm = r{co} | (FULL & ~hv{s})"]
    for i, ci in enumerate(ic):
        others = [f"v{c}" for j, c in enumerate(ic) if j != i]
        lines += [f"nr = {_mand(['advm'] + others)}"]
        lines += _bwd_change(sched, ci)
    return lines


def mask_eval_load_port(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"nv = hv{s}", f"nd = tuple(ph{s}) if nv else ztup"]
    lines += _fwd_change(sched, co)
    lines += [f"nr = r{co} | (FULL & ~hv{s})"]
    lines += _bwd_change(sched, ci)
    return lines


def mask_eval_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    co = oc[0]
    lines = [f"nv = hv{s}"]
    lines += [f"if v{co} != nv:", f"    v{co} = nv", f"    d{co} = ztup",
              f"    {_fire_flag(co)}"]
    lines += [f"    {x}" for x in _acts(sched, sched.f_act[co])]
    lines += [f"advm = r{co} | (FULL & ~hv{s})"]
    lines += [f"nr = advm & v{cd}"]
    lines += _bwd_change(sched, ca)
    lines += [f"nr = advm & v{ca}"]
    lines += _bwd_change(sched, cd)
    return lines


# -- mask clock-edge blocks -------------------------------------------------


def mask_tick_elastic_buffer(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"fo = v{co} & r{co} & live", f"fi = v{ci} & r{ci} & live"]
    pop_body = [
        f"_ql = q{s}[_i]",
        "_ql.popleft()",
        "if _ql:",
        "    _h[_i] = _ql[0]",
        "else:",
        "    _h[_i] = None",
        f"    qn{s} &= ~_b",
    ]
    lines += ["if fo:", f"    _h = qh{s}"]
    lines += ["    " + x for x in _bitloop("fo", pop_body)]
    lines += [f"    qf{s} &= ~fo"]
    app_body = [
        f"_ql = q{s}[_i]",
        "_ql.append(_d[_i])",
        "if len(_ql) == 1:",
        "    _h[_i] = _d[_i]",
        f"    qn{s} |= _b",
        f"if len(_ql) == {u.slots}:",
        f"    qf{s} |= _b",
    ]
    lines += ["if fi:", f"    _h = qh{s}", f"    _d = d{ci}"]
    lines += ["    " + x for x in _bitloop("fi", app_body)]
    return lines


def mask_tick_transparent_fifo(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    lines = [f"fo = v{co} & r{co} & live", f"fi = v{ci} & r{ci} & live",
             f"_qn0 = qn{s}",
             "pm = _qn0 & fo",
             "am = fi & (_qn0 | (FULL & ~fo))"]
    pop_body = [
        f"_ql = q{s}[_i]",
        "_ql.popleft()",
        "if _ql:",
        "    _h[_i] = _ql[0]",
        "else:",
        "    _h[_i] = None",
        f"    qn{s} &= ~_b",
    ]
    lines += ["if pm:", f"    _h = qh{s}"]
    lines += ["    " + x for x in _bitloop("pm", pop_body)]
    lines += [f"    qf{s} &= ~pm"]
    app_body = [
        f"_ql = q{s}[_i]",
        "_ql.append(_d[_i])",
        "if len(_ql) == 1:",
        "    _h[_i] = _d[_i]",
        f"    qn{s} |= _b",
        f"if len(_ql) == {u.slots}:",
        f"    qf{s} |= _b",
    ]
    lines += ["if am:", f"    _h = qh{s}", f"    _d = d{ci}"]
    lines += ["    " + x for x in _bitloop("am", app_body)]
    return lines


def mask_tick_credit_counter(s, u, ic, oc, sched) -> List[str]:
    ci, co = ic[0], oc[0]
    initial = u.initial
    body = [
        f"_x = c{s}[_i]",
        "if fo & _b:",
        "    _x -= 1",
        "if fi & _b:",
        "    _x += 1",
        f"c{s}[_i] = _x",
        "if _x:",
        f"    cz{s} |= _b",
        "else:",
        f"    cz{s} &= ~_b",
        f"if not 0 <= _x <= {initial}:",
        "    raise CircuitError(",
        f"        \"credit counter {u.name!r}: count %d escaped \"",
        f"        \"[0, {initial}] -- more credits returned than granted\""
        " % _x)",
    ]
    lines = [f"fo = v{co} & r{co} & live", f"fi = v{ci} & r{ci} & live",
             "if fo | fi:"]
    lines += ["    " + x for x in _bitloop("fo | fi", body)]
    return lines


def mask_tick_entry(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    body = [f"_x = rem{s}[_i] - 1", f"rem{s}[_i] = _x",
            "if not _x:", f"    env{s} &= ~_b"]
    lines = [f"fo = v{co} & r{co} & live", "if fo:"]
    lines += ["    " + x for x in _bitloop("fo", body)]
    return lines


def mask_tick_sequence(s, u, ic, oc, sched) -> List[str]:
    co = oc[0]
    body = [f"_x = pos{s}[_i] + 1", f"pos{s}[_i] = _x",
            f"if _x < len(uvq{s}):",
            f"    sqh{s}[_i] = uvq{s}[_x]",
            "else:",
            f"    sqh{s}[_i] = None",
            f"    sqv{s} &= ~_b"]
    lines = [f"fo = v{co} & r{co} & live", "if fo:"]
    lines += ["    " + x for x in _bitloop("fo", body)]
    return lines


def mask_tick_sink(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"fi = v{ci} & r{ci} & live", "if fi:", f"    _d = d{ci}"]
    lines += ["    " + x
              for x in _bitloop("fi", [f"recv{s}[_i].append(_d[_i])"])]
    return lines


def mask_tick_eager_fork(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    lines = [f"fi = v{ci} & r{ci} & live"]
    for i, co in enumerate(oc):
        lines += [f"sf{s}_{i} = (sf{s}_{i} | (v{co} & r{co} & live))"
                  " & ~fi"]
    return lines


def mask_tick_fixed_order_merge(s, u, ic, oc, sched) -> List[str]:
    length = len(u.order)
    terms = " | ".join(
        f"(fs{s}_{i} & v{c} & r{c})" for i, c in enumerate(ic)
    )
    body = [f"_x = (pos{s}[_i] + 1) % {length}", f"pos{s}[_i] = _x"]
    for i in range(u.n_in):
        kw = "if" if i == 0 else "elif"
        body += [f"{kw} fs{s}_{i} & _b:", f"    fs{s}_{i} &= ~_b"]
    body += [f"_n = uord{s}[_x]"]
    for i in range(u.n_in):
        kw = "if" if i == 0 else "elif"
        body += [f"{kw} _n == {i}:", f"    fs{s}_{i} |= _b"]
    lines = [f"ff = ({terms}) & live", "if ff:"]
    lines += ["    " + x for x in _bitloop("ff", body)]
    return lines


def _mask_pipe_shift(s, u, oc, fire_ch, new_body) -> List[str]:
    """Per-lane stall-or-shift for pipelined units under the live mask.

    ``new_body`` computes the firing lane's new stage value into ``_nw``
    (lane index ``_i``); non-shifting (stalled or dead) lanes keep their
    pipes, exactly like the scalar skeleton.  Lanes with an empty pipe
    and no arriving token are excluded up front — their shift would
    push ``None`` through ``None``s, an identity — so a single busy
    lane never drags the whole batch through per-lane list traffic.
    """
    co = oc[0]
    body = ["if fi & _b:"]
    body += ["    " + x for x in new_body]
    body += ["else:", "    _nw = None",
             f"_pl = pipe{s}[_i]",
             "_pl.insert(0, _nw)",
             "_ov = _pl.pop()",
             f"_c = pn{s}[_i]",
             "if _nw is not None:",
             "    _c += 1",
             "if _ov is not None:",
             "    _c -= 1",
             f"pn{s}[_i] = _c",
             "_hd = _pl[-1]",
             f"ph{s}[_i] = _hd",
             "if _hd is not None:",
             f"    hv{s} |= _b",
             f"    kc{s} &= ~_b",
             "elif _c:",
             f"    hv{s} &= ~_b",
             f"    kc{s} |= _b",
             "else:",
             f"    hv{s} &= ~_b",
             f"    kc{s} &= ~_b"]
    lines = [f"fo = v{co} & r{co} & live",
             f"fi = v{fire_ch} & r{fire_ch} & live",
             f"sh = live & (fo | (FULL & ~hv{s})) & (fo | fi | kc{s})",
             "if sh:"]
    lines += ["    " + x for x in _bitloop("sh", body)]
    return lines


def mask_tick_functional(s, u, ic, oc, sched) -> List[str]:
    if u.bundled:
        new_body = [f"_t = d{ic[0]}[_i]",
                    f"_nw = cp{s}(_t if isinstance(_t, tuple) else (_t,))"]
    else:
        parts = []
        live_in = 0
        for slot in range(u.spec.n_in):
            if slot in u.const_ops:
                parts.append(f"uc{s}_{slot}")
            else:
                parts.append(f"d{ic[live_in]}[_i]")
                live_in += 1
        tup = ", ".join(parts) + ("," if len(parts) == 1 else "")
        new_body = [f"_nw = cp{s}(({tup}))"]
    return _mask_pipe_shift(s, u, oc, ic[0], new_body)


def mask_tick_load_port(s, u, ic, oc, sched) -> List[str]:
    ci = ic[0]
    new_body = [f"_nw = mrd[_i]({u.array!r}, int(d{ci}[_i]))"]
    return _mask_pipe_shift(s, u, oc, ci, new_body)


def mask_tick_store_port(s, u, ic, oc, sched) -> List[str]:
    ca, cd = ic
    new_body = [f"mwr[_i]({u.array!r}, int(d{ca}[_i]), d{cd}[_i])",
                "_nw = True"]
    return _mask_pipe_shift(s, u, oc, ca, new_body)


#: Mask-mode combinational emitters (complete: every catalogue type).
MASK_EVAL_BLOCKS = {
    ElasticBuffer: mask_eval_elastic_buffer,
    TransparentFifo: mask_eval_transparent_fifo,
    CreditCounter: mask_eval_credit_counter,
    Entry: mask_eval_entry,
    Sequence: mask_eval_sequence,
    Sink: mask_eval_sink,
    Constant: mask_eval_constant,
    EagerFork: mask_eval_eager_fork,
    LazyFork: mask_eval_lazy_fork,
    Join: mask_eval_join,
    Merge: mask_eval_merge,
    ArbiterMerge: mask_eval_arbiter_merge,
    FixedOrderMerge: mask_eval_fixed_order_merge,
    Mux: mask_eval_mux,
    Branch: mask_eval_branch,
    Demux: mask_eval_demux,
    FunctionalUnit: mask_eval_functional,
    LoadPort: mask_eval_load_port,
    StorePort: mask_eval_store_port,
}

#: Mask-mode clock-edge (apply, post) emitters; the post pass is the
#: mask eval block (idempotent recompute; carries refresh in the apply).
MASK_TICK_BLOCKS = {
    ElasticBuffer: (mask_tick_elastic_buffer, mask_eval_elastic_buffer),
    TransparentFifo: (mask_tick_transparent_fifo,
                      mask_eval_transparent_fifo),
    CreditCounter: (mask_tick_credit_counter, mask_eval_credit_counter),
    Entry: (mask_tick_entry, mask_eval_entry),
    Sequence: (mask_tick_sequence, mask_eval_sequence),
    Sink: (mask_tick_sink, mask_eval_sink),
    EagerFork: (mask_tick_eager_fork, mask_eval_eager_fork),
    FixedOrderMerge: (mask_tick_fixed_order_merge,
                      mask_eval_fixed_order_merge),
    FunctionalUnit: (mask_tick_functional, mask_eval_functional),
    LoadPort: (mask_tick_load_port, mask_eval_load_port),
    StorePort: (mask_tick_store_port, mask_eval_store_port),
}

assert set(MASK_EVAL_BLOCKS) == set(EVAL_BLOCKS)
assert set(MASK_TICK_BLOCKS) == set(TICK_BLOCKS)


# -- mask state: per-slot dict contract + promotion transform ---------------


def mask_int_names(u) -> List[str]:
    """Persisted bitmask locals of unit ``u`` (dict key = local suffix).

    These are loaded into loop locals in the mask-loop prologue and
    written back in its epilogue; list-valued state (queues, heads,
    counters, pipes) is mutated in place and needs no sync.
    """
    if isinstance(u, (ElasticBuffer, TransparentFifo)):
        return ["qn", "qf"]
    if isinstance(u, CreditCounter):
        return ["cz"]
    if isinstance(u, Entry):
        return ["env"]
    if isinstance(u, Sequence):
        return ["sqv"]
    if isinstance(u, EagerFork):
        return [f"sf_{i}" for i in range(u.n_out)]
    if isinstance(u, FixedOrderMerge):
        return [f"fs_{i}" for i in range(u.n_in)]
    if isinstance(u, (LoadPort, StorePort)):
        return ["hv", "kc"]
    if isinstance(u, FunctionalUnit) and u.latency > 0:
        return ["hv", "kc"]
    return []


def mask_obj_names(u) -> List[str]:
    """In-place (list-valued) mask-state members of unit ``u``."""
    if isinstance(u, (ElasticBuffer, TransparentFifo)):
        return ["q", "qh"]
    if isinstance(u, CreditCounter):
        return ["c"]
    if isinstance(u, Entry):
        return ["rem"]
    if isinstance(u, Sequence):
        return ["pos", "sqh"]
    if isinstance(u, Sink):
        return ["recv"]
    if isinstance(u, FixedOrderMerge):
        return ["pos"]
    if isinstance(u, (LoadPort, StorePort)):
        return ["pipe", "ph", "pn"]
    if isinstance(u, FunctionalUnit) and u.latency > 0:
        return ["pipe", "ph", "pn"]
    return []


def mask_local(name: str, s: int) -> str:
    """Loop-local spelling of mask-state member ``name`` of slot ``s``
    (``"qn"`` → ``qn{s}``, indexed ``"sf_0"`` → ``sf{s}_0``)."""
    if "_" in name:
        head, tail = name.split("_", 1)
        return f"{head}{s}_{tail}"
    return f"{name}{s}"


def _lval(e, lane: int):
    """Lane projection of a lockstep datum (lane tuple or shared scalar)."""
    return e[lane] if type(e) is tuple else e


def mask_state(u, lb: int, full: int) -> Optional[dict]:
    """Per-lane mask state of ``u``, promoted from its lockstep state.

    Called at the lockstep→mask promotion point: the unit holds valid
    lockstep state (every lane identical up to the per-lane data slots of
    its queued/piped lane tuples), and the returned dict seeds the
    mask-loop locals declared by :func:`mask_int_names` /
    :func:`mask_obj_names`.  Returns ``None`` for stateless types.
    """
    if isinstance(u, (ElasticBuffer, TransparentFifo)):
        qs = [deque(_lval(e, l) for e in u._q) for l in range(lb)]
        return {
            "q": qs,
            "qh": [q[0] if q else None for q in qs],
            "qn": full if u._q else 0,
            "qf": full if len(u._q) >= u.slots else 0,
        }
    if isinstance(u, CreditCounter):
        return {"c": [u._count] * lb,
                "cz": full if u._count > 0 else 0}
    if isinstance(u, Entry):
        return {"rem": [u._remaining] * lb,
                "env": full if u._remaining > 0 else 0}
    if isinstance(u, Sequence):
        p = u._pos
        head = u.values[p] if p < len(u.values) else None
        return {"pos": [p] * lb, "sqh": [head] * lb,
                "sqv": full if p < len(u.values) else 0}
    if isinstance(u, Sink):
        return {"recv": [[_lval(e, l) for e in u.received]
                         for l in range(lb)]}
    if isinstance(u, EagerFork):
        return {f"sf_{i}": (full if sent else 0)
                for i, sent in enumerate(u._sent)}
    if isinstance(u, FixedOrderMerge):
        sel = u.order[u._pos]
        state = {f"fs_{i}": (full if i == sel else 0)
                 for i in range(u.n_in)}
        state["pos"] = [u._pos] * lb
        return state
    if isinstance(u, (LoadPort, StorePort)) or (
        isinstance(u, FunctionalUnit) and u.latency > 0
    ):
        # FU/LoadPort stages are ``(lane_tuple,)``; StorePort stages are
        # the bare marker ``True`` (no result data).
        def stage(e, l):
            if e is None:
                return None
            return _lval(e[0], l) if type(e) is tuple else e

        pipes = [[stage(e, l) for e in u._pipe] for l in range(lb)]
        head = u._pipe[-1]
        carry = head is None and any(e is not None for e in u._pipe)
        occupied = sum(1 for e in u._pipe if e is not None)
        return {
            "pipe": pipes,
            "ph": [stage(head, l) for l in range(lb)],
            "pn": [occupied] * lb,
            "hv": full if head is not None else 0,
            "kc": full if carry else 0,
        }
    return None
