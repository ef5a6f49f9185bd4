"""Credit counters: the heart of CRUSH's deadlock avoidance (paper 4.1).

A credit counter ``CC_i`` starts with ``N_CC,i`` dataless credit tokens.  A
computation is issued by consuming one credit (through the wrapper's join);
a credit is returned when the corresponding result leaves the operation's
output buffer.  Because ``N_CC,i <= N_OB,i`` (Equation 1), every token inside
the shared unit is guaranteed a free output-buffer slot, so the head of the
line can never be blocked -- head-of-line deadlock is structurally impossible.

Per Section 4.3, a credit returned in cycle ``k`` only becomes usable in
cycle ``k+1`` (the grant valid is a function of the *registered* count),
which avoids a combinational loop through the wrapper.
"""

from __future__ import annotations

from ...errors import CircuitError
from ..unit import PortCtx, Unit


class CreditCounter(Unit):
    """Sequential counter granting up to ``initial`` outstanding credits.

    Ports: ``in0`` = credit return (dataless), ``out0`` = credit grant
    (dataless).  The grant output is valid whenever the registered count is
    positive; the return input is always ready.
    """

    def __init__(self, name: str, initial: int):
        super().__init__(name)
        if initial < 1:
            raise CircuitError(f"credit counter {name!r} needs >= 1 credits")
        self.n_in = 1
        self.n_out = 1
        self.initial = initial
        self._count = initial

    def reset(self):
        self._count = self.initial

    def state(self):
        return self._count

    def set_state(self, state):
        self._count = state

    def in_port_name(self, i):
        return "return"

    def out_port_name(self, i):
        return "grant"

    def comb_deps(self):
        # Grant valid is a function of the *registered* count (Section
        # 4.3) and the return side is always ready: both paths are cut.
        return [[]], [[]]

    def eval_comb(self, ctx: PortCtx):
        ctx.set_out(0, self._count > 0, None)
        ctx.set_in_ready(0, True)

    def tick(self, ctx: PortCtx):
        if ctx.fired_out(0):
            self._count -= 1
        if ctx.fired_in(0):
            self._count += 1
        if not 0 <= self._count <= self.initial:
            raise CircuitError(
                f"credit counter {self.name!r}: count {self._count} escaped "
                f"[0, {self.initial}] -- more credits returned than granted"
            )

    @property
    def available(self) -> int:
        return self._count
