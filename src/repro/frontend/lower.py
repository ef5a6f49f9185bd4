"""Lowering: kernel IR → dataflow circuit (the Dynamatic substitute).

The lowering uses the standard dynamically-scheduled-HLS loop schema
[29, 31]: every value that crosses a loop iteration — the induction
variable, carried scalars, loop-invariant values used inside, the control
token, and memory-dependency tokens — is threaded through a header merge,
circulated through the body, and steered by a branch on the loop condition
either onto the back edge (through an elastic buffer annotated with the one
circulating token) or out of the loop.  Conditionals become branch /
mux diamonds on every value they touch.  Loop invocations are serialized by
joining each header's init value with the region's control token, which
cannot advance past a running invocation — this plays the role of
Dynamatic's control network and prevents iteration mixing at the merges.

Two styles, matching the paper's two host HLS flows:

``"bb"``
    BB-organized circuits [29, 31]: constants are dataflow units activated
    by the basic block's control token, conditionals route the control
    token through the diamond, and BB boundaries add elastic buffers on
    reconverging values — faithfully more control logic and slightly longer
    carried-value cycles.

``"fast-token"``
    Fast-token-delivery circuits [21]: no BB organization — constants fold
    into operand slots, the control token skips conditionals, and no BB
    boundary buffers exist.  Same computation, leaner circuit, lower cycle
    counts; CRUSH runs on it unmodified (paper Section 6.5).

Memory read-modify-write loops (``y[j] = y[j] + ...``) additionally thread
a *memory dependency token*: each load of the array joins with the token
produced by the previous iteration's store, reproducing the conservative
store→load ordering Dynamatic's memory controller enforces when no LSQ is
present.  This is what gives every paper kernel its II > 1 even where no
scalar is carried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..circuit import (
    Branch,
    Constant,
    DataflowCircuit,
    ElasticBuffer,
    Entry,
    EagerFork,
    FunctionalUnit,
    Join,
    LoadPort,
    Merge,
    Mux,
    Netlist,
    Sink,
    StorePort,
    Unit,
    Value,
)
from ..errors import FrontendError
from .ir import (
    Array,
    Bin,
    Const,
    Expr,
    For,
    IConst,
    If,
    Kernel,
    Let,
    Load,
    Param,
    SetCarried,
    Stmt,
    Store,
    Var,
)

CTL = "@ctl"


def dep_key(array: str) -> str:
    return f"@dep:{array}"


@dataclass
class LoweredKernel:
    """A lowered kernel: the circuit plus what the runner needs to drive it."""

    kernel: Kernel
    circuit: DataflowCircuit
    style: str
    end_sink: str
    cfc_tags: List[str]

    def array_sizes(self) -> Dict[str, int]:
        return {
            a.name: a.resolved_size(self.kernel.params) for a in self.kernel.arrays
        }


# --------------------------------------------------------------- AST analysis
def expr_reads(e: Expr) -> Set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Bin):
        return expr_reads(e.a) | expr_reads(e.b)
    if isinstance(e, Load):
        return expr_reads(e.index)
    return set()


def block_reads_writes(stmts: List[Stmt]) -> Tuple[Set[str], Set[str]]:
    """Free variable reads and carried-var writes of a statement block."""
    defined: Set[str] = set()
    reads: Set[str] = set()
    writes: Set[str] = set()
    for s in stmts:
        if isinstance(s, Let):
            reads |= expr_reads(s.expr) - defined
            defined.add(s.name)
        elif isinstance(s, SetCarried):
            reads |= expr_reads(s.expr) - defined
            writes.add(s.name)
        elif isinstance(s, Store):
            reads |= (expr_reads(s.index) | expr_reads(s.value)) - defined
        elif isinstance(s, If):
            reads |= expr_reads(s.cond) - defined
            for blk in (s.then, s.orelse):
                r, w = block_reads_writes(blk)
                reads |= r - defined
                writes |= w
        elif isinstance(s, For):
            reads |= (expr_reads(s.lo) | expr_reads(s.hi)) - defined
            for init in s.carried.values():
                reads |= expr_reads(init) - defined
            r, w = block_reads_writes(s.body)
            local = {s.var} | set(s.carried)
            reads |= (r - local) - defined
            leaked = w - set(s.carried)
            if leaked:
                raise FrontendError(
                    f"loop over {s.var!r} writes non-carried names {sorted(leaked)}"
                )
        else:
            raise FrontendError(f"unsupported statement {s!r}")
    return reads, writes


def branch_assigned(stmts: List[Stmt]) -> Set[str]:
    """Names an If branch assigns: SetCarried targets plus Let bindings.

    A Let that shadows an enclosing-scope name inside a conditional branch
    is a conditional reassignment (C-style ``p = ...;`` under an ``if``) and
    must reconverge through a mux like a carried-var update.
    """
    names: Set[str] = set()
    for s in stmts:
        if isinstance(s, Let):
            names.add(s.name)
        elif isinstance(s, SetCarried):
            names.add(s.name)
        elif isinstance(s, If):
            names |= branch_assigned(s.then) | branch_assigned(s.orelse)
    return names


def arrays_accessed(stmts: List[Stmt]) -> Tuple[Set[str], Set[str]]:
    """(arrays loaded, arrays stored) anywhere in the block."""
    loads: Set[str] = set()
    stores: Set[str] = set()

    def walk_expr(e: Expr):
        if isinstance(e, Load):
            loads.add(e.array)
            walk_expr(e.index)
        elif isinstance(e, Bin):
            walk_expr(e.a)
            walk_expr(e.b)

    def walk(block: List[Stmt]):
        for s in block:
            if isinstance(s, (Let, SetCarried)):
                walk_expr(s.expr)
            elif isinstance(s, Store):
                stores.add(s.array)
                walk_expr(s.index)
                walk_expr(s.value)
            elif isinstance(s, If):
                walk_expr(s.cond)
                walk(s.then)
                walk(s.orelse)
            elif isinstance(s, For):
                walk_expr(s.lo)
                walk_expr(s.hi)
                for init in s.carried.values():
                    walk_expr(init)
                walk(s.body)

    walk(stmts)
    return loads, stores


def has_nested_for(stmts: List[Stmt]) -> bool:
    for s in stmts:
        if isinstance(s, For):
            return True
        if isinstance(s, If) and (has_nested_for(s.then) or has_nested_for(s.orelse)):
            return True
    return False


# ------------------------------------------------------------------- lowering
class _Lowerer:
    def __init__(self, kernel: Kernel, style: str):
        if style not in ("bb", "fast-token"):
            raise FrontendError(f"unknown lowering style {style!r}")
        self.kernel = kernel
        self.style = style
        self.bb = style == "bb"
        self.nl = Netlist(name=f"{kernel.name}[{style}]")
        self.params = kernel.params
        self.cfc_tag: Optional[str] = None
        self.loop_counter = 0
        self.cfc_tags: List[str] = []
        # Per-(array, kind) site counters; produce the same "X#ld0"-style
        # IDs as repro.analysis.memdep's IR walk so static verdicts can be
        # joined to the circuit's memory ports.
        self._mem_sites: Dict[Tuple[str, str], int] = {}

    def mem_site(self, array: str, tag: str) -> str:
        n = self._mem_sites.get((array, tag), 0)
        self._mem_sites[(array, tag)] = n + 1
        return f"{array}#{tag}{n}"

    # ------------------------------------------------------------- utilities
    def add(self, unit: Unit) -> Unit:
        self.nl.add(unit)
        if self.cfc_tag is not None:
            unit.meta["cfc"] = self.cfc_tag
        return unit

    def fresh(self, prefix: str) -> str:
        return self.nl.fresh(prefix)

    def static_int(self, e: Expr) -> Optional[int]:
        """Resolve a compile-time integer expression, or None."""
        if isinstance(e, IConst):
            return e.value
        if isinstance(e, Param):
            try:
                return int(self.params[e.name])
            except KeyError:
                raise FrontendError(f"unknown parameter {e.name!r}") from None
        if isinstance(e, Bin):
            a = self.static_int(e.a)
            b = self.static_int(e.b)
            if a is None or b is None:
                return None
            if e.op == "iadd":
                return a + b
            if e.op == "isub":
                return a - b
            if e.op == "imul":
                return a * b
        return None

    def static_const(self, e: Expr) -> Optional[object]:
        """Literal value of a constant expression (int or float), or None."""
        if isinstance(e, Const):
            return e.value
        return self.static_int(e)

    def constant(self, value, env: Dict[str, Value], label: str = "const") -> Value:
        """A per-activation token carrying ``value`` (BB constant unit)."""
        unit = self.add(Constant(self.fresh(f"{label}_"), value))
        self.nl.use(env[CTL], unit, 0, width=0)
        return (unit, 0)

    # ----------------------------------------------------------- expressions
    def lower_expr(self, e: Expr, env: Dict[str, Value]) -> Value:
        if isinstance(e, (Const, IConst, Param)):
            v = self.static_const(e)
            if v is None:
                raise FrontendError(f"cannot resolve constant {e!r}")
            return self.constant(v, env)
        if isinstance(e, Var):
            if e.name not in env:
                raise FrontendError(f"unbound variable {e.name!r}")
            return env[e.name]
        if isinstance(e, Load):
            return self.lower_load(e, env)
        if isinstance(e, Bin):
            return self.lower_bin(e, env)
        raise FrontendError(f"cannot lower expression {e!r}")

    def lower_bin(self, e: Bin, env: Dict[str, Value]) -> Value:
        from ..circuit import op_spec as _op_spec

        const_ops: Dict[int, object] = {}
        live: List[Value] = []
        if not self.bb and not _op_spec(e.op).shareable:
            # Fast-token style folds literal operands into integer/control
            # units.  Shareable (floating-point) operators always take their
            # constants as operand tokens so every instance of a type has
            # the same operand shape — a prerequisite for unit sharing.
            for slot, operand in enumerate((e.a, e.b)):
                v = self.static_const(operand)
                if v is not None:
                    const_ops[slot] = v
            if len(const_ops) == 2:
                # Fully static: fold the whole expression away.
                from ..circuit import op_spec

                folded = op_spec(e.op).fn(const_ops[0], const_ops[1])
                return self.constant(folded, env)
        for slot, operand in enumerate((e.a, e.b)):
            if slot not in const_ops:
                live.append(self.lower_expr(operand, env))
        fu = self.add(
            FunctionalUnit(self.fresh(f"{e.op}_"), e.op, const_ops=const_ops)
        )
        for port, v in enumerate(live):
            self.nl.use(v, fu, port)
        return (fu, 0)

    def lower_load(self, e: Load, env: Dict[str, Value]) -> Value:
        addr = self.lower_expr(e.index, env)
        dep = env.get(dep_key(e.array))
        if dep is not None:
            gate = self.add(Join(self.fresh(f"ldgate_{e.array}_"), 2))
            gate.meta["mem_gate"] = e.array
            self.nl.use(addr, gate, 0)
            self.nl.use(dep, gate, 1, width=0)
            addr = (gate, 0)
        port = self.add(LoadPort(self.fresh(f"load_{e.array}_"), e.array))
        port.meta["mem_site"] = self.mem_site(e.array, "ld")
        self.nl.use(addr, port, 0)
        return (port, 0)

    # ------------------------------------------------------------ statements
    def lower_block(self, stmts: List[Stmt], env: Dict[str, Value]) -> None:
        for s in stmts:
            self.lower_stmt(s, env)

    def lower_stmt(self, s: Stmt, env: Dict[str, Value]) -> None:
        if isinstance(s, Let):
            value = self.lower_expr(s.expr, env)
            # A local may go unread (dead code); its token must still drain.
            self.nl.declare(value)
            env[s.name] = value
        elif isinstance(s, SetCarried):
            if s.name not in env:
                raise FrontendError(f"SetCarried on undeclared {s.name!r}")
            env[s.name] = self.lower_expr(s.expr, env)
        elif isinstance(s, Store):
            self.lower_store(s, env)
        elif isinstance(s, If):
            self.lower_if(s, env)
        elif isinstance(s, For):
            self.lower_loop(s, env)
        else:
            raise FrontendError(f"unsupported statement {s!r}")

    def lower_store(self, s: Store, env: Dict[str, Value]) -> None:
        addr = self.lower_expr(s.index, env)
        value = self.lower_expr(s.value, env)
        port = self.add(StorePort(self.fresh(f"store_{s.array}_"), s.array))
        port.meta["mem_site"] = self.mem_site(s.array, "st")
        self.nl.use(addr, port, 0)
        self.nl.use(value, port, 1)
        done: Value = (port, 0)
        key = dep_key(s.array)
        if key in env:
            env[key] = done
        else:
            self.nl.declare(done)

    def lower_if(self, s: If, env: Dict[str, Value]) -> None:
        cond = self.lower_expr(s.cond, env)
        touched = self._if_touched_names(s, env)
        then_env = dict(env)
        else_env = dict(env)
        for name in touched:
            # Control/dependency tokens are dataless: width 0 end to end.
            w = 0 if name.startswith("@") else 32
            br = self.add(Branch(self.fresh(f"if_br_{name.strip('@:')}_")))
            self.nl.use(cond, br, 0, width=1)
            self.nl.use(env[name], br, 1, width=w)
            # A branch may shadow the incoming value without reading it;
            # the unread copy must still drain.
            self.nl.declare((br, 0))
            self.nl.declare((br, 1))
            then_env[name] = (br, 0)
            else_env[name] = (br, 1)
        self.lower_block(s.then, then_env)
        self.lower_block(s.orelse, else_env)
        for name in touched:
            w = 0 if name.startswith("@") else 32
            mux = self.add(Mux(self.fresh(f"if_mux_{name.strip('@:')}_"), 2))
            self.nl.use(cond, mux, 0, width=1)
            self.nl.use(else_env[name], mux, 1, width=w)
            self.nl.use(then_env[name], mux, 2, width=w)
            out: Value = (mux, 0)
            if self.bb:
                # BB boundary: the reconverged value crosses into a new
                # basic block through an elastic buffer.
                eb = self.add(
                    ElasticBuffer(self.fresh("bb_eb_"), slots=2, width_hint=w)
                )
                self.nl.use(out, eb, 0, width=w)
                out = (eb, 0)
            self.nl.declare(out)  # touched-but-unread-after values drain
            env[name] = out

    def _if_touched_names(self, s: If, env: Dict[str, Value]) -> List[str]:
        reads_t, writes_t = block_reads_writes(s.then)
        reads_e, writes_e = block_reads_writes(s.orelse)
        assigned = branch_assigned(s.then) | branch_assigned(s.orelse)
        names = (reads_t | reads_e | writes_t | writes_e | assigned) & set(env)
        loads, stores = arrays_accessed(s.then + s.orelse)
        for arr in loads | stores:
            if dep_key(arr) in env:
                names.add(dep_key(arr))
        # The control token is routed through the diamond in both styles so
        # control-activated units inside a branch (constants, nested inits)
        # fire exactly once per *taken* branch, never piling up tokens.
        names.add(CTL)
        if has_nested_for(s.then) or has_nested_for(s.orelse):
            raise FrontendError("loops inside conditionals are not supported")
        ordered = sorted(n for n in names if not n.startswith("@"))
        ordered += sorted(n for n in names if n.startswith("@"))
        return ordered

    # ------------------------------------------------------------------ loops
    def lower_loop(self, s: For, env: Dict[str, Value]) -> None:
        loop_id = self.loop_counter
        self.loop_counter += 1
        innermost = not has_nested_for(s.body)
        tag = f"{self.kernel.name}.L{loop_id}" if innermost else None
        if tag:
            self.cfc_tags.append(tag)

        body_reads, body_writes = block_reads_writes(s.body)
        bad = body_writes - set(s.carried)
        if bad:
            raise FrontendError(
                f"loop over {s.var!r}: SetCarried on undeclared {sorted(bad)}"
            )
        bound_reads = expr_reads(s.hi)
        invariants = sorted(
            n
            for n in (body_reads | bound_reads) - {s.var} - set(s.carried)
            if n in env and not n.startswith("@")
        )

        # Memory dependency threads: every loop whose subtree both loads and
        # stores an array carries a dependency token for it, so a load can
        # never overtake a previous iteration's (or a nested loop's final)
        # store to that array — the conservative store→load ordering an
        # LSQ-free memory controller enforces.
        loads, stores = arrays_accessed(s.body)
        dep_arrays = sorted(loads & stores)

        lo_static = self.static_int(s.lo)
        hi_static = self.static_int(s.hi)
        if lo_static is not None and hi_static is not None and hi_static <= lo_static:
            raise FrontendError(
                f"loop over {s.var!r} has trip count "
                f"{hi_static - lo_static} <= 0 (the do-while loop schema "
                "requires at least one iteration)"
            )

        # --- init values, evaluated in the enclosing region -----------------
        inits: List[Tuple[str, Value]] = [(CTL, env[CTL])]
        inits.append((s.var, self.lower_expr(s.lo, env)))
        for name, init_expr in s.carried.items():
            inits.append((name, self.lower_expr(init_expr, env)))
        for name in invariants:
            inits.append((name, env[name]))
        for arr in dep_arrays:
            key = dep_key(arr)
            inits.append((key, env.get(key, env[CTL])))

        # --- loop header: control merge + per-value muxes --------------------
        # The control merge (cmerge) observes in which order invocations and
        # iterations deliver control tokens (index 0 = loop entry, 1 = back
        # edge) and its index stream steers every header mux, so each mux
        # consumes init/backedge data in the correct global order even when
        # the fast control path runs many iterations ahead of a slow carried
        # value.  This is the standard dynamically-scheduled loop schema and
        # what prevents tokens of consecutive loop invocations from mixing.
        if tag:
            self.cfc_tag = tag
        from ..circuit import ArbiterMerge

        cmerge = self.add(ArbiterMerge(self.fresh("cmerge_"), 2, priority=[0, 1]))
        self.nl.use(env[CTL], cmerge, 0, width=0)
        # A small FIFO decouples the index stream from the header muxes:
        # the cmerge can issue the control token without waiting for every
        # mux to be ready for its select (and the control path may run a
        # bounded number of iterations ahead of slow carried values).
        from ..circuit import TransparentFifo

        selbuf = self.add(TransparentFifo(self.fresh("selbuf_"), slots=2, width_hint=1))
        self.nl.use((cmerge, 1), selbuf, 0, width=1)
        sel: Value = (selbuf, 0)
        ctlbuf = self.add(TransparentFifo(self.fresh("ctlbuf_"), slots=2, width_hint=0))
        self.nl.use((cmerge, 0), ctlbuf, 0, width=0)
        header_in1: Dict[str, Tuple[Unit, int]] = {}
        loop_env = dict(env)
        loop_env[CTL] = (ctlbuf, 0)
        for name, init in inits:
            if name == CTL:
                header_in1[name] = (cmerge, 1)  # input port 1 is the back edge
                continue
            pretty = name.strip("@:").replace(":", "_")
            mux = self.add(Mux(self.fresh(f"hdr_{pretty}_"), 2))
            self.nl.use(sel, mux, 0, width=1)
            self.nl.use(init, mux, 1, width=0 if name.startswith("@") else 32)
            header_in1[name] = (mux, 2)
            loop_env[name] = (mux, 0)

        # --- body -------------------------------------------------------------
        self.lower_block(s.body, loop_env)

        # --- latch: induction step, exit condition, steering -----------------
        if self.bb:
            one = self.constant(1, loop_env, label="c1")
            nexti_fu = self.add(FunctionalUnit(self.fresh("iadd_"), "iadd"))
            self.nl.use(loop_env[s.var], nexti_fu, 0)
            self.nl.use(one, nexti_fu, 1)
            nexti: Value = (nexti_fu, 0)
        else:
            nexti_fu = self.add(
                FunctionalUnit(self.fresh("iadd_"), "iadd", const_ops={1: 1})
            )
            self.nl.use(loop_env[s.var], nexti_fu, 0)
            nexti = (nexti_fu, 0)

        if hi_static is not None and not self.bb:
            cmp_fu = self.add(
                FunctionalUnit(
                    self.fresh("icmp_"), "icmp_lt", const_ops={1: hi_static}
                )
            )
            self.nl.use(nexti, cmp_fu, 0)
        else:
            hi_val = self.lower_expr(s.hi, loop_env)
            cmp_fu = self.add(FunctionalUnit(self.fresh("icmp_"), "icmp_lt"))
            self.nl.use(nexti, cmp_fu, 0)
            self.nl.use(hi_val, cmp_fu, 1)
        cond: Value = (cmp_fu, 0)

        updated: Dict[str, Value] = {CTL: loop_env[CTL], s.var: nexti}
        for name in s.carried:
            updated[name] = loop_env[name]
        for name in invariants:
            updated[name] = loop_env[name]
        for arr in dep_arrays:
            updated[dep_key(arr)] = loop_env[dep_key(arr)]

        for name, _ in inits:
            pretty = name.strip("@:").replace(":", "_")
            # Control and dependency tokens carry no data; their channels
            # are width 0 end to end (repro.lint rule ST002 checks that
            # buffers preserve the width of what flows through them).
            w = 0 if name.startswith("@") else 32
            br = self.add(Branch(self.fresh(f"latch_{pretty}_")))
            self.nl.use(cond, br, 0, width=1)
            self.nl.use(updated[name], br, 1, width=w)
            # Back edge: elastic buffer carrying the circulating token.
            eb = self.add(
                ElasticBuffer(self.fresh(f"bedge_{pretty}_"), slots=2, width_hint=w)
            )
            self.nl.use((br, 0), eb, 0, width=w)
            back: Value = (eb, 0)
            if self.bb and name == CTL:
                eb2 = self.add(
                    ElasticBuffer(self.fresh("bedge_ctl2_"), slots=2, width_hint=0)
                )
                self.nl.use(back, eb2, 0, width=0)
                back = (eb2, 0)
            dst_unit, dst_port = header_in1[name]
            self.nl.use(
                back,
                dst_unit,
                dst_port,
                width=w,
                attrs={"tokens": 1, "backedge": True},
            )
            # Exit edge.
            exit_val: Value = (br, 1)
            if name == CTL:
                if self.bb:
                    eb3 = self.add(
                        ElasticBuffer(self.fresh("exit_ctl_eb_"), slots=2, width_hint=0)
                    )
                    self.nl.use(exit_val, eb3, 0, width=0)
                    exit_val = (eb3, 0)
                self.nl.declare(exit_val)
                env[CTL] = exit_val
            elif name in s.carried:
                self.nl.declare(exit_val)  # carried result may go unread
                env[name] = exit_val
            elif name.startswith("@dep:"):
                self.nl.declare(exit_val)
                if name in env:
                    env[name] = exit_val
            else:
                self.nl.declare(exit_val)  # induction var / invariants: done
        if tag:
            self.cfc_tag = None

    # --------------------------------------------------------------- kernel
    def lower(self) -> LoweredKernel:
        entry = self.add(Entry("entry", count=1))
        env: Dict[str, Value] = {CTL: (entry, 0)}
        self.lower_block(self.kernel.body, env)
        end = self.add(Sink("end"))
        self.nl.use(env[CTL], end, 0, width=0)
        circuit = self.nl.finalize()
        return LoweredKernel(
            kernel=self.kernel,
            circuit=circuit,
            style=self.style,
            end_sink="end",
            cfc_tags=self.cfc_tags,
        )


def lower_kernel(kernel: Kernel, style: str = "bb") -> LoweredKernel:
    """Lower ``kernel`` to a dataflow circuit in the given style."""
    return _Lowerer(kernel, style).lower()
