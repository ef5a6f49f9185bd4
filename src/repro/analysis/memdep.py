"""Static memory-dependence analysis: prove load/store disambiguation.

CRUSH assumes every kernel's memory accesses are statically
disambiguated — all eleven paper kernels are affine, so sharing never
reasons about memory ordering (paper Section 2).  This module makes that
assumption *checkable*: it extracts the per-array subscript function of
every load and store site from the kernel IR, runs affine dependence
tests on every (load, store) and (store, store) pair per array, and
classifies the kernel's memory interface:

``static-ok``
    every pair carries a proof — ``independent`` (the subscripts can
    never collide) or ``ordered`` (they collide, with a concrete
    dependence distance, and the conservative ``@dep`` token ordering
    the lowering threads is exactly what serializes them);

``lsq-required``
    at least one pair is ``unknown`` — a subscript is not an affine
    function of the loop counters (data-dependent addressing:
    histogram, sparse gathers, pointer chasing), so only a runtime
    load-store queue could disambiguate it.  This is the same static
    split Szafarczyk et al. (arXiv:2311.08198) make when deciding which
    accesses get speculative LSQ allocations.

The proof ladder per pair, cheapest first:

1. **GCD test** — the linear Diophantine equation ``fA(i) = fB(j)`` has
   no integer solution when ``gcd`` of the coefficients does not divide
   the constant difference.
2. **Banerjee bounds** — minimize/maximize ``fA(i) - fB(j)`` over the
   (rectangular relaxation of the) loop domains; zero outside the range
   means no real solution either.
3. **Direction hierarchy** (self pairs) — a store site can only depend
   on *itself* across distinct iterations; per leading loop dimension,
   bound ``sum(c_k * d_k)`` with the leading distance forced >= 1.
4. **Domain enumeration** — the loop domains are compile-time finite
   (bounds are parameters or outer counters, triangular included), so
   the exact footprints are computable: a collision yields an ``ordered``
   verdict with a witness iteration pair and distance vector; disjoint
   footprints yield an exact ``independent``.  Capped by
   :data:`MAX_ENUM_POINTS`; an affine pair too large to enumerate that
   steps 1–3 could not resolve degrades to ``unknown`` (sound: unknown
   is the conservative verdict).

Soundness is enforced the same way the token-flow analyzer's II bound is
(:func:`~repro.analysis.tokenflow.measure_predictions`): the
:func:`measure_dependences` bridge replays the kernel in simulation,
records every address each Load/StorePort actually issued, and asserts
that no statically-``independent`` pair ever touched a common cell.
The lint layer surfaces the verdicts as rules MD001–MD004
(:mod:`repro.lint.rules_memdep`); ``python -m repro analyze memdep``
cross-checks them against the simulator backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import AnalysisError

#: Hard cap on enumerated iteration points per access site (step 4).
MAX_ENUM_POINTS = 250_000

#: Verdict vocabulary, strongest proof first.
VERDICTS = ("independent", "ordered", "unknown")

#: Memory-interface classes.
MEM_STATIC_OK = "static-ok"
MEM_LSQ_REQUIRED = "lsq-required"


# --------------------------------------------------------------------------
# Affine forms over loop counters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """``const + sum(coeffs[v] * v)`` over loop-counter keys."""

    coeffs: Tuple[Tuple[str, int], ...]
    const: int

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(coeffs=(), const=value)

    @staticmethod
    def var(key: str) -> "Affine":
        return Affine(coeffs=((key, 1),), const=0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def add(self, other: "Affine", sign: int = 1) -> "Affine":
        out = self.as_dict()
        for k, c in other.coeffs:
            out[k] = out.get(k, 0) + sign * c
        coeffs = tuple(sorted((k, c) for k, c in out.items() if c != 0))
        return Affine(coeffs=coeffs, const=self.const + sign * other.const)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine.constant(0)
        coeffs = tuple((k, c * factor) for k, c in self.coeffs)
        return Affine(coeffs=coeffs, const=self.const * factor)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for k, c in self.coeffs:
            total += c * env[k]
        return total

    def pretty(self) -> str:
        parts: List[str] = []
        for k, c in self.coeffs:
            var = k.split("#", 1)[0]
            parts.append(var if c == 1 else f"{c}*{var}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


# --------------------------------------------------------------------------
# Access extraction (mirrors the lowering's walk order, so site IDs line
# up with the ``mem_site`` tags on Load/StorePort units)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopDim:
    """One enclosing counted loop of an access site."""

    #: Unique key (``var#loopid``) used in affine forms; distinct loops
    #: reusing a variable name stay distinguishable.
    key: str
    var: str
    #: Affine bounds over *outer* loop keys; None = data-dependent bound.
    lo: Optional[Affine]
    hi: Optional[Affine]
    #: Rectangular relaxation of the counter's value range (inclusive).
    min_value: int
    max_value: int


@dataclass(frozen=True)
class MemAccess:
    """One load or store site of one array."""

    site: str  # "<array>#ld<N>" / "<array>#st<N>", lowering-stable
    kind: str  # "load" | "store"
    array: str
    #: Program-order sequence number over the whole kernel.
    seq: int
    #: Enclosing loop nest, outermost first.
    loops: Tuple[LoopDim, ...]
    #: Affine subscript, or None when data-dependent / non-affine.
    index: Optional[Affine]
    #: Why ``index`` is None ("" when affine).
    reason: str = ""
    #: Number of enclosing conditionals (guarded execution).
    guards: int = 0

    @property
    def affine(self) -> bool:
        return self.index is not None

    def domain_size_bound(self) -> int:
        total = 1
        for dim in self.loops:
            span = dim.max_value - dim.min_value + 1
            total *= max(span, 0)
        return total


class _Extractor:
    """IR walker mirroring ``repro.frontend.lower._Lowerer``'s order."""

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        self.params: Dict[str, int] = dict(kernel.params)
        self.accesses: List[MemAccess] = []
        self._site_counter: Dict[Tuple[str, str], int] = {}
        self._seq = 0
        self._loops: List[LoopDim] = []
        self._loop_id = 0
        self._guards = 0
        #: name -> affine form (loop counters, affine lets) or None
        #: (carried scalars, loaded values — data-dependent).
        self._env: Dict[str, Optional[Affine]] = {}

    # ------------------------------------------------------------- affine
    def _affine_of(self, e: Any) -> Tuple[Optional[Affine], str]:
        from ..frontend.ir import Bin, Const, IConst, Load, Param, Var

        if isinstance(e, IConst):
            return Affine.constant(int(e.value)), ""
        if isinstance(e, Const):
            v = e.value
            if float(v).is_integer():
                return Affine.constant(int(v)), ""
            return None, f"non-integer constant {v!r}"
        if isinstance(e, Param):
            if e.name not in self.params:
                raise AnalysisError(f"unknown parameter {e.name!r}")
            return Affine.constant(int(self.params[e.name])), ""
        if isinstance(e, Var):
            if e.name in self._env:
                form = self._env[e.name]
                if form is None:
                    return None, f"data-dependent value {e.name!r}"
                return form, ""
            return None, f"unbound name {e.name!r}"
        if isinstance(e, Load):
            return None, f"loaded value (from {e.array!r})"
        if isinstance(e, Bin):
            a, why_a = self._affine_of(e.a)
            b, why_b = self._affine_of(e.b)
            if e.op == "iadd" and a is not None and b is not None:
                return a.add(b), ""
            if e.op == "isub" and a is not None and b is not None:
                return a.add(b, sign=-1), ""
            if e.op == "imul":
                if a is not None and not a.coeffs and b is not None:
                    return b.scale(a.const), ""
                if b is not None and not b.coeffs and a is not None:
                    return a.scale(b.const), ""
                if a is not None and b is not None:
                    return None, f"non-linear product in {e.op}"
            if a is None:
                return None, why_a
            if b is None:
                return None, why_b
            return None, f"non-affine operator {e.op!r}"
        return None, f"unsupported index expression {type(e).__name__}"

    # ------------------------------------------------------------ walking
    def _site(self, array: str, kind: str) -> str:
        tag = "ld" if kind == "load" else "st"
        n = self._site_counter.get((array, tag), 0)
        self._site_counter[(array, tag)] = n + 1
        return f"{array}#{tag}{n}"

    def _record(self, array: str, kind: str, index_expr: Any) -> None:
        index, reason = self._affine_of(index_expr)
        self.accesses.append(MemAccess(
            site=self._site(array, kind),
            kind=kind,
            array=array,
            seq=self._seq,
            loops=tuple(self._loops),
            index=index,
            reason=reason,
            guards=self._guards,
        ))
        self._seq += 1

    def walk_expr(self, e: Any) -> None:
        from ..frontend.ir import Bin, Load

        if isinstance(e, Load):
            # The lowering lowers the index (any nested loads first),
            # then creates the LoadPort — same post-order here.
            self.walk_expr(e.index)
            self._record(e.array, "load", e.index)
        elif isinstance(e, Bin):
            self.walk_expr(e.a)
            self.walk_expr(e.b)

    def walk_block(self, stmts: Sequence[Any]) -> None:
        for s in stmts:
            self.walk_stmt(s)

    def walk_stmt(self, s: Any) -> None:
        from ..frontend.ir import For, If, Let, SetCarried, Store

        if isinstance(s, Let):
            self.walk_expr(s.expr)
            form, _ = self._affine_of(s.expr)
            self._env[s.name] = form
        elif isinstance(s, SetCarried):
            self.walk_expr(s.expr)
            self._env[s.name] = None
        elif isinstance(s, Store):
            self.walk_expr(s.index)
            self.walk_expr(s.value)
            self._record(s.array, "store", s.index)
        elif isinstance(s, If):
            self.walk_expr(s.cond)
            saved = dict(self._env)
            self._guards += 1
            self.walk_block(s.then)
            self._env = dict(saved)
            self.walk_block(s.orelse)
            self._env = saved
            self._guards -= 1
        elif isinstance(s, For):
            self.walk_loop(s)
        else:
            raise AnalysisError(f"unsupported statement {type(s).__name__}")

    def _bound_range(
        self, form: Optional[Affine], is_hi: bool
    ) -> Tuple[int, int]:
        """Min/max of a bound over the enclosing rectangular relaxation."""
        if form is None:
            return (0, 0)
        spans = {d.key: (d.min_value, d.max_value) for d in self._loops}
        lo = hi = form.const
        for k, c in form.coeffs:
            a, b = spans.get(k, (0, 0))
            lo += c * (a if c > 0 else b)
            hi += c * (b if c > 0 else a)
        return (lo, hi)

    def walk_loop(self, s: Any) -> None:
        self.walk_expr(s.lo)
        for init in s.carried.values():
            self.walk_expr(init)

        lo_form, _ = self._affine_of(s.lo)
        hi_form, _ = self._affine_of(s.hi)
        lo_min, _ = self._bound_range(lo_form, is_hi=False)
        _, hi_max = self._bound_range(hi_form, is_hi=True)
        key = f"{s.var}#{self._loop_id}"
        self._loop_id += 1
        dim = LoopDim(
            key=key,
            var=s.var,
            lo=lo_form,
            hi=hi_form,
            min_value=lo_min,
            max_value=hi_max - 1,
        )

        saved_env = dict(self._env)
        self._env[s.var] = Affine.var(key)
        for name in s.carried:
            self._env[name] = None
        self._loops.append(dim)
        self.walk_block(s.body)
        self._loops.pop()
        # The latch evaluates the exit bound after the body (any loads in
        # it are lowered there); loop-local names go out of scope.
        self.walk_expr(s.hi)
        self._env = saved_env
        for name in s.carried:
            self._env[name] = None  # final value visible, data-dependent


# --------------------------------------------------------------------------
# Dependence testing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PairVerdict:
    """Dependence verdict for one ordered pair of access sites.

    ``a`` is the program-order-earlier site.  ``distance`` (ordered
    verdicts only) is the dependence distance over the *common* loop
    nest, outermost first — ``None`` entries mean the dimension is
    unconstrained (``*`` in direction-vector notation).
    """

    array: str
    a: str
    b: str
    a_kind: str
    b_kind: str
    verdict: str
    #: Which rung of the proof ladder decided ("gcd", "banerjee",
    #: "banerjee-directions", "enumeration", "non-affine", ...).
    test: str
    reason: str = ""
    distance: Optional[Tuple[Optional[int], ...]] = None
    #: Concrete witness iterations (common-nest counters) for ordered
    #: verdicts found by enumeration.
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    #: Number of common enclosing loops.
    common_loops: int = 0
    #: True when the dependence includes a same-iteration instance
    #: (distance all-zero over the common nest).
    same_iteration: bool = False

    def label(self) -> str:
        return f"{self.a} x {self.b}"

    def distance_str(self) -> str:
        if self.distance is None:
            return ""
        return "(" + ",".join(
            "*" if d is None else str(d) for d in self.distance
        ) + ")"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "array": self.array,
            "a": self.a,
            "b": self.b,
            "a_kind": self.a_kind,
            "b_kind": self.b_kind,
            "verdict": self.verdict,
            "test": self.test,
            "reason": self.reason,
            "distance": self.distance_str() or None,
            "common_loops": self.common_loops,
            "same_iteration": self.same_iteration,
        }


def _iterate_domain(
    loops: Sequence[LoopDim],
) -> Iterator[Dict[str, int]]:
    """Exact lexicographic enumeration of a loop nest's domain."""
    n = len(loops)
    env: Dict[str, int] = {}

    def rec(depth: int) -> Iterator[Dict[str, int]]:
        if depth == n:
            yield dict(env)
            return
        dim = loops[depth]
        if dim.lo is None or dim.hi is None:
            raise AnalysisError(
                f"loop {dim.var!r} has a data-dependent bound"
            )
        lo = dim.lo.evaluate(env)
        hi = dim.hi.evaluate(env)
        for v in range(lo, hi):
            env[dim.key] = v
            for point in rec(depth + 1):
                yield point
        env.pop(dim.key, None)

    return rec(0)


def _footprint(access: MemAccess) -> Dict[int, Tuple[int, ...]]:
    """address -> first (lex) iteration hitting it, plus repeat markers.

    A repeated address maps to its *first* iteration; repeats are
    detected by the caller comparing hit counts.
    """
    assert access.index is not None
    out: Dict[int, Tuple[int, ...]] = {}
    for env in _iterate_domain(access.loops):
        addr = access.index.evaluate(env)
        if addr not in out:
            out[addr] = tuple(env[d.key] for d in access.loops)
    return out


def _common_prefix(
    a: MemAccess, b: MemAccess
) -> Tuple[LoopDim, ...]:
    common: List[LoopDim] = []
    for da, db in zip(a.loops, b.loops):
        if da.key != db.key:
            break
        common.append(da)
    return tuple(common)


def _gcd_test(a: Affine, b: Affine) -> bool:
    """True when the GCD test PROVES independence."""
    g = 0
    for _, c in a.coeffs:
        g = gcd(g, abs(c))
    for _, c in b.coeffs:
        g = gcd(g, abs(c))
    rhs = b.const - a.const
    if g == 0:
        return rhs != 0
    return rhs % g != 0


def _value_range(
    form: Affine, spans: Mapping[str, Tuple[int, int]]
) -> Tuple[int, int]:
    lo = hi = form.const
    for k, c in form.coeffs:
        a, b = spans[k]
        if a > b:  # empty relaxed range: treat as the single point a
            b = a
        lo += c * (a if c > 0 else b)
        hi += c * (b if c > 0 else a)
    return lo, hi


def _banerjee_test(a: MemAccess, b: MemAccess) -> bool:
    """True when disjoint value ranges PROVE independence."""
    assert a.index is not None and b.index is not None
    spans_a = {d.key: (d.min_value, d.max_value) for d in a.loops}
    spans_b = {d.key: (d.min_value, d.max_value) for d in b.loops}
    lo_a, hi_a = _value_range(a.index, spans_a)
    lo_b, hi_b = _value_range(b.index, spans_b)
    return hi_a < lo_b or hi_b < lo_a


def _self_direction_test(access: MemAccess) -> bool:
    """True when no two DISTINCT iterations of ``access`` can collide.

    Direction hierarchy over the distance vector d (outermost first):
    for each leading dimension L, force ``d_L >= 1`` (lexicographic
    positivity; output dependences are symmetric so one sign suffices)
    and bound ``sum(c_k * d_k)`` for ``k >= L`` over the relaxed spans.
    Zero outside every leading dimension's range proves independence.
    """
    assert access.index is not None
    coeffs = access.index.as_dict()
    dims = access.loops
    spans = [max(d.max_value - d.min_value, 0) for d in dims]
    for lead in range(len(dims)):
        if spans[lead] < 1:
            continue  # this dimension cannot produce a distinct pair
        lo = hi = 0
        for k in range(lead, len(dims)):
            c = coeffs.get(dims[k].key, 0)
            if k == lead:
                lo += c * (1 if c > 0 else spans[k])
                hi += c * (spans[k] if c > 0 else 1)
            else:
                lo -= abs(c) * spans[k]
                hi += abs(c) * spans[k]
        if lo <= 0 <= hi:
            return False  # this direction might carry a dependence
    return True


def _verdict_for_pair(a: MemAccess, b: MemAccess) -> PairVerdict:
    """Run the proof ladder for one (earlier, later) site pair."""
    common = _common_prefix(a, b)
    base: Dict[str, Any] = dict(
        array=a.array, a=a.site, b=b.site,
        a_kind=a.kind, b_kind=b.kind, common_loops=len(common),
    )
    if a.index is None or b.index is None:
        bad = a if a.index is None else b
        return PairVerdict(
            verdict="unknown", test="non-affine",
            reason=f"{bad.site}: {bad.reason}", **base,
        )

    self_pair = a.site == b.site
    if self_pair and not a.loops:
        return PairVerdict(
            verdict="independent", test="single-instance",
            reason="site executes at most once", **base,
        )

    if not self_pair and _gcd_test(a.index, b.index):
        return PairVerdict(
            verdict="independent", test="gcd",
            reason="gcd of coefficients does not divide the constant "
                   "difference", **base,
        )
    if not self_pair and _banerjee_test(a, b):
        return PairVerdict(
            verdict="independent", test="banerjee",
            reason="subscript value ranges are disjoint", **base,
        )
    if self_pair and _self_direction_test(a):
        return PairVerdict(
            verdict="independent", test="banerjee-directions",
            reason="no lexicographically positive distance solves "
                   "the dependence equation", **base,
        )

    # Exact finite-domain check (bounds are compile-time affine).
    if (a.domain_size_bound() > MAX_ENUM_POINTS
            or b.domain_size_bound() > MAX_ENUM_POINTS):
        return PairVerdict(
            verdict="unknown", test="domain-too-large",
            reason=f"affine but > {MAX_ENUM_POINTS} iteration points; "
                   "inconclusive without enumeration", **base,
        )

    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    if self_pair:
        seen: Dict[int, Tuple[int, ...]] = {}
        for env in _iterate_domain(a.loops):
            addr = a.index.evaluate(env)
            it = tuple(env[d.key] for d in a.loops)
            if addr in seen:
                witness = (seen[addr], it)
                break
            seen[addr] = it
    else:
        foot_a = _footprint(a)
        for env in _iterate_domain(b.loops):
            addr = b.index.evaluate(env)
            if addr in foot_a:
                witness = (
                    foot_a[addr],
                    tuple(env[d.key] for d in b.loops),
                )
                break
    if witness is None:
        return PairVerdict(
            verdict="independent", test="enumeration",
            reason="exact footprints are disjoint", **base,
        )

    it_a, it_b = witness
    n = len(common)
    concrete = tuple(it_b[i] - it_a[i] for i in range(n))
    distance = _symbolic_distance(a, b, common, concrete)
    # Same-iteration needs a shared nest: cross-region pairs (no common
    # loop) are ordered by whole-region control invocation instead.
    same_iter = (
        bool(common) and all(d == 0 for d in concrete) and not self_pair
    )
    return PairVerdict(
        verdict="ordered", test="enumeration",
        reason="dependence witnessed at iterations "
               f"{it_a} -> {it_b}",
        distance=distance, witness=witness,
        same_iteration=same_iter, **base,
    )


def _symbolic_distance(
    a: MemAccess,
    b: MemAccess,
    common: Tuple[LoopDim, ...],
    concrete: Tuple[int, ...],
) -> Tuple[Optional[int], ...]:
    """Distance over the common nest; None (= ``*``) where a dimension
    is unconstrained (zero coefficient on both sides → any distance
    solves the equation, the witness value is arbitrary)."""
    assert a.index is not None and b.index is not None
    ca = a.index.as_dict()
    cb = b.index.as_dict()
    out: List[Optional[int]] = []
    for i, dim in enumerate(common):
        if ca.get(dim.key, 0) == 0 and cb.get(dim.key, 0) == 0:
            out.append(None)
        else:
            out.append(concrete[i])
    return tuple(out)


# --------------------------------------------------------------------------
# Whole-kernel report
# --------------------------------------------------------------------------


@dataclass
class MemDepReport:
    """Every access site and pair verdict for one kernel."""

    kernel: str
    accesses: List[MemAccess] = field(default_factory=list)
    pairs: List[PairVerdict] = field(default_factory=list)

    @property
    def mem_class(self) -> str:
        if any(p.verdict == "unknown" for p in self.pairs):
            return MEM_LSQ_REQUIRED
        return MEM_STATIC_OK

    @property
    def unknown_pairs(self) -> List[PairVerdict]:
        return [p for p in self.pairs if p.verdict == "unknown"]

    @property
    def ordered_pairs(self) -> List[PairVerdict]:
        return [p for p in self.pairs if p.verdict == "ordered"]

    @property
    def independent_pairs(self) -> List[PairVerdict]:
        return [p for p in self.pairs if p.verdict == "independent"]

    def access(self, site: str) -> MemAccess:
        for acc in self.accesses:
            if acc.site == site:
                return acc
        raise AnalysisError(f"unknown access site {site!r}")

    def arrays(self) -> List[str]:
        return sorted({acc.array for acc in self.accesses})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "mem_class": self.mem_class,
            "accesses": [
                {
                    "site": acc.site,
                    "kind": acc.kind,
                    "array": acc.array,
                    "loops": [d.var for d in acc.loops],
                    "index": (
                        acc.index.pretty() if acc.index is not None else None
                    ),
                    "reason": acc.reason or None,
                    "guards": acc.guards,
                }
                for acc in self.accesses
            ],
            "pairs": [p.to_dict() for p in self.pairs],
        }


def analyze_kernel(kernel: Any) -> MemDepReport:
    """Extract access sites from ``kernel`` and test every pair.

    Pairs are every (load, store) and (store, store) combination per
    array — including each looped store site against *itself* (output
    dependence across iterations).  Loads never conflict with loads.
    """
    ex = _Extractor(kernel)
    ex.walk_block(kernel.body)
    report = MemDepReport(kernel=kernel.name, accesses=ex.accesses)

    by_array: Dict[str, List[MemAccess]] = {}
    for acc in ex.accesses:
        by_array.setdefault(acc.array, []).append(acc)

    for array in sorted(by_array):
        sites = by_array[array]
        for i, a in enumerate(sites):
            for b in sites[i:]:
                if a.kind == "load" and b.kind == "load":
                    continue
                if a.site == b.site and a.kind != "store":
                    continue
                report.pairs.append(_verdict_for_pair(a, b))
    return report


# --------------------------------------------------------------------------
# Circuit-side helpers (site <-> port mapping)
# --------------------------------------------------------------------------


def site_ports(circuit: Any) -> Dict[str, str]:
    """``mem_site`` tag -> unit name for every memory port in ``circuit``.

    Restricted to Load/StorePort units: fork materialization copies unit
    meta wholesale (to propagate CFC tags), so a port with multiple
    consumers leaves a ``mem_site``-tagged fork behind it too.
    """
    from ..circuit import LoadPort, StorePort

    out: Dict[str, str] = {}
    for name, unit in circuit.units.items():
        site = unit.meta.get("mem_site")
        if site is not None and isinstance(unit, (LoadPort, StorePort)):
            out[site] = name
    return out


def has_dataflow_path(circuit: Any, src: str, dst: str) -> bool:
    """True when some channel path leads from unit ``src`` to ``dst``.

    Plain reachability over the handshake graph — a conservative stand-in
    for "the earlier access's completion gates the later access" (the
    value chain of a read-modify-write, or the ``@dep`` token of a
    store-to-load edge).
    """
    if src not in circuit.units or dst not in circuit.units:
        return False
    seen: Set[str] = {src}
    frontier = [src]
    while frontier:
        name = frontier.pop()
        if name == dst:
            return True
        unit = circuit.units[name]
        for ch in circuit.out_channels(unit):
            nxt = ch.dst.unit
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return dst in seen


def load_is_dep_gated(circuit: Any, port_name: str, hops: int = 10) -> bool:
    """True when ``port_name``'s address input is fed (through buffers)
    by a memory-dependency gate join — the structure the lowering builds
    to serialize a load behind the previous store of its array."""
    unit = circuit.units.get(port_name)
    if unit is None:
        return False
    for _ in range(hops):
        ch = circuit.in_channel(unit, 0)
        if ch is None:
            return False
        src = circuit.units.get(ch.src.unit)
        if src is None:
            return False
        if src.meta.get("mem_gate") is not None:
            return True
        if src.n_in == 1 and type(src).__name__ in (
            "ElasticBuffer", "TransparentFifo",
        ):
            unit = src
            continue
        return False
    return False


# --------------------------------------------------------------------------
# Simulation-backed soundness gate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DepMeasurement:
    """Observed address behaviour of one statically-judged pair."""

    array: str
    a: str
    b: str
    verdict: str
    #: True when the two sites touched >= 1 common address (for a self
    #: pair: some address was hit more than once).
    observed_alias: bool
    #: One concrete overlapping address, when any.
    witness_addr: Optional[int]
    a_addresses: int
    b_addresses: int

    @property
    def sound(self) -> bool:
        """An ``independent`` proof is refuted by any observed alias."""
        return not (self.verdict == "independent" and self.observed_alias)


def measure_dependences(
    lowered: Any,
    report: Optional[MemDepReport] = None,
    backend: Optional[str] = None,
    seed: int = 7,
    max_cycles: int = 4_000_000,
) -> List[DepMeasurement]:
    """Replay ``lowered`` once, recording every address each memory port
    issues, and compare the observed footprints against the static
    verdicts: a statically-``independent`` pair must never alias.

    The recording rides on the runtime sanitizer
    (:class:`repro.sim.sanitize.HandshakeSanitizer` with ``alias_pairs``)
    so the run also *raises* SAN005 online if an independent pair
    aliases; the returned measurements additionally report the observed
    overlap of ``ordered``/``unknown`` pairs (expected, not a failure).
    """
    from ..frontend import simulate_kernel  # local: sim must stay lazy here
    from ..sim.sanitize import HandshakeSanitizer

    if report is None:
        report = analyze_kernel(lowered.kernel)
    ports = site_ports(lowered.circuit)

    pairs: List[Tuple[str, str, str, str]] = []
    watched: List[Tuple[PairVerdict, str, str]] = []
    for p in report.pairs:
        ua = ports.get(p.a)
        ub = ports.get(p.b)
        if ua is None or ub is None:
            continue  # site not materialized in this circuit build
        watched.append((p, ua, ub))
        if p.verdict == "independent":
            pairs.append((ua, ub, p.array, p.label()))

    san = HandshakeSanitizer(lowered.circuit, alias_pairs=pairs)
    simulate_kernel(
        lowered, backend=backend, seed=seed, max_cycles=max_cycles,
        sanitize=san,
    )

    out: List[DepMeasurement] = []
    for p, ua, ub in watched:
        counts_a = san.addresses_of(ua)
        counts_b = san.addresses_of(ub)
        witness: Optional[int] = None
        if ua == ub:
            for addr, n in counts_a.items():
                if n >= 2:
                    witness = addr
                    break
        else:
            overlap = set(counts_a) & set(counts_b)
            if overlap:
                witness = min(overlap)
        out.append(DepMeasurement(
            array=p.array, a=p.a, b=p.b, verdict=p.verdict,
            observed_alias=witness is not None, witness_addr=witness,
            a_addresses=len(counts_a), b_addresses=len(counts_b),
        ))
    return out
