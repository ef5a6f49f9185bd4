"""The full evaluation pipeline: kernel → circuit → technique → metrics.

Reproduces the methodology of the paper's Section 6.1 for one (kernel,
technique, style) combination: lower the kernel, place buffers (the MILP
substitute — its runtime counts toward every technique's optimization
time, as in the paper), apply the sharing technique, lint the built
circuit (``repro.lint``, a cheap static gate that catches broken
handshake structure *before* paying for simulation), simulate to get the
cycle count (functional check against the C reference included), and
estimate post-synthesis resources and critical path.  ``Exec. time`` is
``CP × cycles``, the paper's formula.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from .analysis import critical_cfcs, insert_timing_buffers, place_buffers
from .baselines import inorder_share, naive_share
from .core import crush
from .errors import ReproError
from .frontend import lower_kernel, simulate_kernel, simulate_kernel_batch
from .frontend.kernels import build
from .frontend.runner import KernelRun
from .resources import ResourceEstimate, estimate_circuit
from .sim import DEFAULT_BACKEND

TECHNIQUES = ("naive", "inorder", "crush")

#: Lint gate modes for :func:`run_technique`.
LINT_MODES = ("off", "warn", "strict")


@dataclass
class TechniqueResult:
    """One row of the paper's Tables 2/3."""

    kernel: str
    technique: str
    style: str
    fu_census: str
    dsp: int
    slices: int
    lut: int
    ff: int
    cp_ns: float
    cycles: int
    exec_time_us: float
    opt_time_s: float
    groups: List[List[str]] = field(default_factory=list)
    estimate: Optional[ResourceEstimate] = None
    #: Simulation backend that produced ``cycles`` (both backends are
    #: bit-identical, so this is provenance, not a metric).
    sim_backend: str = "compiled"
    #: ``repro.lint`` diagnostic counts for the built circuit (0/0 when
    #: the lint gate was off).  Provenance, not a metric.
    lint_errors: int = 0
    lint_warnings: int = 0
    #: Input-data seed the simulation ran with (``cycles`` depends on it
    #: for data-dependent kernels).  Part of the row's identity.
    seed: int = 7
    #: Batched-run provenance (zero/empty on scalar rows and lockstep
    #: batches): lockstep→mask-lane promotions and the diverging control
    #: site (``"<channel>@<cycle>"``).  Not metrics — the numbers they
    #: annotate are bit-identical either way.
    mask_promotions: int = 0
    divergence: str = ""
    #: Data representation the simulation executed with: ``"scalar"``
    #: for one-lane runs (event batches included), ``"tuple"`` for rows
    #: from a lane-parallel batch (see :mod:`repro.sim.batched`).
    #: Provenance, not a metric — both are bit-identical.
    data_plane: str = "scalar"
    #: Statically predicted steady-state II from the token-flow analyzer
    #: (:mod:`repro.analysis.tokenflow`), as an exact ``Fraction`` string
    #: (``""`` when the kernel has no performance-critical CFC).  A sound
    #: prediction upper-bounds the simulated steady-state II; CI checks
    #: this over every golden pair (``repro analyze ii``).
    predicted_ii: str = ""
    #: Number of token-flow (``FL``) diagnostics the lint gate reported
    #: (0 when the gate was off).  Provenance, not a metric.
    flow_diags: int = 0
    #: Memory-interface class from the static memory-dependence analyzer
    #: (:mod:`repro.analysis.memdep`): ``"static-ok"`` when every
    #: load/store pair is proved independent or ordered, ``"lsq-required"``
    #: when some pair needs runtime disambiguation.
    mem_class: str = ""
    #: Number of memory-dependence (``MD``) diagnostics the lint gate
    #: reported (0 when the gate was off).  Provenance, not a metric.
    memdep_diags: int = 0

    def metrics(self) -> Dict[str, float]:
        return {
            "dsp": self.dsp,
            "slices": self.slices,
            "lut": self.lut,
            "ff": self.ff,
            "cp_ns": self.cp_ns,
            "cycles": self.cycles,
            "exec_time_us": self.exec_time_us,
            "opt_time_s": self.opt_time_s,
        }

    def deterministic_metrics(self) -> Dict[str, float]:
        """The metrics that are reproducible bit-for-bit across runs.

        Everything except ``opt_time_s``, which is a wall-clock measurement
        and therefore varies between otherwise identical executions.
        """
        m = self.metrics()
        del m["opt_time_s"]
        return m

    def to_dict(self) -> Dict[str, Any]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["groups"] = [list(g) for g in self.groups]
        data["estimate"] = self.estimate.to_dict() if self.estimate else None
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TechniqueResult":
        """Inverse of :meth:`to_dict`.

        A missing key takes the field's default and an unknown key is
        ignored, so rows written before a column was added (or after one
        was dropped) still load; a missing required key raises
        ``KeyError``.
        """
        row: Dict[str, Any] = {}
        for f in fields(cls):
            if f.name in data:
                row[f.name] = data[f.name]
            elif f.default is MISSING and f.default_factory is MISSING:
                raise KeyError(f.name)
        row["groups"] = [list(g) for g in row.get("groups", [])]
        est = row.get("estimate")
        row["estimate"] = ResourceEstimate.from_dict(est) if est else None
        return cls(**row)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Lossless JSON serialization (finite floats round-trip exactly)."""
        return json.dumps(self.to_dict(), sort_keys=True, **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "TechniqueResult":
        return cls.from_dict(json.loads(text))


@dataclass
class PreparedRun:
    """A kernel lowered, buffered, and shared — ready to lint/simulate.

    The pre-sharing steps are identical for every technique; callers that
    need the circuit itself (``repro lint``, tests, notebooks) use this
    instead of duplicating the pipeline prefix.
    """

    kernel: str
    technique: str
    style: str
    lowered: Any  # LoweredKernel
    cfcs: List[Any]  # pre-rewrite performance-critical CFCs
    decisions: Any  # CrushResult / InOrderResult / NaiveResult
    groups: List[List[str]]
    buffer_time: float

    @property
    def circuit(self):
        return self.lowered.circuit


def prepare_circuit(
    kernel_name: str,
    technique: str,
    style: str = "bb",
    scale: str = "paper",
    **size_overrides: int,
) -> PreparedRun:
    """Build, lower, buffer, and apply ``technique`` — no simulation.

    Returns the :class:`PreparedRun` with the sharing pass' decision
    record and the *pre-rewrite* CFCs, exactly what ``repro.lint`` wants.
    """
    if technique not in TECHNIQUES:
        raise ReproError(f"unknown technique {technique!r}; use {TECHNIQUES}")
    kernel = build(kernel_name, scale=scale, **size_overrides)
    lowered = lower_kernel(kernel, style=style)
    circuit = lowered.circuit

    t0 = time.perf_counter()
    cfcs = critical_cfcs(circuit)
    place_buffers(circuit, cfcs)
    buffer_time = time.perf_counter() - t0

    if technique == "naive":
        share = naive_share(circuit, cfcs)
        groups: List[List[str]] = []
    elif technique == "inorder":
        share = inorder_share(circuit, cfcs)
        groups = share.groups
    else:
        share = crush(circuit, cfcs)
        groups = share.groups
    # Final timing cleanup for every technique, so CP comparisons reflect
    # the sharing logic rather than differing numbers of optimizer passes.
    insert_timing_buffers(circuit)

    return PreparedRun(
        kernel=kernel_name,
        technique=technique,
        style=style,
        lowered=lowered,
        cfcs=list(cfcs),
        decisions=share,
        groups=groups,
        buffer_time=buffer_time,
    )


def lint_prepared(prep: PreparedRun, config=None, expected_ii=None):
    """Run ``repro.lint`` over a :class:`PreparedRun`'s circuit.

    ``expected_ii`` (an optional recorded golden steady-state II) arms
    the FL005 predicted-II regression check.
    """
    from .lint import run_lint

    return run_lint(
        prep.circuit,
        decisions=prep.decisions,
        cfcs=prep.cfcs,
        config=config,
        expected_ii=expected_ii,
        kernel=prep.lowered.kernel,
    )


def predict_ii(prep: PreparedRun):
    """Token-flow analysis of a prepared circuit.

    Returns the :class:`~repro.analysis.tokenflow.FlowAnalysis`; its
    ``.ii`` is the statically predicted steady-state II (an exact
    ``Fraction``), ``None`` when the kernel has no performance-critical
    CFC.  Pure graph analysis — no simulation.
    """
    from .analysis import analyze_circuit

    return analyze_circuit(
        prep.circuit, cfcs=prep.cfcs, decisions=prep.decisions
    )


def analyze_memdep(prep: PreparedRun):
    """Static memory-dependence analysis of a prepared run's kernel.

    Returns the :class:`~repro.analysis.memdep.MemDepReport`; its
    ``.mem_class`` is ``"static-ok"`` / ``"lsq-required"``.  Pure IR
    analysis — no simulation.
    """
    from .analysis.memdep import analyze_kernel

    return analyze_kernel(prep.lowered.kernel)


def _prepare_and_analyze(
    kernel_name: str,
    technique: str,
    style: str,
    scale: str,
    lint: str,
    size_overrides: Dict[str, int],
) -> Tuple[PreparedRun, Dict[str, Any]]:
    """The static half of a row: prepare the circuit, run the lint gate,
    and collect the lint, token-flow and memory-dependence columns.

    With the gate on, ``predicted_ii`` and ``mem_class`` come from the
    analyses the lint run cached (same ``cfcs``, ``decisions`` and
    kernel), so each prepared circuit is analysed once; only
    ``lint="off"`` calls the analyzers directly.
    """
    if lint not in LINT_MODES:
        raise ReproError(f"unknown lint mode {lint!r}; use {LINT_MODES}")
    prep = prepare_circuit(
        kernel_name, technique, style=style, scale=scale, **size_overrides
    )
    columns: Dict[str, Any] = {}
    if lint == "off":
        flow, memdep = predict_ii(prep), analyze_memdep(prep)
    else:
        from .lint import raise_on_errors

        report = lint_prepared(prep)
        raise_on_errors(report, strict=(lint == "strict"))
        flow, memdep = report.context.flow, report.context.memdep
        families = [d.code[:2] for d in report.diagnostics]
        columns.update(
            lint_errors=len(report.errors),
            lint_warnings=len(report.warnings),
            flow_diags=families.count("FL"),
            memdep_diags=families.count("MD"),
        )
    columns.update(
        predicted_ii="" if flow.ii is None else str(flow.ii),
        mem_class=memdep.mem_class,
    )
    return prep, columns


def run_technique(
    kernel_name: str,
    technique: str,
    style: str = "bb",
    scale: str = "paper",
    simulate: bool = True,
    max_cycles: int = 4_000_000,
    sim_backend: Optional[str] = None,
    lint: str = "warn",
    sanitize: Optional[bool] = None,
    seed: int = 7,
    **size_overrides: int,
) -> TechniqueResult:
    """Run the full pipeline for one table row.

    ``sim_backend`` selects the simulation backend (None = the default);
    the choice cannot change any metric — the backends are bit-identical —
    but it is recorded in the result for provenance.

    ``lint`` gates simulation on the static checks: ``"warn"`` (default)
    raises :class:`~repro.errors.LintError` on error-level diagnostics
    only — a circuit with lint errors would deadlock or miscompute, so
    failing fast beats burning ``max_cycles`` of simulation; ``"strict"``
    also fails on warnings (CI); ``"off"`` skips the gate.  Diagnostic
    counts land in the result either way.

    ``sanitize`` turns on the runtime handshake-protocol sanitizer for
    the simulation (see :mod:`repro.sim.sanitize`; None defers to
    ``$REPRO_SIM_SANITIZE``); it cannot change the cycle count, only
    fail on latency-insensitive contract violations.

    ``seed`` selects the input data set (``cycles`` depends on it for
    data-dependent kernels); it is recorded in the result.
    """
    prep, columns = _prepare_and_analyze(
        kernel_name, technique, style, scale, lint, size_overrides
    )
    run = None
    if simulate:
        run = simulate_kernel(
            prep.lowered,
            max_cycles=max_cycles,
            backend=sim_backend,
            sanitize=sanitize,
            seed=seed,
        )

    est = estimate_circuit(prep.circuit)
    return _result_row(prep, est, run, seed, sim_backend, columns)


def _result_row(
    prep: PreparedRun,
    est: ResourceEstimate,
    run: Optional[KernelRun],
    seed: int,
    sim_backend: Optional[str],
    columns: Dict[str, Any],
) -> TechniqueResult:
    """Assemble one table row from a prepared circuit, its static
    ``columns`` (:func:`_prepare_and_analyze`) and its simulation
    (``None`` when simulation was skipped: zero cycles, no provenance)."""
    cycles = run.cycles if run is not None else 0
    provenance: Dict[str, Any] = {}
    if run is not None:
        provenance = dict(
            mask_promotions=run.mask_promotions,
            divergence=run.divergence or "",
            data_plane=run.data_plane,
        )
    return TechniqueResult(
        kernel=prep.kernel,
        technique=prep.technique,
        style=prep.style,
        fu_census=est.fu_summary(),
        dsp=est.dsp,
        slices=est.slices,
        lut=est.lut,
        ff=est.ff,
        cp_ns=est.cp_ns,
        cycles=cycles,
        exec_time_us=round(est.cp_ns * cycles / 1000.0, 1),
        opt_time_s=round(prep.buffer_time + prep.decisions.opt_time_s, 4),
        groups=prep.groups,
        estimate=est,
        sim_backend=sim_backend or DEFAULT_BACKEND,
        seed=seed,
        **columns,
        **provenance,
    )


def run_technique_batch(
    kernel_name: str,
    technique: str,
    seeds: List[int],
    style: str = "bb",
    scale: str = "paper",
    max_cycles: int = 4_000_000,
    sim_backend: Optional[str] = None,
    lint: str = "warn",
    **size_overrides: int,
) -> List[TechniqueResult]:
    """One table row per seed, from one batched simulation.

    Bit-identical to ``[run_technique(..., seed=s) for s in seeds]`` in
    every deterministic metric: the circuit is prepared, linted and
    estimated **once** (those steps do not depend on input data), and
    the per-seed cycle counts come from one batched simulation
    (:func:`repro.frontend.simulate_kernel_batch`: lane-parallel on the
    generated-loop backends, seed by seed for the event backend or a
    single seed), which is bit-identical to scalar runs.
    ``opt_time_s`` is the shared preparation's wall clock, identical
    across the rows.

    Observers (``sanitize``) are scalar-only and deliberately not
    offered here.
    """
    if not seeds:
        raise ReproError("run_technique_batch needs at least one seed")
    prep, columns = _prepare_and_analyze(
        kernel_name, technique, style, scale, lint, size_overrides
    )
    runs = simulate_kernel_batch(
        prep.lowered, seeds, max_cycles=max_cycles, backend=sim_backend,
    )

    est = estimate_circuit(prep.circuit)
    return [
        _result_row(prep, est, run, seed, sim_backend, columns)
        for seed, run in zip(seeds, runs)
    ]
