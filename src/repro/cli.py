"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``kernels``
    List the benchmark kernels with their floating-point operator census.
``run``
    Run one (kernel, technique, style) pipeline and print the table row.
``wrapper``
    Characterize a standalone sharing wrapper (Figures 9/10 style).
``sweep``
    Fan a matrix of (kernel, technique, style) pipeline runs out across
    worker processes, with a persistent on-disk result cache.
``profile``
    Simulate one kernel with hot-loop instrumentation and print the
    per-backend profile report (hot units, phase breakdown, cycles/sec).
``lint``
    Statically check built circuits (credit invariants, structure)
    without simulating; exit 0 clean / 3 warnings / 4 errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_kernels(args) -> int:
    from .circuit import FunctionalUnit
    from .frontend import lower_kernel
    from .frontend.kernels import KERNEL_NAMES, build

    print(f"{'kernel':10s} {'params':28s} {'floating-point units'}")
    for name in KERNEL_NAMES:
        kernel = build(name, scale=args.scale)
        lowered = lower_kernel(kernel, "bb")
        census: dict = {}
        for u in lowered.circuit.units_of_type(FunctionalUnit):
            if u.spec.shareable:
                census[u.op] = census.get(u.op, 0) + 1
        fu = " ".join(f"{v} {k}" for k, v in sorted(census.items()))
        params = ", ".join(f"{k}={v}" for k, v in kernel.params.items())
        print(f"{name:10s} {params:28s} {fu}")
    return 0


def _parse_seeds(spec: str) -> List[int]:
    try:
        seeds = [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise SystemExit(f"error: --seeds wants comma-separated integers, "
                         f"got {spec!r}")
    if not seeds:
        raise SystemExit("error: --seeds wants at least one integer")
    return seeds


def _cmd_run(args) -> int:
    from .pipeline import run_technique, run_technique_batch

    seeds = _parse_seeds(args.seeds)
    if args.lanes is not None and args.lanes < 1:
        print("error: --lanes wants a positive integer", file=sys.stderr)
        return 2
    if len(seeds) > 1 and args.no_sim:
        print("error: --seeds with several values needs simulation "
              "(drop --no-sim)", file=sys.stderr)
        return 2
    if len(seeds) > 1 and args.sanitize:
        print("error: --sanitize is scalar-only and cannot combine "
              "with a multi-seed batched run", file=sys.stderr)
        return 2
    common = dict(style=args.style, scale=args.scale,
                  sim_backend=args.sim_backend, lint=args.lint)
    if len(seeds) == 1:
        batches = [[run_technique(
            args.kernel, args.technique, simulate=not args.no_sim,
            sanitize=True if args.sanitize else None, seed=seeds[0],
            **common,
        )]]
    else:
        width = args.lanes or len(seeds)
        batches = [
            run_technique_batch(args.kernel, args.technique,
                                seeds=seeds[i:i + width], **common)
            for i in range(0, len(seeds), width)
        ]

    head = batches[0][0]
    print(f"kernel      : {head.kernel} [{head.style}, scale={args.scale}]")
    print(f"technique   : {head.technique}")
    print(f"units       : {head.fu_census}")
    print(f"DSPs        : {head.dsp}")
    print(f"slices      : {head.slices}")
    print(f"LUTs        : {head.lut}")
    print(f"FFs         : {head.ff}")
    print(f"CP          : {head.cp_ns} ns")
    if not args.no_sim:
        n_b = len(batches)
        print(f"seeds       : {len(seeds)} ({head.sim_backend} backend, "
              f"{n_b} batch{'es' if n_b > 1 else ''})")
        for rows in batches:
            for row in rows:
                print(f"  seed {row.seed:<6d}: {row.cycles} cycles, "
                      f"{row.exec_time_us} us (verified against reference)")
        # One head row per batch carries that batch's provenance (every
        # row of a batch shares it).
        promoted = [rows[0] for rows in batches if rows[0].mask_promotions]
        if all(rows[0].data_plane == "scalar" for rows in batches):
            line = "seed by seed"
        elif promoted:
            sites = sorted({h.divergence for h in promoted if h.divergence})
            line = (f"mask-lanes in {len(promoted)}/{n_b} batch(es) "
                    f"(diverged on {', '.join(sites)})")
        else:
            line = "lockstep (no control divergence)"
        print(f"execution   : {line}")
    print(f"opt time    : {head.opt_time_s} s")
    if args.lint != "off":
        print(f"lint        : {head.lint_errors} error(s), "
              f"{head.lint_warnings} warning(s)")
    if head.groups:
        sizes = sorted((len(g) for g in head.groups), reverse=True)
        print(f"groups      : {len(sizes)} (sizes {sizes})")
    return 0


def _cmd_wrapper(args) -> int:
    from .core.standalone import (
        paper_credits,
        shared_group_resources,
        unshared_group_resources,
        wrapper_component_breakdown,
    )

    n = args.size
    shared = shared_group_resources(n, args.op)
    unshared = unshared_group_resources(n, args.op)
    print(f"sharing {n} x {args.op} on one unit "
          f"({paper_credits(n, args.op)} credits per op, Eq. 3):")
    print(f"  unshared: LUT {unshared.lut:5d}  FF {unshared.ff:5d}  DSP {unshared.dsp}")
    print(f"  shared  : LUT {shared.lut:5d}  FF {shared.ff:5d}  DSP {shared.dsp}")
    if n >= 2:
        print("  breakdown:")
        for comp, res in wrapper_component_breakdown(n, args.op).items():
            print(f"    {comp:18s} LUT {res.lut:4d}  FF {res.ff:4d}")
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import (
        ProgressReporter,
        ResultCache,
        build_matrix,
        run_sweep,
        write_outputs,
    )

    if args.lanes is not None and args.lanes < 1:
        print("error: --lanes wants a positive integer", file=sys.stderr)
        return 2
    jobs = build_matrix(
        kernels=args.kernel or None,
        techniques=args.technique or None,
        styles=tuple(args.style) if args.style else ("bb",),
        scale=args.scale,
        simulate=not args.no_sim,
        sim_backend=args.sim_backend,
        seeds=tuple(_parse_seeds(args.seeds)),
    )
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        print(f"cache       : {cache.cache_dir}")
    lanes_note = f", lanes={args.lanes}" if args.lanes else ""
    print(f"matrix      : {len(jobs)} jobs, {args.jobs} worker(s)"
          f"{lanes_note}")

    reporter = ProgressReporter(total=len(jobs), quiet=args.quiet)
    outcome = run_sweep(
        jobs,
        workers=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        on_record=reporter,
        lanes=args.lanes,
    )
    reporter.summary(outcome)
    paths = write_outputs(outcome, args.out_dir, basename=args.out)
    print(f"artifacts   : {paths['json']} {paths['csv']}")
    # Failed rows are *captured*, not fatal: the sweep itself succeeded.
    return 0


def _cmd_profile(args) -> int:
    from .errors import SimulationError
    from .frontend import simulate_kernel
    from .pipeline import prepare_circuit
    from .sim import DEFAULT_BACKEND, SimProfile

    if args.lanes is not None:
        # Same contract as the engine itself: the lane-parallel loop has
        # no per-unit instrumentation points, so profiling is scalar-only.
        print("error: profiling is scalar-only (the lane-parallel loop "
              "has no per-unit instrumentation points); drop --lanes "
              "(batched divergence/mask-promotion counters are reported "
              "by 'repro run --seeds ...' and the sweep CSV instead)",
              file=sys.stderr)
        return 2

    # The exact circuit the evaluation pipeline simulates.
    lowered = prepare_circuit(args.kernel, args.technique, style=args.style,
                              scale=args.scale).lowered

    if args.backend == "both":
        # Both *instrumented* backends; codegen has no per-unit hooks.
        backends = ["event", "compiled"]
    else:
        backends = [args.backend or DEFAULT_BACKEND]

    reports = []
    for backend in backends:
        prof = SimProfile()
        try:
            run = simulate_kernel(
                lowered, max_cycles=args.max_cycles,
                backend=backend, profile=prof,
                sanitize=True if args.sanitize else None,
            )
        except SimulationError as exc:
            # Unsupported backend/observer combination (e.g. profiling
            # the codegen backend): report cleanly, no traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reports.append((backend, prof, run))

    print(f"kernel      : {args.kernel} [{args.style}, scale={args.scale}, "
          f"technique={args.technique}]")
    for backend, prof, run in reports:
        print()
        print(prof.report(top=args.top))
    if len(reports) == 2:
        a, b = reports
        if a[2].cycles != b[2].cycles:
            print(f"\nWARNING: backends disagree on cycle count "
                  f"({a[0]}={a[2].cycles}, {b[0]}={b[2].cycles})")
        elif a[1].cycles_per_sec and b[1].cycles_per_sec:
            fast = max(reports, key=lambda r: r[1].cycles_per_sec)
            slow = min(reports, key=lambda r: r[1].cycles_per_sec)
            ratio = fast[1].cycles_per_sec / slow[1].cycles_per_sec
            print(f"\nspeedup     : {fast[0]} is {ratio:.1f}x faster than "
                  f"{slow[0]} ({a[2].cycles} cycles, identical results)")
    return 0


def _golden_expected_ii(golden_dir, kernel: str, technique: str):
    """The recorded ``predicted_ii`` golden for one pair, as a Fraction.

    Returns None (FL005 stays disarmed) when the golden file or the
    field is absent — older goldens predate the column.
    """
    import json as _json
    from fractions import Fraction
    from pathlib import Path

    path = Path(golden_dir) / f"{kernel}-{technique}.json"
    if not path.is_file():
        return None
    value = _json.loads(path.read_text()).get("predicted_ii")
    if not value:
        return None
    return Fraction(value)


def _cmd_lint(args) -> int:
    import json as _json

    from .frontend.kernels import KERNEL_NAMES
    from .lint import EXIT_CLEAN, LintConfig, sarif_json
    from .pipeline import TECHNIQUES, lint_prepared, prepare_circuit

    config = LintConfig.from_specs(args.rule or [])
    fmt = "json" if args.json else args.format
    if args.all:
        targets = [(k, t) for k in KERNEL_NAMES for t in TECHNIQUES]
    elif args.kernel:
        targets = [(args.kernel, args.technique)]
    else:
        print("error: give a kernel (and optional technique) or --all",
              file=sys.stderr)
        return 2

    worst = EXIT_CLEAN
    reports = []
    for kn, tech in targets:
        prep = prepare_circuit(kn, tech, style=args.style, scale=args.scale)
        expected = None
        if args.golden_dir:
            expected = _golden_expected_ii(args.golden_dir, kn, tech)
        report = lint_prepared(prep, config=config, expected_ii=expected)
        report.context = None  # keep the findings, not every circuit
        reports.append((kn, tech, report))
        # Exit codes order by badness: 0 clean < 3 warnings < 4 errors.
        worst = max(worst, report.exit_code(strict=args.strict))
        if fmt == "text":
            print(f"{kn}/{tech}: {report.format()}")

    if fmt == "json":
        payload = [
            {"kernel": kn, "technique": tech, **report.to_dict()}
            for kn, tech, report in reports
        ]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "sarif":
        print(sarif_json(reports))
    elif len(reports) > 1:
        dirty = sum(1 for _, _, r in reports if not r.ok)
        print(f"linted {len(reports)} configuration(s), {dirty} with findings")
    return worst


def _cmd_analyze(args) -> int:
    if args.what == "ii":
        return _cmd_analyze_ii(args)
    if args.what == "memdep":
        return _cmd_analyze_memdep(args)
    print(f"error: unknown analysis {args.what!r}", file=sys.stderr)
    return 2


def _cmd_analyze_ii(args) -> int:
    """Predicted-vs-simulated steady-state II over (kernel, technique)
    pairs; nonzero exit if any simulated II exceeds its static bound."""
    import json as _json

    from .analysis import measure_predictions
    from .frontend.kernels import KERNEL_NAMES
    from .pipeline import TECHNIQUES, predict_ii, prepare_circuit

    kernels = args.kernel or list(KERNEL_NAMES)
    techniques = args.technique or list(TECHNIQUES)
    targets = [(k, t) for k in kernels for t in techniques]

    rows = []
    unsound = deadly = 0
    for kn, tech in targets:
        prep = prepare_circuit(kn, tech, style=args.style, scale=args.scale)
        analysis = predict_ii(prep)
        issues = [i for i in analysis.issues if i.deadly]
        deadly += len(issues)
        measurements = measure_predictions(
            prep.lowered, analysis,
            backend=args.sim_backend, seed=args.seed,
            max_cycles=args.max_cycles,
        ) if not args.no_sim else []
        if not measurements and not args.no_sim and not analysis.predictions:
            rows.append((kn, tech, "-", None, None, "no-cfc"))
        for m in measurements:
            if m.predicted is None:
                status = "deadlock"
            elif m.simulated is None:
                status = "no-data"
            elif not m.sound:
                status = "UNSOUND"
                unsound += 1
            elif m.exact:
                status = "exact"
            else:
                status = "sound"
            rows.append((kn, tech, m.cfc, m.predicted, m.simulated, status))
        if args.no_sim:
            for name, pred in sorted(analysis.predictions.items()):
                rows.append((kn, tech, name, pred.ii, None, "static-only"))
        for issue in issues:
            rows.append((kn, tech, issue.kind, None, None, "ISSUE"))

    if args.json:
        payload = [
            {
                "kernel": kn, "technique": tech, "cfc": cfc,
                "predicted_ii": str(pred) if pred is not None else None,
                "simulated_ii": str(sim) if sim is not None else None,
                "status": status,
            }
            for kn, tech, cfc, pred, sim, status in rows
        ]
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'kernel':10s} {'technique':9s} {'cfc':14s} "
              f"{'predicted':>9s} {'simulated':>9s}  status")
        for kn, tech, cfc, pred, sim, status in rows:
            p = str(pred) if pred is not None else "-"
            s = str(sim) if sim is not None else "-"
            print(f"{kn:10s} {tech:9s} {cfc:14s} {p:>9s} {s:>9s}  {status}")
        exact = sum(1 for r in rows if r[5] == "exact")
        sound = sum(1 for r in rows if r[5] in ("exact", "sound"))
        print(f"\n{len(rows)} row(s): {sound} sound ({exact} exact), "
              f"{unsound} unsound, {deadly} flow issue(s)")

    if unsound or deadly:
        print("error: static II bound violated (simulated II exceeded the "
              "prediction) or deadly flow issues found", file=sys.stderr)
        return 4
    return 0


def _cmd_analyze_memdep(args) -> int:
    """Static memory-dependence verdicts per (kernel, technique), the MD
    lint findings on the built circuit, and — unless ``--no-sim`` — the
    runtime alias soundness gate; exit 4 on any proved violation."""
    import json as _json

    from .analysis import measure_dependences
    from .errors import LintError
    from .frontend.kernels import KERNEL_NAMES
    from .lint import LintReport, sarif_json
    from .pipeline import TECHNIQUES, lint_prepared, prepare_circuit

    kernels = args.kernel or list(KERNEL_NAMES)
    techniques = args.technique or list(TECHNIQUES)
    fmt = "json" if args.json else args.format

    rows = []
    payload = []
    sarif_reports = []
    md_errors = unsound = 0
    for kn in kernels:
        for tech in techniques:
            prep = prepare_circuit(
                kn, tech, style=args.style, scale=args.scale
            )
            # The lint run analyses the kernel's memory dependences
            # once; the table reads that report.
            lint = lint_prepared(prep)
            dep = lint.context.memdep
            md_diags = [
                d for d in lint.diagnostics if d.code.startswith("MD")
            ]
            md_errors += sum(
                1 for d in md_diags if d.severity == "error"
            )
            filtered = LintReport(circuit=lint.circuit)
            filtered.extend(md_diags)
            sarif_reports.append((kn, tech, filtered))

            soundness = "skipped"
            measurements = []
            if not args.no_sim:
                try:
                    measurements = measure_dependences(
                        prep.lowered, report=dep,
                        backend=args.sim_backend, seed=args.seed,
                        max_cycles=args.max_cycles,
                    )
                except LintError as exc:
                    # SAN005 fired online: an independent pair aliased.
                    unsound += 1
                    soundness = "UNSOUND"
                    measurements = []
                    print(f"{kn}/{tech}: {exc}", file=sys.stderr)
                else:
                    bad = [m for m in measurements if not m.sound]
                    unsound += len(bad)
                    soundness = "UNSOUND" if bad else "sound"

            rows.append((
                kn, tech, dep.mem_class, len(dep.pairs),
                len(dep.independent_pairs), len(dep.ordered_pairs),
                len(dep.unknown_pairs), len(md_diags), soundness,
            ))
            payload.append({
                "kernel": kn,
                "technique": tech,
                "memdep": dep.to_dict(),
                "md_diagnostics": [d.to_dict() for d in md_diags],
                "soundness": soundness,
                "measurements": [
                    {
                        "array": m.array, "a": m.a, "b": m.b,
                        "verdict": m.verdict,
                        "observed_alias": m.observed_alias,
                        "witness_addr": m.witness_addr,
                        "a_addresses": m.a_addresses,
                        "b_addresses": m.b_addresses,
                        "sound": m.sound,
                    }
                    for m in measurements
                ],
            })

    if fmt == "json":
        print(_json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "sarif":
        print(sarif_json(sarif_reports))
    else:
        print(f"{'kernel':14s} {'technique':9s} {'class':13s} "
              f"{'pairs':>5s} {'indep':>5s} {'order':>5s} {'unkn':>5s} "
              f"{'md':>3s}  soundness")
        for kn, tech, cls, np_, ni, no, nu, nd, snd in rows:
            print(f"{kn:14s} {tech:9s} {cls:13s} {np_:5d} {ni:5d} "
                  f"{no:5d} {nu:5d} {nd:3d}  {snd}")
        lsq = sum(1 for r in rows if r[2] == "lsq-required")
        print(f"\n{len(rows)} row(s): {lsq} lsq-required, "
              f"{md_errors} MD error(s), {unsound} unsound pair(s)")

    if md_errors or unsound:
        print("error: proved memory-dependence violation (MD error "
              "diagnostics or a statically-independent pair aliased at "
              "runtime)", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRUSH reproduction: credit-based FU sharing for "
                    "dynamically scheduled HLS (ASPLOS'25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_k = sub.add_parser("kernels", help="list benchmark kernels")
    p_k.add_argument("--scale", choices=("small", "paper"), default="paper")
    p_k.set_defaults(fn=_cmd_kernels)

    p_r = sub.add_parser("run", help="run one kernel through a technique")
    p_r.add_argument("kernel")
    p_r.add_argument(
        "technique", choices=("naive", "inorder", "crush"), nargs="?",
        default="crush",
    )
    p_r.add_argument("--style", choices=("bb", "fast-token"), default="bb")
    p_r.add_argument("--scale", choices=("small", "paper"), default="small")
    p_r.add_argument("--no-sim", action="store_true",
                     help="skip simulation (resources only)")
    p_r.add_argument("--sim-backend",
                     choices=("event", "compiled", "codegen"),
                     default=None,
                     help="simulation backend (default: $REPRO_SIM_BACKEND "
                          "or compiled); all are bit-identical")
    p_r.add_argument("--lint", choices=("off", "warn", "strict"),
                     default="warn",
                     help="static pre-simulation gate (default: warn — "
                          "fail only on error diagnostics)")
    p_r.add_argument("--sanitize", action="store_true",
                     help="assert the handshake protocol on every channel "
                          "each cycle (also: REPRO_SIM_SANITIZE=1)")
    p_r.add_argument("--seeds", default="7", metavar="N[,N...]",
                     help="input-data seed(s); several seeds run as lanes "
                          "of one batched simulation, one verified table "
                          "row each (default: 7)")
    p_r.add_argument("--lanes", type=int, default=None, metavar="B",
                     help="cap the lane count of a multi-seed run: seeds "
                          "chunk into batches of <= B (default: all seeds "
                          "in one batch); 1, and the event backend, run "
                          "seed by seed")
    p_r.set_defaults(fn=_cmd_run)

    p_w = sub.add_parser("wrapper", help="characterize a standalone wrapper")
    p_w.add_argument("--size", type=int, default=7)
    p_w.add_argument("--op", default="fadd")
    p_w.set_defaults(fn=_cmd_wrapper)

    p_s = sub.add_parser(
        "sweep",
        help="run a (kernel x technique x style) evaluation matrix in "
             "parallel, with a persistent result cache",
    )
    p_s.add_argument("--kernel", action="append", metavar="NAME",
                     help="restrict to this kernel (repeatable)")
    p_s.add_argument("--technique", action="append", metavar="NAME",
                     choices=("naive", "inorder", "crush"),
                     help="restrict to this technique (repeatable)")
    p_s.add_argument("--style", action="append",
                     choices=("bb", "fast-token"),
                     help="circuit style(s) to sweep (default: bb)")
    p_s.add_argument("--scale", choices=("small", "paper"), default="paper")
    p_s.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (0 = serial in-process)")
    p_s.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="per-job wall-clock timeout (worker mode only)")
    p_s.add_argument("--retries", type=int, default=1,
                     help="retries per failing job (default: 1)")
    p_s.add_argument("--no-cache", action="store_true",
                     help="do not read or write the persistent cache")
    p_s.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache location (default: $REPRO_SWEEP_CACHE or "
                          "~/.cache/crush-repro/sweep)")
    p_s.add_argument("--no-sim", action="store_true",
                     help="skip simulation (resources only, no cycles)")
    p_s.add_argument("--sim-backend",
                     choices=("event", "compiled", "codegen"),
                     default=None,
                     help="simulation backend for every job (default: "
                          "$REPRO_SIM_BACKEND or compiled)")
    p_s.add_argument("--seeds", default="7", metavar="N[,N...]",
                     help="input-data seed(s); the matrix gets one job "
                          "per seed (default: 7)")
    p_s.add_argument("--lanes", type=int, default=None, metavar="B",
                     help="batch up to B seed-adjacent jobs into one "
                          "lane-parallel simulation (cache rows stay "
                          "per-seed; results are bit-identical); 1, and "
                          "the event backend, run seed by seed")
    p_s.add_argument("--out-dir", default="benchmarks/results",
                     metavar="DIR", help="artifact directory")
    p_s.add_argument("--out", default="sweep", metavar="BASE",
                     help="artifact basename (<BASE>.json, <BASE>.csv)")
    p_s.add_argument("--quiet", action="store_true",
                     help="suppress per-job progress lines")
    p_s.set_defaults(fn=_cmd_sweep)

    p_p = sub.add_parser(
        "profile",
        help="simulate one kernel with hot-loop instrumentation and "
             "print the profile report",
    )
    p_p.add_argument("kernel")
    p_p.add_argument("--technique", choices=("naive", "inorder", "crush"),
                     default="crush")
    p_p.add_argument("--style", choices=("bb", "fast-token"), default="bb")
    p_p.add_argument("--scale", choices=("small", "paper"), default="small")
    p_p.add_argument("--backend", "--sim-backend", dest="backend",
                     choices=("event", "compiled", "codegen", "both"),
                     default="both",
                     help="backend(s) to profile (default: both "
                          "instrumented backends, with a head-to-head "
                          "speedup line); codegen has no instrumentation "
                          "points and is rejected with a clean error")
    p_p.add_argument("--top", type=int, default=10, metavar="N",
                     help="hot units to list per backend (default: 10)")
    p_p.add_argument("--max-cycles", type=int, default=4_000_000)
    p_p.add_argument("--sanitize", action="store_true",
                     help="assert the handshake protocol while profiling")
    p_p.add_argument("--lanes", type=int, default=None, metavar="B",
                     help="rejected with a clean error: profiling is "
                          "scalar-only")
    p_p.set_defaults(fn=_cmd_profile)

    p_l = sub.add_parser(
        "lint",
        help="statically check built circuits without simulating "
             "(exit 0 = clean, 3 = warnings, 4 = errors)",
    )
    p_l.add_argument("kernel", nargs="?", default=None,
                     help="kernel to lint (omit with --all)")
    p_l.add_argument("technique", choices=("naive", "inorder", "crush"),
                     nargs="?", default="crush")
    p_l.add_argument("--all", action="store_true",
                     help="lint every (kernel, technique) configuration")
    p_l.add_argument("--style", choices=("bb", "fast-token"), default="bb")
    p_l.add_argument("--scale", choices=("small", "paper"), default="small")
    p_l.add_argument("--json", action="store_true",
                     help="shorthand for --format json")
    p_l.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text",
                     help="report format (sarif = SARIF 2.1.0 for "
                          "code-scanning UIs; default: text)")
    p_l.add_argument("--golden-dir", default=None, metavar="DIR",
                     help="directory of golden result files "
                          "(<kernel>-<technique>.json); arms the FL005 "
                          "predicted-II regression check against the "
                          "recorded predicted_ii")
    p_l.add_argument("--strict", action="store_true",
                     help="treat warnings as failures (exit 4)")
    p_l.add_argument("--rule", action="append", metavar="CODE=LEVEL",
                     help="per-rule override: CODE=off disables, "
                          "CODE=info|warning|error re-severities "
                          "(repeatable)")
    p_l.set_defaults(fn=_cmd_lint)

    p_a = sub.add_parser(
        "analyze",
        help="static token-flow analyses (predicted steady-state II, "
             "deadlock-freedom) with optional simulation cross-checks",
    )
    a_sub = p_a.add_subparsers(dest="what", required=True)
    p_ii = a_sub.add_parser(
        "ii",
        help="predicted-vs-simulated steady-state II table; exit 4 when "
             "any simulated II exceeds its static bound",
    )
    p_ii.add_argument("--kernel", action="append", metavar="NAME",
                      help="restrict to this kernel (repeatable; "
                           "default: all)")
    p_ii.add_argument("--technique", action="append", metavar="NAME",
                      choices=("naive", "inorder", "crush"),
                      help="restrict to this technique (repeatable; "
                           "default: all)")
    p_ii.add_argument("--style", choices=("bb", "fast-token"), default="bb")
    p_ii.add_argument("--scale", choices=("small", "paper"),
                      default="small")
    p_ii.add_argument("--sim-backend",
                      choices=("event", "compiled", "codegen"),
                      default=None,
                      help="backend for the measurement simulation")
    p_ii.add_argument("--seed", type=int, default=7,
                      help="input-data seed for the measurement (default: 7)")
    p_ii.add_argument("--max-cycles", type=int, default=4_000_000)
    p_ii.add_argument("--no-sim", action="store_true",
                      help="static predictions only, no simulation "
                           "cross-check")
    p_ii.add_argument("--json", action="store_true",
                      help="machine-readable rows on stdout")
    p_ii.set_defaults(fn=_cmd_analyze)

    p_md = a_sub.add_parser(
        "memdep",
        help="static memory-dependence verdicts, MD lint findings, and "
             "the runtime alias soundness gate; exit 4 on a proved "
             "violation",
    )
    p_md.add_argument("--kernel", action="append", metavar="NAME",
                      help="restrict to this kernel (repeatable; "
                           "default: all)")
    p_md.add_argument("--technique", action="append", metavar="NAME",
                      choices=("naive", "inorder", "crush"),
                      help="restrict to this technique (repeatable; "
                           "default: all)")
    p_md.add_argument("--all", action="store_true",
                      help="analyze every (kernel, technique) "
                           "configuration (the default when no --kernel "
                           "is given; spelled out for CI scripts)")
    p_md.add_argument("--style", choices=("bb", "fast-token"),
                      default="bb")
    p_md.add_argument("--scale", choices=("small", "paper"),
                      default="small")
    p_md.add_argument("--sim-backend",
                      choices=("event", "compiled", "codegen"),
                      default=None,
                      help="backend for the alias-recording simulation")
    p_md.add_argument("--seed", type=int, default=7,
                      help="input-data seed for the measurement "
                           "(default: 7)")
    p_md.add_argument("--max-cycles", type=int, default=4_000_000)
    p_md.add_argument("--no-sim", action="store_true",
                      help="static verdicts and MD lint only, no "
                           "runtime alias cross-check")
    p_md.add_argument("--json", action="store_true",
                      help="shorthand for --format json")
    p_md.add_argument("--format", choices=("table", "json", "sarif"),
                      default="table",
                      help="output format (sarif = MD findings as "
                           "SARIF 2.1.0; default: table)")
    p_md.set_defaults(fn=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1
