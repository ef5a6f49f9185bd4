"""Figures 7, 8 and 11: FF/DSP vs execution-time trade-off scatter plots.

Each figure normalizes CRUSH's per-kernel (exec time, FF) and (exec time,
DSP) pairs to a baseline — Naive (Fig. 7), In-order (Fig. 8), Fast token
(Fig. 11) — and the paper's claim is that CRUSH's points sit on or below
the baseline's Pareto front (ratios ≤ 1 on the resource axis, ~1 on the
time axis).  Emitted as CSV series plus an ASCII scatter.
"""

import statistics

import pytest

from repro.frontend.kernels import PAPER_KERNELS
from repro.reporting import Series, ascii_scatter, series_csv, write_csv

from _support import get_row, results_path


def tradeoff_series(style, base_tech, metric):
    s = Series("CRUSH")
    for k in PAPER_KERNELS:
        base = get_row(k, base_tech, style=style)
        ours = get_row(k, "crush", style=style)
        if getattr(base, metric) == 0 or base.exec_time_us == 0:
            continue
        s.add(
            ours.exec_time_us / base.exec_time_us,
            getattr(ours, metric) / getattr(base, metric),
            label=k,
        )
    return s


def emit_figure(name, style, base_tech, base_label):
    artifacts = {}
    for metric, axis in (("ff", "FF ratio"), ("dsp", "DSP ratio")):
        s = tradeoff_series(style, base_tech, metric)
        base = Series(base_label, points=[(1.0, 1.0)] * 1, labels=["baseline"])
        art = ascii_scatter(
            [s, base], title=f"{name}: {axis} vs Exec. time ratio "
            f"(normalized to {base_label})",
            xlabel="Exec. time ratio", ylabel=axis,
        )
        avg = statistics.mean(y for _, y in s.points)
        art += f"\n   Average({axis}) = {avg:.2f}"
        write_csv(
            results_path(f"{name}_{metric}.csv"),
            ["series", "kernel", "exec_ratio", f"{metric}_ratio"],
            series_csv([s]),
        )
        artifacts[metric] = (s, avg, art)
    with open(results_path(f"{name}.txt"), "w") as f:
        for metric, (_, _, art) in artifacts.items():
            f.write(art + "\n\n")
    return artifacts


def test_figure7_crush_vs_naive(benchmark):
    artifacts = benchmark.pedantic(
        emit_figure, args=("figure7", "bb", "naive", "Naive"),
        rounds=1, iterations=1,
    )
    _, avg_ff, art = artifacts["ff"]
    print("\n" + art)
    _, avg_dsp, art2 = artifacts["dsp"]
    print("\n" + art2)
    # Paper: Average(FFs)=0.68, Average(DSPs)=0.34.
    assert avg_ff <= 0.90
    assert avg_dsp <= 0.45
    # Pareto: no CRUSH point may be dominated by the baseline point (1,1).
    for (x, y) in artifacts["dsp"][0].points:
        assert not (1.0 <= x and 1.0 <= y and (1.0 < x or 1.0 < y))


def test_figure8_crush_vs_inorder(benchmark):
    artifacts = benchmark.pedantic(
        emit_figure, args=("figure8", "bb", "inorder", "In-order"),
        rounds=1, iterations=1,
    )
    _, avg_ff, art = artifacts["ff"]
    print("\n" + art)
    # Paper: Average(FFs)=0.85, Average(DSPs)=0.88 — smaller deltas, since
    # In-order already shares most kernels fully.
    assert avg_ff <= 1.0
    _, avg_dsp, _ = artifacts["dsp"]
    assert avg_dsp <= 1.0
    # CRUSH must strictly win on the kernels In-order cannot share.
    for kernel in ("gsum", "gsumif"):
        base = get_row(kernel, "inorder", style="bb")
        ours = get_row(kernel, "crush", style="bb")
        assert ours.dsp < base.dsp


def test_figure11_crush_vs_fast_token(benchmark):
    artifacts = benchmark.pedantic(
        emit_figure, args=("figure11", "fast-token", "naive", "Fast token"),
        rounds=1, iterations=1,
    )
    _, avg_ff, art = artifacts["ff"]
    print("\n" + art)
    _, avg_dsp, _ = artifacts["dsp"]
    # Paper: Average(FFs)=0.71, Average(DSPs)=0.34.
    assert avg_ff <= 0.90
    assert avg_dsp <= 0.45
