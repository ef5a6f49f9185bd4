"""Table 2: Naive vs In-order vs CRUSH on the 11-kernel suite (BB-style).

Regenerates the paper's main comparison: functional-unit census, DSPs,
slices, LUTs, FFs, CP, cycle count, execution time and optimization time
per (kernel, technique), plus the two "Average improvement" summary rows.

Expected shapes (paper Section 6.3):
* CRUSH shares every kernel down to 1 fadd + 1 fmul (5 DSPs) with a cycle
  overhead of a few percent at most;
* In-order matches CRUSH on regular kernels but cannot share gsum's /
  gsumif's chained operations (more DSPs left);
* CRUSH's optimization time is far below In-order's (the paper reports
  -90% on average) and close to Naive's.
"""

import pytest

from repro.analysis import critical_cfcs, place_buffers
from repro.core import crush
from repro.frontend import lower_kernel
from repro.frontend.kernels import PAPER_KERNELS, build

from _support import emit_table, get_row, improvement_summary, results_path, table_rows

TECHS = ("naive", "inorder", "crush")


@pytest.fixture(scope="module")
def rows():
    return table_rows("bb", TECHS)


def test_table2_generate(rows, benchmark):
    # Benchmark the CRUSH pass itself on a representative kernel (this is
    # the quantity the table's Opt. time column reports).
    def crush_pass():
        low = lower_kernel(build("gesummv", scale="paper"), "bb")
        cfcs = critical_cfcs(low.circuit)
        place_buffers(low.circuit, cfcs)
        return crush(low.circuit, cfcs)

    benchmark.pedantic(crush_pass, rounds=3, iterations=1)

    text = emit_table(rows, "table2", "Table 2 — Naive vs In-order vs CRUSH (BB-organized circuits)")
    vs_naive = improvement_summary(rows, "naive", "crush")
    vs_inorder = improvement_summary(rows, "inorder", "crush")
    summary = (
        f"Average improvement of CRUSH vs Naive:    "
        f"Slices {vs_naive['slices']:+.0f}%  LUTs {vs_naive['lut']:+.0f}%  "
        f"FFs {vs_naive['ff']:+.0f}%  DSPs {vs_naive['dsp']:+.0f}%  "
        f"Opt.time {vs_naive['opt_time_s']:+.0f}%  Exec.time {vs_naive['exec_time_us']:+.0f}%\n"
        f"Average improvement of CRUSH vs In-order: "
        f"Slices {vs_inorder['slices']:+.0f}%  LUTs {vs_inorder['lut']:+.0f}%  "
        f"FFs {vs_inorder['ff']:+.0f}%  DSPs {vs_inorder['dsp']:+.0f}%  "
        f"Opt.time {vs_inorder['opt_time_s']:+.0f}%  Exec.time {vs_inorder['exec_time_us']:+.0f}%"
    )
    with open(results_path("table2_summary.txt"), "w") as f:
        f.write(summary + "\n")
    print("\n" + text)
    print(summary)


class TestTable2Shapes:
    @pytest.fixture(autouse=True)
    def _rows(self, rows):
        self.by = {(r.kernel, r.technique): r for r in rows}

    def test_crush_shares_everything_on_every_kernel(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for k in PAPER_KERNELS:
            assert self.by[(k, "crush")].dsp == 5, k
            assert self.by[(k, "crush")].fu_census == "1 fadd 1 fmul", k

    def test_inorder_cannot_share_gsum_chains(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert self.by[("gsum", "inorder")].dsp >= 15
        assert self.by[("gsumif", "inorder")].dsp >= 11
        # On chain-free kernels In-order shares fully too.
        for k in ("atax", "bicg", "mvt", "gemm"):
            assert self.by[(k, "inorder")].dsp == 5, k

    def test_cycle_overhead_is_small(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for k in PAPER_KERNELS:
            naive = self.by[(k, "naive")].cycles
            shared = self.by[(k, "crush")].cycles
            assert shared <= naive * 1.12, (k, naive, shared)

    def test_opt_time_far_below_inorder(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        total_inorder = sum(self.by[(k, "inorder")].opt_time_s for k in PAPER_KERNELS)
        total_crush = sum(self.by[(k, "crush")].opt_time_s for k in PAPER_KERNELS)
        assert total_crush < total_inorder * 0.35  # paper: -90% on average

    def test_dsp_reduction_vs_naive_matches_paper_scale(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        red = improvement_summary(
            [self.by[(k, t)] for k in PAPER_KERNELS for t in ("naive", "crush")],
            "naive", "crush",
        )["dsp"]
        # Paper: -66% average DSP reduction vs Naive.
        assert red <= -55.0
