"""Equation 2 behaviour at the system level: when sharing stops paying."""

from repro.core import SharingCostModel, default_cost_model


class TestEquation2Systemic:
    def test_group_cost_zero_for_empty(self):
        cm = default_cost_model()
        assert cm.group_cost("fadd", 0) == 0.0

    def test_total_cost_monotone_in_sharing_for_fp(self):
        """For fadds, fewer groups is always cheaper in Eq. 2's terms."""
        cm = default_cost_model()
        n = 8
        partitions = {
            "all singleton": [1] * n,
            "pairs": [2] * (n // 2),
            "one group": [n],
        }
        costs = {k: cm.total_cost("fadd", v) for k, v in partitions.items()}
        assert costs["one group"] < costs["pairs"] < costs["all singleton"]

    def test_crossover_exists_for_cheap_ops(self):
        """A synthetic op cheaper than the wrapper never merges: the cost
        curve against group size has its minimum at singletons — exactly
        the paper's integer-adder example."""
        cm = SharingCostModel(
            unit_cost=lambda t: 30.0,
            wrapper_cost=lambda t, n: 50.0 + 45.0 * n,
        )
        n = 6
        assert cm.total_cost("iadd", [1] * n) < cm.total_cost("iadd", [n])
        assert not cm.merge_reduces_cost("iadd", 1, 1)

    def test_dsp_weight_drives_fp_sharing(self):
        """Even if the wrapper's LUT cost exceeded the fmul's LUTs, the DSP
        weight keeps the merge profitable — DSPs are the scarce resource."""
        from repro.core.standalone import wrapper_cost
        from repro.resources import DSP_WEIGHT, unit_equivalent_cost

        fmul_cost = unit_equivalent_cost("fmul")
        assert fmul_cost > DSP_WEIGHT * 3 * 0.9  # DSP term dominates
        for n in range(2, 12):
            saved = fmul_cost * (n - 1)
            assert wrapper_cost("fmul", n) < saved
