"""Standalone wrapper characterization (Figures 9/10 substrate)."""

import pytest

from repro.core import default_cost_model, insert_sharing_wrapper
from repro.core.standalone import (
    build_shared_standalone,
    build_standalone_group,
    paper_credits,
    shared_group_resources,
    unshared_group_resources,
    wrapper_component_breakdown,
)
from repro.resources import equivalent_cost, estimate_units
from repro.sim import Engine


class TestBuilders:
    def test_group_builder_valid_and_simulable(self):
        c, names = build_standalone_group(3, "fmul", tokens=2)
        assert len(names) == 3
        sinks = [c.unit(f"s{i}") for i in range(3)]
        Engine(c).run(lambda: all(s.count == 2 for s in sinks), max_cycles=200)

    def test_shared_standalone_functional(self):
        c, wrapper = build_shared_standalone(4, "fadd")
        assert wrapper is not None and wrapper.size == 4
        sinks = [c.unit(f"s{i}") for i in range(4)]
        Engine(c).run(lambda: all(s.count == 4 for s in sinks), max_cycles=2000)
        assert sinks[2].received == [2.0, 3.0, 4.0, 5.0]

    def test_single_op_returns_no_wrapper(self):
        c, wrapper = build_shared_standalone(1, "fadd")
        assert wrapper is None

    def test_inorder_strategy_builds_the_inorder_arbiter(self, monkeypatch):
        import repro.core.standalone as standalone

        seen = []
        real = standalone.insert_sharing_wrapper

        def spy(*args, **kwargs):
            seen.append(kwargs.get("arbitration"))
            return real(*args, **kwargs)

        monkeypatch.setattr(standalone, "insert_sharing_wrapper", spy)
        c, wrapper = build_shared_standalone(3, "fadd", strategy="inorder")
        assert seen == ["inorder"]
        assert c.unit(wrapper.arbiter).meta.get("order_state") is True
        c, wrapper = build_shared_standalone(3, "fadd", strategy="crush")
        assert seen == ["inorder", "priority"]
        assert "order_state" not in c.unit(wrapper.arbiter).meta

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_shared_standalone(2, "fadd", strategy="magic")

    def test_paper_credit_sizing(self):
        # Φ = lat/|G|, N_CC = ceil(Φ)+1: fadd lat 10.
        assert paper_credits(2) == 6
        assert paper_credits(5) == 3
        assert paper_credits(10) == 2
        assert paper_credits(13) == 2


class TestResources:
    def test_sharing_two_fadds_already_pays(self):
        assert shared_group_resources(2).lut < unshared_group_resources(2).lut
        assert shared_group_resources(2).ff < unshared_group_resources(2).ff

    def test_shared_dsp_constant(self):
        for n in (2, 5, 9):
            assert shared_group_resources(n).dsp == 2  # one fadd

    def test_inorder_wrapper_more_ffs_than_crush(self):
        for n in (3, 7):
            assert (
                shared_group_resources(n, strategy="inorder").ff
                >= shared_group_resources(n, strategy="crush").ff
            )

    def test_breakdown_covers_all_components(self):
        bd = wrapper_component_breakdown(5)
        assert set(bd) == {
            "Credit counters", "Joins", "Branch", "Shared unit",
            "Condition buffer", "Merges and muxes", "Output buffers",
        }
        assert bd["Shared unit"].dsp == 2
        assert bd["Output buffers"].lut > 0

    def test_breakdown_sums_to_total(self):
        bd = wrapper_component_breakdown(6)
        total = shared_group_resources(6)
        assert sum(v.lut for v in bd.values()) == total.lut
        assert sum(v.ff for v in bd.values()) == total.ff


class TestEquation2WrapperCost:
    @pytest.mark.parametrize("op", ["fadd", "fmul"])
    def test_cost_model_prices_the_wrapper_the_builder_builds(self, op):
        # C_WP(|G|) of Algorithm 1's cost model is the equivalent cost of
        # the non-shared units insert_sharing_wrapper builds around |G|
        # standalone ops with two credits each.
        cost_model = default_cost_model()
        for n in range(2, 9):
            c, names = build_standalone_group(n, op)
            w = insert_sharing_wrapper(c, names, credits=dict.fromkeys(names, 2))
            built = equivalent_cost(estimate_units(
                c.units[nm] for nm in w.all_unit_names() if nm != w.shared_unit
            ))
            assert cost_model.wrapper_cost(op, n) == built, n
