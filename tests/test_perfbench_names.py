"""The names the repo benchmark's traced run looks up must resolve.

``perfbench/layers.py`` wraps layer functions where the pipeline looks
them up, and ``perfbench/run.py`` reads result fields and counters by
name.  A refactor that renames one of them breaks the benchmark; this
guard catches it in the test suite.  ``layers.py`` is only read here.
"""

import dataclasses
import importlib
import runpy
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
LAYERS = runpy.run_path(str(LAYERS_PY))["LAYERS"]


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in LAYERS])
def test_every_traced_layer_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_fields_and_counters_the_benchmark_reads():
    from repro.frontend.runner import KernelRun
    from repro.pipeline import TechniqueResult
    from repro.sim import BACKENDS, DEFAULT_BACKEND
    from repro.sim.codegen import CODEGEN_STATS
    from repro.sweep import ResultCache, code_salt, run_sweep

    run_fields = {f.name for f in dataclasses.fields(KernelRun)}
    assert {"cycles", "fires", "mask_promotions",
            "fallback_lanes"} <= run_fields
    assert "data_plane" in {f.name for f in dataclasses.fields(TechniqueResult)}
    assert {"generated", "disk", "memory"} <= set(CODEGEN_STATS)
    assert isinstance(code_salt(), str)
    assert DEFAULT_BACKEND in BACKENDS
    assert callable(run_sweep) and callable(ResultCache)
