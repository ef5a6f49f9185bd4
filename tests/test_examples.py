"""Every example script runs to completion from the repository root.

The examples call the sharing passes and read their decision records the
way a user would, so an API change that breaks one fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_collected():
    assert {p.name for p in EXAMPLES} >= {
        "custom_kernel.py",
        "deadlock_demo.py",
        "gesummv_unroll.py",
        "out_of_order_sharing.py",
        "quickstart.py",
        "verify_deadlock_freedom.py",
    }


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
