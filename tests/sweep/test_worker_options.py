"""Worker options a sweep cannot honour are refused, naming the fix.

A negative worker count used to run serially, a timeout of 0 or less
recorded every job as timed out, and a timeout on the serial path was
ignored; each now stops the sweep before it runs anything.
"""

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.sweep import SweepJob, run_sweep


@pytest.mark.parametrize("argv,fix", [
    (["--jobs", "-2"], "--jobs wants 0 (serial, in-process) or a positive"),
    (["--retries", "-1"], "--retries wants 0 or a positive integer"),
    (["--timeout", "0"], "--timeout wants a positive number of seconds"),
    (["--timeout", "-1"], "--timeout wants a positive number of seconds"),
    (["--jobs", "0", "--timeout", "0.001"],
     "--timeout needs worker processes (--jobs 1 or more)"),
], ids=["negative-jobs", "negative-retries", "zero-timeout",
        "negative-timeout", "serial-timeout"])
def test_sweep_refuses_worker_options_it_cannot_honour(
        capsys, tmp_path, argv, fix):
    assert main(["sweep", "--kernel", "gsum", "--technique", "crush",
                 "--scale", "small", "--no-cache",
                 "--out-dir", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert f"error: {fix}" in captured.err
    assert "matrix" not in captured.out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kwargs,message", [
    (dict(workers=-1), "workers must be 0"),
    (dict(workers=1, timeout=0), "timeout must be a positive"),
    (dict(workers=1, timeout=-1.0), "timeout must be a positive"),
], ids=["negative-workers", "zero-timeout", "negative-timeout"])
def test_run_sweep_refuses_worker_options_it_cannot_honour(kwargs, message):
    job = SweepJob(kernel="gsum", technique="crush", scale="small")
    with pytest.raises(ReproError, match=message):
        run_sweep([job], **kwargs)
