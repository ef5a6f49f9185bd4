"""``--lanes`` is only a width: width 1 and the event backend run seed
by seed in both ``repro run`` and ``repro sweep``."""

import csv

import pytest

from repro.cli import main
from repro.pipeline import run_technique
from repro.sweep import load_outcome

SEEDS = (7, 11)


def test_run_lanes_1_runs_seed_by_seed(capsys):
    assert main(["run", "gsumif", "crush", "--seeds", "7,11",
                 "--lanes", "1"]) == 0
    out = capsys.readouterr().out
    assert "execution   : seed by seed" in out
    assert "2 batches" in out
    assert "seed 7     : 361 cycles" in out
    assert "seed 11    : 360 cycles" in out


def test_run_prints_one_block_for_one_seed_or_many(capsys):
    assert main(["run", "gsumif", "crush", "--seeds", "7"]) == 0
    one = capsys.readouterr().out.splitlines()
    assert main(["run", "gsumif", "crush", "--seeds", "7,11"]) == 0
    many = capsys.readouterr().out.splitlines()

    def labels(lines):
        return [line.split(":")[0].strip() for line in lines
                if not line.startswith("  ")]

    assert labels(one) == labels(many)


@pytest.mark.parametrize("lanes", [
    ["--lanes", "1"],
    ["--lanes", "2", "--sim-backend", "event"],
])
def test_sweep_seed_by_seed_rows_equal_scalar_rows(tmp_path, capsys, lanes):
    argv = ["sweep", "--kernel", "gsumif", "--technique", "crush",
            "--scale", "small", "--seeds", ",".join(map(str, SEEDS)),
            "--no-cache", "--quiet", "--out-dir", str(tmp_path)]
    assert main(argv + lanes) == 0
    rows = load_outcome(tmp_path / "sweep.json").results()
    scalar = [run_technique("gsumif", "crush", scale="small", seed=s)
              for s in SEEDS]
    assert [r.deterministic_metrics() for r in rows] == \
        [s.deterministic_metrics() for s in scalar]
    assert [r.data_plane for r in rows] == ["scalar"] * len(SEEDS)

    with open(tmp_path / "sweep.csv", newline="") as f:
        cells = list(csv.DictReader(f))
    assert [c["seed"] for c in cells] == [str(s) for s in SEEDS]
    assert [c["cycles"] for c in cells] == [str(s.cycles) for s in scalar]


def test_lanes_must_be_positive(capsys):
    assert main(["run", "gsumif", "--seeds", "7,11", "--lanes", "0"]) == 2
    assert main(["sweep", "--kernel", "gsumif", "--lanes", "0"]) == 2
