"""Smoke tests for the `python -m repro.eval` command-line runner."""

import json

import pytest

from repro.eval.__main__ import main
from repro.robust.supervise import CrashJournal


def test_table3_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "Glider" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig10_with_subset(capsys):
    assert main(["fig10", "--length", "8000", "--benchmarks", "astar"]) == 0
    out = capsys.readouterr().out
    assert "Figure 10" in out
    assert "astar" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig13", "--fail", "mcf"],
        ["table3", "--robust"],
        ["fig4", "--deadline", "5"],
        ["bench", "--max-attempts", "2"],
    ],
)
def test_robust_flags_rejected_outside_grid_figures(argv, capsys):
    # Only fig9-fig12 run under robust settings; elsewhere the flags
    # used to be accepted and silently ignored.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "not supported" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fig11_robust_degrades_then_resumes(tmp_path, capsys, jobs):
    store = tmp_path / "store"
    argv = [
        "fig11", "--length", "6000", "--benchmarks", "mcf,lbm",
        "--policies", "srrip", "--robust", "--store", str(store),
        "--jobs", jobs,
    ]
    assert main(argv + ["--fail", "lbm", "--max-attempts", "2"]) == 1
    assert "1 FAILED (lbm)" in capsys.readouterr().out
    failed = CrashJournal(store / "journal-fig11.jsonl").tasks()
    assert [event["task"] for event in failed] == ["lbm"]
    manifest = json.loads((store / "manifest-fig11.json").read_text())
    assert set(manifest["done"]) == {"mcf"} and set(manifest["failed"]) == {"lbm"}

    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 resumed from manifest" in out
    assert "Failures" not in out
