"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``.

They run the benchmark itself (short runs, one process at a time), so
they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("llc_replay", "timing_single", "timing_multi", "offline_train")
HELD_OUT_SEED = 1234  # never used while the benchmark was tuned
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def _result(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.result.json").read_text()
    )
    return line, record


def test_metric_names_match_the_contract():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*run.END_TO_END, *run.PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_transparent_and_covered(workload):
    line, record = _result(workload, seed=0, trace=1)
    assert line["correct"] and line["failed"] == 0, record["problems"]
    assert record["golden_checked"]
    assert record["digests"]["traced"] == record["digests"]["untraced"]
    assert record["skipped_entry_points"] == []
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["eval.coverage"] >= 0.9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_the_oracles(workload):
    line, record = _result(workload, seed=HELD_OUT_SEED, trace=0)
    assert not record["golden_checked"]
    assert line["correct"] and line["attempted"] >= 1, record["problems"]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_tracer_leaves_program_instrumentation_off_and_restores_patches():
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    from spans import LayerTracer

    from repro.cache import fastsim
    from repro.cpu.system import SingleCoreSystem
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    before = (fastsim.replay, SingleCoreSystem.run)
    tracer = LayerTracer(max_ipc=4)
    tracer.install()
    try:
        assert fastsim.replay is not before[0]
        assert obs_trace.get_tracer() is None and not obs_metrics.ENABLED
    finally:
        tracer.uninstall()
    assert (fastsim.replay, SingleCoreSystem.run) == before
    empty = run.layer_metrics(tracer, wall=1.0, headline=0.0)
    assert empty["replay.calls"] == 0 and empty["eval.coverage"] == 0.0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("llc_replay", seed=0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
