"""Pinned figure outputs: every figure and table driver at a tiny length.

Each figure's rows are digested (floats by their exact ``repr``,
arrays by their bytes) and compared with
``tests/fixtures/figure_pins/<figure>.json``: one digest per benchmark
row, plus the figure's aggregate rows.  A mismatch means a figure
number moved.  Regenerate the files only for a change that is meant to
move numbers:

    PYTHONPATH=src python tests/eval/test_figure_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.eval import (
    ArtifactCache,
    ExperimentConfig,
    anchor_pc_analysis,
    attention_cdf,
    attention_heatmap,
    convergence_curves,
    miss_rate_reduction,
    model_cost_table,
    offline_accuracy,
    online_accuracy,
    sequence_length_sweep,
    shuffle_experiment,
    single_core_speedup,
    summarize_by_group,
    summarize_speedups,
    weighted_speedup_sweep,
)

PINS = Path(__file__).resolve().parents[1] / "fixtures" / "figure_pins"
CONFIG = ExperimentConfig(trace_length=6_000)
BENCHMARKS = ("mcf", "lbm", "bfs")
# Figures 4 and 9 train attention LSTMs: a shorter trace and two epochs
# keep the whole file to seconds.
LSTM_CONFIG = ExperimentConfig(trace_length=4_000, lstm_epochs=2)
LSTM_BENCHMARKS = ("mcf", "lbm")
SCALES = (1.0, 5.0)
# Figure 13 draws its mixes from the whole suite: two mixes at a small
# per-core quota.
MIXES = 2
QUOTA = 2_000
# The analysis drivers (Figures 5, 6, 14, 15, Tables 3 and 4) at
# LSTM_CONFIG size, each cut to the smallest sweep that still runs
# every code path.
HEATMAP_BENCHMARK = "mcf"
HEATMAP_SCALE = 1.0
HEATMAP_TARGETS = 20
SHUFFLE_BENCHMARKS = ("mcf", "lbm")
SWEEP_BENCHMARKS = ("mcf",)
SWEEP_LENGTHS = (10, 20)
SWEEP_KS = (1, 2, 3)
ANCHOR_BENCHMARK = "omnetpp"

PIN_CONFIGS = {
    "fig10": {"trace_length": CONFIG.trace_length, "benchmarks": list(BENCHMARKS)},
    "fig11": {"trace_length": CONFIG.trace_length, "benchmarks": list(BENCHMARKS)},
    "fig12": {"trace_length": CONFIG.trace_length, "benchmarks": list(BENCHMARKS)},
    "fig13": {"trace_length": CONFIG.trace_length, "mixes": MIXES, "quota": QUOTA},
    "fig9": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmarks": list(LSTM_BENCHMARKS),
    },
    "fig4": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmarks": list(LSTM_BENCHMARKS),
        "scales": list(SCALES),
    },
    "fig5": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmark": HEATMAP_BENCHMARK,
        "scale": HEATMAP_SCALE,
        "targets": HEATMAP_TARGETS,
    },
    "fig6": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmarks": list(SHUFFLE_BENCHMARKS),
    },
    "fig14": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmarks": list(SWEEP_BENCHMARKS),
        "lstm_lengths": list(SWEEP_LENGTHS),
        "linear_ks": list(SWEEP_KS),
    },
    "fig15": {
        "trace_length": LSTM_CONFIG.trace_length,
        "epochs": LSTM_CONFIG.lstm_epochs,
        "benchmarks": list(SWEEP_BENCHMARKS),
    },
    "table3": {},
    "table4": {
        "trace_length": LSTM_CONFIG.trace_length,
        "lstm_epochs": LSTM_CONFIG.lstm_epochs,
        "benchmark": ANCHOR_BENCHMARK,
    },
}


def _encode(value) -> str:
    """JSON fallback: arrays by dtype, shape and bytes, anything else by
    ``repr`` (which truncates large arrays)."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        header = f"{data.dtype.str}{data.shape}".encode()
        return "ndarray:" + hashlib.sha256(header + data.tobytes()).hexdigest()
    return repr(value)


def row_digest(row: dict) -> str:
    """Stable digest of one figure row (floats by their exact repr)."""
    payload = json.dumps(row, sort_keys=True, default=_encode)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def replay_digests(cache: ArtifactCache) -> dict[str, dict[str, str]]:
    """Fig. 11 then Fig. 10 on one artifact cache, as the harness runs
    them: ``{figure: {row key: digest}}``."""
    fig11 = miss_rate_reduction(
        CONFIG, BENCHMARKS, include_belady=True, cache=cache
    )
    fig10 = online_accuracy(CONFIG, BENCHMARKS, cache=cache)
    pins = {
        "fig11": {r.benchmark: row_digest(asdict(r)) for r in fig11},
        "fig10": {r.benchmark: row_digest(asdict(r)) for r in fig10},
    }
    for row in summarize_by_group(fig11):
        pins["fig11"][f"group:{row['group']}"] = row_digest(row)
    return pins


def timing_digests(cache: ArtifactCache) -> dict[str, dict[str, str]]:
    """Fig. 12 (with its group rows) and Fig. 13 (one row per mix, whose
    weighted speedups rest on every benchmark's alone IPC)."""
    fig12 = single_core_speedup(CONFIG, BENCHMARKS, cache=cache)
    fig13 = weighted_speedup_sweep(CONFIG, num_mixes=MIXES, quota=QUOTA, cache=cache)
    pins = {
        "fig12": {r.benchmark: row_digest(asdict(r)) for r in fig12},
        "fig13": {r.mix.name: row_digest(asdict(r)) for r in fig13},
    }
    for row in summarize_speedups(fig12):
        pins["fig12"][f"group:{row['group']}"] = row_digest(row)
    return pins


def lstm_digests() -> dict[str, dict[str, str]]:
    """Fig. 9 (with its average row) and Fig. 4 (one row per benchmark
    and scale) on one artifact cache."""
    cache = ArtifactCache(LSTM_CONFIG)
    fig9 = offline_accuracy(LSTM_CONFIG, LSTM_BENCHMARKS, cache=cache)
    pins = {
        "fig9": {r.benchmark: row_digest(asdict(r)) for r in fig9},
        "fig4": {},
    }
    for benchmark in LSTM_BENCHMARKS:
        for r in attention_cdf(LSTM_CONFIG, benchmark, SCALES, cache=cache):
            pins["fig4"][f"{benchmark}:f={r.scale}"] = row_digest(asdict(r))
    return pins


def analysis_digests() -> dict[str, dict[str, str]]:
    """Figures 5, 6, 14, 15 and Tables 3 and 4 on one artifact cache.

    Fig. 6 keeps its average row; the sweeps (Figs. 14 and 15) are
    averages already, one row per x value."""
    cache = ArtifactCache(LSTM_CONFIG)
    heatmap = attention_heatmap(
        LSTM_CONFIG, HEATMAP_BENCHMARK, scale=HEATMAP_SCALE,
        num_targets=HEATMAP_TARGETS, cache=cache,
    )
    fig6 = shuffle_experiment(LSTM_CONFIG, SHUFFLE_BENCHMARKS, cache=cache)
    fig14 = sequence_length_sweep(
        LSTM_CONFIG, SWEEP_BENCHMARKS, lstm_lengths=SWEEP_LENGTHS,
        linear_ks=SWEEP_KS, cache=cache,
    )
    fig15 = convergence_curves(
        LSTM_CONFIG, SWEEP_BENCHMARKS, epochs=LSTM_CONFIG.lstm_epochs, cache=cache
    )
    table4 = anchor_pc_analysis(LSTM_CONFIG, ANCHOR_BENCHMARK, cache=cache)
    return {
        "fig5": {
            f"{HEATMAP_BENCHMARK}:f={HEATMAP_SCALE}": row_digest(asdict(heatmap))
        },
        "fig6": {r.benchmark: row_digest(asdict(r)) for r in fig6},
        "fig14": {f"history={r['history']}": row_digest(r) for r in fig14.rows()},
        "fig15": {
            f"iteration={r['iteration']}": row_digest(r) for r in fig15.rows()
        },
        "table3": {r.model: row_digest(asdict(r)) for r in model_cost_table()},
        "table4": {hex(r.target_pc): row_digest(asdict(r)) for r in table4},
    }


def figure_digests() -> dict[str, dict[str, str]]:
    cache = ArtifactCache(CONFIG)
    return {
        **replay_digests(cache),
        **timing_digests(cache),
        **lstm_digests(),
        **analysis_digests(),
    }


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache(CONFIG)


@pytest.fixture(scope="module")
def replay_pins(cache):
    return replay_digests(cache)


@pytest.fixture(scope="module")
def timing_pins(cache):
    return timing_digests(cache)


@pytest.fixture(scope="module")
def lstm_pins():
    return lstm_digests()


@pytest.fixture(scope="module")
def analysis_pins():
    return analysis_digests()


def _assert_pinned(figure: str, digests: dict[str, dict[str, str]]) -> None:
    pinned = json.loads((PINS / f"{figure}.json").read_text())
    assert pinned["config"] == PIN_CONFIGS[figure]
    assert digests[figure] == pinned["rows"]


@pytest.mark.parametrize("figure", ["fig10", "fig11"])
def test_figure_rows_match_pins(replay_pins, figure):
    _assert_pinned(figure, replay_pins)


@pytest.mark.parametrize("figure", ["fig12", "fig13"])
def test_timing_figure_rows_match_pins(timing_pins, figure):
    _assert_pinned(figure, timing_pins)


@pytest.mark.parametrize("figure", ["fig9", "fig4"])
def test_lstm_figure_rows_match_pins(lstm_pins, figure):
    _assert_pinned(figure, lstm_pins)


@pytest.mark.parametrize(
    "figure", ["fig5", "fig6", "fig14", "fig15", "table3", "table4"]
)
def test_analysis_figure_rows_match_pins(analysis_pins, figure):
    _assert_pinned(figure, analysis_pins)


def test_array_fields_digest_by_bytes():
    # repr elides the middle of a large array; the digest must not.
    a = np.zeros(5000)
    b = a.copy()
    b[2500] = 1e-300
    assert repr(a) == repr(b)
    assert row_digest({"w": a}) != row_digest({"w": b})
    assert row_digest({"w": a}) == row_digest({"w": a.copy()})


if __name__ == "__main__":
    PINS.mkdir(parents=True, exist_ok=True)
    for figure, rows in figure_digests().items():
        payload = {"config": PIN_CONFIGS[figure], "rows": rows}
        (PINS / f"{figure}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {PINS / f'{figure}.json'}")
