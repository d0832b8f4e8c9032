"""Pinned figure outputs: Figures 10 and 11 at a tiny length.

Each figure's rows are digested (floats by their exact ``repr``) and
compared with ``tests/fixtures/figure_pins/<figure>.json``: one digest
per benchmark row, plus the figure's aggregate rows.  A mismatch means a
figure number moved.  Regenerate the files only for a change that is
meant to move numbers:

    PYTHONPATH=src python tests/eval/test_figure_pins.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.eval import (
    ArtifactCache,
    ExperimentConfig,
    miss_rate_reduction,
    online_accuracy,
    summarize_by_group,
)

PINS = Path(__file__).resolve().parents[1] / "fixtures" / "figure_pins"
CONFIG = ExperimentConfig(trace_length=6_000)
BENCHMARKS = ("mcf", "lbm", "bfs")


def row_digest(row: dict) -> str:
    """Stable digest of one figure row (floats by their exact repr)."""
    payload = json.dumps(row, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def figure_digests() -> dict[str, dict[str, str]]:
    """Fig. 11 then Fig. 10 on one artifact cache, as the harness runs
    them: ``{figure: {row key: digest}}``."""
    cache = ArtifactCache(CONFIG)
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


@pytest.fixture(scope="module")
def digests():
    return figure_digests()


@pytest.mark.parametrize("figure", ["fig10", "fig11"])
def test_figure_rows_match_pins(digests, figure):
    pinned = json.loads((PINS / f"{figure}.json").read_text())
    assert pinned["config"] == {
        "trace_length": CONFIG.trace_length,
        "benchmarks": list(BENCHMARKS),
    }
    assert digests[figure] == pinned["rows"]


if __name__ == "__main__":
    PINS.mkdir(parents=True, exist_ok=True)
    for figure, rows in figure_digests().items():
        payload = {
            "config": {
                "trace_length": CONFIG.trace_length,
                "benchmarks": list(BENCHMARKS),
            },
            "rows": rows,
        }
        (PINS / f"{figure}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {PINS / f'{figure}.json'}")
