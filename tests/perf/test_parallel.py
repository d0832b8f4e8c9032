"""Determinism and correctness of the parallel experiment machinery.

The load-bearing property is *bit-identical results*: a run with
``jobs=N`` must be indistinguishable from ``jobs=1`` (the paper's
numbers cannot depend on how many workers happened to be available).
Wall-clock speedup is environment-dependent and is measured by the
``bench`` subcommand, not asserted here.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro.eval.accuracy import offline_accuracy, online_accuracy
from repro.eval.missrate import miss_rate_reduction
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.eval.speedup import single_core_speedup
from repro.perf.parallel import RunContext, parallel_map, run_matrix, task_seed

CONFIG = ExperimentConfig(trace_length=6_000)
BENCHMARKS = ("mcf", "lbm")
POLICIES = ("lru", "srrip")


def test_task_seed_is_pure_and_spread():
    assert task_seed("mcf", "brrip", base=0) == task_seed("mcf", "brrip", base=0)
    seeds = {task_seed(b, p, base=7) for b in BENCHMARKS for p in POLICIES}
    assert len(seeds) == len(BENCHMARKS) * len(POLICIES)
    assert all(0 <= s < 2**63 for s in seeds)
    assert task_seed("mcf", "brrip", base=0) != task_seed("mcf", "brrip", base=1)


def _square(x: int) -> int:
    return x * x


def test_parallel_map_preserves_order():
    items = list(range(13))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_parallel_map_accepts_partials():
    add = functools.partial(int.__add__, 10)
    assert parallel_map(add, [1, 2, 3], jobs=2) == [11, 12, 13]


def test_run_matrix_parallel_is_bit_identical():
    seq = run_matrix(BENCHMARKS, POLICIES, CONFIG, jobs=1)
    par = run_matrix(BENCHMARKS, POLICIES, CONFIG, jobs=2)
    assert seq.demand_miss_rates() == par.demand_miss_rates()
    assert set(seq.cells) == {(b, p) for b in BENCHMARKS for p in POLICIES}


def test_run_matrix_belady_pseudo_policy():
    matrix = run_matrix(("mcf",), ("lru", "belady"), CONFIG, jobs=1)
    lru = matrix.stats("mcf", "lru")
    belady = matrix.stats("mcf", "belady")
    # MIN provably maximises total hits.
    assert belady.hits >= lru.hits


def test_run_matrix_cell_granularity_matches_benchmark(tmp_path):
    store = str(tmp_path / "store")
    by_benchmark = run_matrix(
        BENCHMARKS, POLICIES, CONFIG, jobs=1, granularity="benchmark"
    )
    by_cell = run_matrix(
        BENCHMARKS, POLICIES, CONFIG, jobs=2, store=store, granularity="cell"
    )
    assert by_benchmark.demand_miss_rates() == by_cell.demand_miss_rates()


def test_run_matrix_rejects_unknown_granularity():
    with pytest.raises(ValueError):
        run_matrix(BENCHMARKS, POLICIES, CONFIG, granularity="bogus")


def test_run_matrix_cell_without_store_uses_ephemeral_store():
    """Per-cell tasks without a caller store are backed by an ephemeral
    one that the parent fills once per benchmark, so cell granularity
    is safe (no per-cell stream recomputation) and bit-identical."""
    by_cell = run_matrix(BENCHMARKS, POLICIES, CONFIG, jobs=2, granularity="cell")
    seq = run_matrix(BENCHMARKS, POLICIES, CONFIG, jobs=1)
    assert by_cell.demand_miss_rates() == seq.demand_miss_rates()


#: One tiny (config, driver call) per grid driver; fig9 trains a
#: one-epoch toy LSTM.
_TINY_LSTM = replace(
    CONFIG, lstm_embedding=8, lstm_hidden=8, lstm_history=8, lstm_epochs=1
)
_DRIVERS = {
    "fig9": (_TINY_LSTM, functools.partial(offline_accuracy, linear_epochs=1)),
    "fig10": (CONFIG, online_accuracy),
    "fig11": (
        CONFIG,
        functools.partial(
            miss_rate_reduction, policies=("srrip",), include_belady=True
        ),
    ),
    "fig12": (CONFIG, functools.partial(single_core_speedup, policies=("srrip",))),
}


@pytest.mark.parametrize("figure", sorted(_DRIVERS))
def test_experiment_driver_parallel_is_bit_identical(tmp_path, figure):
    """Each grid driver end-to-end: a jobs=2 run context equals the
    sequential default, with the artifact cache (and its on-disk store)
    shipped to the workers."""
    config, driver = _DRIVERS[figure]
    seq = driver(config, benchmarks=BENCHMARKS)
    cache = ArtifactCache(config, store=str(tmp_path / "store"))
    par = driver(config, benchmarks=BENCHMARKS, cache=cache, run=RunContext(jobs=2))
    assert seq == par
