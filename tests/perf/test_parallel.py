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
from repro.eval.multicore import weighted_speedup_sweep
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.eval.speedup import single_core_speedup
from repro.perf.parallel import RunContext, parallel_map, task_seed

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


#: One tiny (config, driver call) per grid driver; fig9 trains a
#: one-epoch toy LSTM.
_TINY_LSTM = replace(
    CONFIG, lstm_embedding=8, lstm_hidden=8, lstm_history=8, lstm_epochs=1
)


def _two_core_mixes(config, benchmarks, cache=None, run=None):
    """fig13 on two 2-core mixes; its tasks are mixes, so ``benchmarks``
    is ignored."""
    return weighted_speedup_sweep(
        config, num_mixes=2, cores=2, quota=2_000, cache=cache, run=run
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
    "fig13": (CONFIG, _two_core_mixes),
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
