"""The benchmark's workloads: inputs, driver calls, output checks.

Each workload runs one or two real ``repro.eval`` figure drivers on a
few benchmarks.  ``--seed`` reaches the program only through the
generated traces (``ExperimentConfig.seed`` is the trace seed), and all
runs are single-process (``jobs=1``).

A workload pass returns its figure rows as plain dicts.  Each row is one
operation: it is checked by an oracle that holds on any seed, and its
digest is compared with the pinned digest for the golden seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable

from repro.cache.hierarchy import filter_to_llc_stream
from repro.eval.accuracy import offline_accuracy, online_accuracy
from repro.eval.missrate import CONTENDERS, miss_rate_reduction
from repro.eval.multicore import summarize_mixes, weighted_speedup_sweep
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.eval.speedup import single_core_speedup, summarize_speedups
from repro.traces.mixes import make_mixes
from repro.traces.suite import get_trace

#: The core model's issue width (``SingleCoreSystem``'s default), the
#: upper bound on any IPC the timing model can report.
MAX_IPC = 4
#: Fig. 13 mix seed (the driver's default) and per-core access quota.
MIX_SEED = 42
MULTI_QUOTA = 2000
#: Fig. 9 training epochs: the driver's linear-model default, and a short
#: LSTM run (the LSTM dominates the pass either way).
LINEAR_EPOCHS = 10
LSTM_EPOCHS = 3


@dataclass
class Pass:
    """One workload pass: its rows and the figure's headline number."""

    rows: list[dict]
    headline: float


@dataclass(frozen=True)
class Workload:
    name: str
    benchmarks: tuple[str, ...]
    trace_length: int
    run: Callable[[ExperimentConfig], Pass]
    check_row: Callable[[dict], list[str]]
    #: Simulated accesses consumed by one pass, from the inputs alone.
    count_accesses: Callable[[ExperimentConfig, tuple[str, ...]], int]

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            trace_length=self.trace_length, seed=seed, lstm_epochs=LSTM_EPOCHS
        )

    def traces(self, config: ExperimentConfig) -> list:
        """Synthesize (and thereby warm ``get_trace``'s cache) every input."""
        return [_trace(config, b) for b in self.benchmarks]


def _trace(config: ExperimentConfig, benchmark: str):
    # The exact call ArtifactCache.trace makes, so the drivers hit the cache.
    return get_trace(
        benchmark,
        length=config.trace_length,
        llc_lines=config.hierarchy().llc.num_lines,
        seed=config.seed,
    )


def _stream(config: ExperimentConfig, benchmark: str):
    return filter_to_llc_stream(_trace(config, benchmark), config.hierarchy())


def _in_unit(value, what: str) -> list[str]:
    if value is None or not 0.0 <= value <= 1.0:
        return [f"{what}={value!r} outside [0, 1]"]
    return []


def _valid_ipc(value, what: str) -> list[str]:
    if not 0.0 < value <= MAX_IPC:
        return [f"{what}={value!r} outside (0, {MAX_IPC}]"]
    return []


# -- llc_replay: Fig. 11 then Fig. 10 on one shared artifact cache ------------


def _llc_replay(config: ExperimentConfig) -> Pass:
    benchmarks = LLC_REPLAY.benchmarks
    cache = ArtifactCache(config)
    fig11 = miss_rate_reduction(config, benchmarks, include_belady=True, cache=cache)
    fig10 = online_accuracy(config, benchmarks, cache=cache)
    headline = sum(r.reduction("glider") for r in fig11) / len(fig11)
    rows = [{"figure": 11, **asdict(r)} for r in fig11]
    rows += [{"figure": 10, **asdict(r)} for r in fig10]
    return Pass(rows, headline)


def _check_llc_replay(row: dict) -> list[str]:
    if row["figure"] == 10:
        return _in_unit(row["hawkeye"], "hawkeye accuracy") + _in_unit(
            row["glider"], "glider accuracy"
        )
    problems = _in_unit(row["lru_miss_rate"], "lru miss rate")
    problems += _in_unit(row["belady_miss_rate"], "belady miss rate")
    for policy, rate in row["miss_rates"].items():
        problems += _in_unit(rate, f"{policy} miss rate")
    for policy, hits in row["total_hits"].items():
        if row["belady_total_hits"] < hits:
            problems.append(
                f"belady_total_hits={row['belady_total_hits']} < {policy} {hits}"
            )
    return problems


def _count_llc_replay(config: ExperimentConfig, benchmarks) -> int:
    # Per benchmark: one filter pass over the trace, then LRU, the
    # contenders and MIN (Fig. 11) plus Hawkeye and Glider (Fig. 10),
    # each replaying the whole LLC stream.
    replays = 1 + len(CONTENDERS) + 1 + 2
    return sum(
        len(_trace(config, b)) + replays * len(_stream(config, b)) for b in benchmarks
    )


# -- timing_single: Fig. 12 ------------------------------------------------


def _timing_single(config: ExperimentConfig) -> Pass:
    results = single_core_speedup(config, TIMING_SINGLE.benchmarks)
    headline = summarize_speedups(results)[-1]["glider"]
    return Pass([asdict(r) for r in results], headline)


def _check_timing_single(row: dict) -> list[str]:
    problems = _valid_ipc(row["lru_ipc"], "lru ipc")
    for policy, ipc in row["ipcs"].items():
        problems += _valid_ipc(ipc, f"{policy} ipc")
    return problems


def _count_timing_single(config: ExperimentConfig, benchmarks) -> int:
    return (1 + len(CONTENDERS)) * sum(len(_trace(config, b)) for b in benchmarks)


# -- timing_multi: Fig. 13, one 4-core mix ----------------------------------


def _timing_multi(config: ExperimentConfig) -> Pass:
    results = weighted_speedup_sweep(
        config, num_mixes=1, cores=4, quota=MULTI_QUOTA, seed=MIX_SEED
    )
    return Pass([asdict(r) for r in results], summarize_mixes(results)["glider"])


def _check_timing_multi(row: dict) -> list[str]:
    # Rows carry only weighted speedups; a weighted IPC that is positive
    # and finite keeps each above -100%.  Per-core IPCs are checked
    # against the issue width in the traced run, where they are visible.
    return [
        f"{policy} weighted speedup {value!r}% not in (-100, inf)"
        for policy, value in row["weighted_speedup_percent"].items()
        if not (math.isfinite(value) and value > -100.0)
    ]


def _count_timing_multi(config: ExperimentConfig, benchmarks) -> int:
    # Each benchmark alone (the single-core reference IPCs), then LRU and
    # every contender on the shared LLC, each core issuing its quota.
    alone = sum(len(_trace(config, b)) for b in benchmarks)
    return alone + (1 + len(CONTENDERS)) * len(benchmarks) * MULTI_QUOTA


# -- offline_train: Fig. 9 -------------------------------------------------


def _offline_train(config: ExperimentConfig) -> Pass:
    results = offline_accuracy(
        config, OFFLINE_TRAIN.benchmarks, linear_epochs=LINEAR_EPOCHS
    )
    return Pass([asdict(r) for r in results], 100.0 * results[-1].offline_isvm)


def _check_offline_train(row: dict) -> list[str]:
    problems: list[str] = []
    for model in ("hawkeye", "perceptron", "offline_isvm", "attention_lstm"):
        problems += _in_unit(row[model], f"{model} accuracy")
    return problems


def _count_offline_train(config: ExperimentConfig, benchmarks) -> int:
    # Per benchmark: the filter pass over the trace, then one OPTgen
    # labelling pass plus every training epoch (each reads the whole
    # labelled demand stream: train split, then test split) of the three
    # linear models and the LSTM.
    passes = 1 + 3 * LINEAR_EPOCHS + LSTM_EPOCHS
    return sum(
        len(_trace(config, b)) + passes * _stream(config, b).demand_count()
        for b in benchmarks
    )


# Why each workload exists (README.md has the full table):
# llc_replay - LLC replay does almost all the work (kernels, mpppb, the
# Hawkeye/Glider instances on the reference engine, MIN); no cpu or ml.
LLC_REPLAY = Workload(
    name="llc_replay",
    benchmarks=("mcf", "lbm", "bfs"),
    trace_length=8000,
    run=_llc_replay,
    check_row=_check_llc_replay,
    count_accesses=_count_llc_replay,
)
# timing_single - the reference SetAssociativeCache plus cpu.timing do
# nearly all the work and no fast kernel runs.
TIMING_SINGLE = Workload(
    name="timing_single",
    benchmarks=("mcf", "lbm"),
    trace_length=6000,
    run=_timing_single,
    check_row=_check_timing_single,
    count_accesses=_count_timing_single,
)
# timing_multi - a time-interleaved shared LLC, L2 writebacks and scaled
# OPTgen windows use the cpu/cache layers unlike Fig. 12.
TIMING_MULTI = Workload(
    name="timing_multi",
    benchmarks=make_mixes(1, cores=4, seed=MIX_SEED)[0].benchmarks,
    trace_length=5000,
    run=_timing_multi,
    check_row=_check_timing_multi,
    count_accesses=_count_timing_multi,
)
# offline_train - OPTgen labelling plus LSTM and linear-model training do
# all the work, with no replay or timing; the only workload that runs ml.
OFFLINE_TRAIN = Workload(
    name="offline_train",
    benchmarks=("mcf", "lbm"),
    trace_length=5000,
    run=_offline_train,
    check_row=_check_offline_train,
    count_accesses=_count_offline_train,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (LLC_REPLAY, TIMING_SINGLE, TIMING_MULTI, OFFLINE_TRAIN)
}


def row_digest(row: dict) -> str:
    """Stable digest of one figure row (floats by their exact repr)."""
    payload = json.dumps(row, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
