"""The replay memo on ``ArtifactCache``: Figures 10 and 11 share one
replay per (benchmark, policy), and Figure 10 reads the same numbers
whether or not Figure 11 ran first."""

import pickle
from collections import Counter

import pytest

from repro.cache import fastsim
from repro.cache.hierarchy import simulate_llc
from repro.core.glider import GliderPolicy
from repro.eval import (
    ArtifactCache,
    ExperimentConfig,
    miss_rate_reduction,
    online_accuracy,
)
from repro.eval.accuracy import OnlineAccuracyResult
from repro.eval.missrate import CONTENDERS
from repro.policies.hawkeye import HawkeyePolicy

CONFIG = ExperimentConfig(trace_length=6_000)
BENCHMARKS = ("mcf", "lbm", "bfs")


@pytest.fixture
def replays(monkeypatch):
    """Count every LLC replay by policy name."""
    calls: Counter = Counter()
    inner = fastsim.replay

    def counting(stream, policy, *args, **kwargs):
        calls[getattr(policy, "name", policy)] += 1
        return inner(stream, policy, *args, **kwargs)

    monkeypatch.setattr(fastsim, "replay", counting)
    return calls


def _direct_rows(cache: ArtifactCache) -> list[OnlineAccuracyResult]:
    """Figure 10 as it was computed before the memo: fresh Hawkeye and
    Glider instances, each replayed on the cached stream."""
    rows = []
    for benchmark in BENCHMARKS:
        stream = cache.llc_stream(benchmark)
        hawkeye, glider = HawkeyePolicy(), GliderPolicy()
        simulate_llc(stream, hawkeye, CONFIG.hierarchy())
        simulate_llc(stream, glider, CONFIG.hierarchy())
        rows.append(
            OnlineAccuracyResult(
                benchmark, hawkeye.online_accuracy, glider.online_accuracy
            )
        )
    return rows


def test_fig10_rows_do_not_depend_on_a_warm_cache():
    warm = ArtifactCache(CONFIG)
    miss_rate_reduction(CONFIG, BENCHMARKS, include_belady=True, cache=warm)
    after_fig11 = online_accuracy(CONFIG, BENCHMARKS, cache=warm)
    fresh = online_accuracy(CONFIG, BENCHMARKS, cache=ArtifactCache(CONFIG))
    assert after_fig11 == fresh
    assert fresh[:-1] == _direct_rows(ArtifactCache(CONFIG))


def test_fig10_after_fig11_replays_nothing(replays):
    cache = ArtifactCache(CONFIG)
    miss_rate_reduction(CONFIG, BENCHMARKS, include_belady=True, cache=cache)
    assert replays == Counter(
        {name: len(BENCHMARKS) for name in ("lru", *CONTENDERS, "belady")}
    )
    replays.clear()
    online_accuracy(CONFIG, BENCHMARKS, cache=cache)
    assert replays == Counter()


def test_fig10_alone_replays_hawkeye_and_glider_once_each(replays):
    online_accuracy(CONFIG, BENCHMARKS, cache=ArtifactCache(CONFIG))
    assert replays == Counter(hawkeye=len(BENCHMARKS), glider=len(BENCHMARKS))


def test_second_fig11_replays_only_min(replays):
    cache = ArtifactCache(CONFIG)
    miss_rate_reduction(CONFIG, BENCHMARKS, include_belady=True, cache=cache)
    replays.clear()
    miss_rate_reduction(CONFIG, BENCHMARKS, include_belady=True, cache=cache)
    assert replays == Counter(belady=len(BENCHMARKS))


def _fill_every_stage(cache: ArtifactCache) -> None:
    """Replays (through Figure 10) and the cache's three other stages."""
    online_accuracy(CONFIG, BENCHMARKS, cache=cache)
    cache.labelled("mcf")
    cache.quota_stream("mcf", CONFIG.trace_length + 1, CONFIG.hierarchy())
    stages = {key[0] for key in cache._memo}
    assert stages == {"llc_stream", "labelled", "replay", "quota_stream"}


def test_clear_empties_the_memo(replays):
    cache = ArtifactCache(CONFIG)
    _fill_every_stage(cache)
    cache.clear()
    assert not cache._memo
    replays.clear()
    online_accuracy(CONFIG, BENCHMARKS, cache=cache)
    assert replays == Counter(hawkeye=len(BENCHMARKS), glider=len(BENCHMARKS))


def test_unpickled_cache_starts_with_an_empty_memo(replays):
    cache = ArtifactCache(CONFIG)
    _fill_every_stage(cache)
    copy = pickle.loads(pickle.dumps(cache))
    assert not copy._memo
    replays.clear()
    online_accuracy(CONFIG, BENCHMARKS, cache=copy)
    assert replays == Counter(hawkeye=len(BENCHMARKS), glider=len(BENCHMARKS))


def test_replay_keeps_stats_and_accuracy_not_the_instance():
    cache = ArtifactCache(CONFIG)
    hawkeye = cache.replay("mcf", "hawkeye")
    assert cache.replay("mcf", "hawkeye") is hawkeye
    assert 0.0 <= hawkeye.online_accuracy <= 1.0
    assert cache.replay("mcf", "lru").online_accuracy is None
    assert set(vars(hawkeye)) == {"stats", "online_accuracy"}
