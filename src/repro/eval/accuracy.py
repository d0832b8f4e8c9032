"""Predictor-accuracy experiments (Figures 9 and 10).

* Figure 9: offline accuracy of Hawkeye counters, the ordered-history
  SVM ("Perceptron"), the offline ISVM, and the attention LSTM on the
  six offline-analysis benchmarks, trained on 75% / tested on 25%.
* Figure 10: online accuracy of the Hawkeye and Glider predictors while
  driving the actual cache (training-as-you-go on sampled sets).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..cache.hierarchy import simulate_llc
from ..perf.parallel import RunContext
from ..ml.svm import OfflineHawkeye, OfflineISVM, OrderedHistorySVM
from ..ml.training import train_linear_model, train_lstm
from ..policies.hawkeye import HawkeyePolicy
from ..core.glider import GliderPolicy
from .runner import DEFAULT, ArtifactCache, ExperimentConfig
from .tables import arithmetic_mean


@dataclass
class OfflineAccuracyResult:
    """Per-benchmark accuracy of the four offline models (one Fig. 9 group)."""

    benchmark: str
    hawkeye: float
    perceptron: float
    offline_isvm: float
    attention_lstm: float

    def as_row(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "Hawkeye": 100 * self.hawkeye,
            "Perceptron": 100 * self.perceptron,
            "Offline ISVM": 100 * self.offline_isvm,
            "Attention LSTM": 100 * self.attention_lstm,
        }


def _offline_accuracy_benchmark(
    benchmark: str, *, cache: ArtifactCache, linear_epochs: int
) -> OfflineAccuracyResult:
    """One Figure 9 group (module-level so it pickles into pool workers)."""
    config = cache.config
    labelled = cache.labelled(benchmark)
    hawkeye = train_linear_model(OfflineHawkeye(), labelled, epochs=linear_epochs)
    perceptron = train_linear_model(
        OrderedHistorySVM(history_length=3), labelled, epochs=linear_epochs
    )
    isvm = train_linear_model(OfflineISVM(k=5), labelled, epochs=linear_epochs)
    _, lstm = train_lstm(
        labelled,
        config.lstm_config(labelled.vocab_size),
        epochs=config.lstm_epochs,
    )
    return OfflineAccuracyResult(
        benchmark=benchmark,
        hawkeye=hawkeye.test_accuracy,
        perceptron=perceptron.test_accuracy,
        offline_isvm=isvm.test_accuracy,
        attention_lstm=lstm.test_accuracy,
    )


def offline_accuracy(
    config: ExperimentConfig = DEFAULT,
    benchmarks: tuple[str, ...] | None = None,
    cache: ArtifactCache | None = None,
    linear_epochs: int = 10,
    run: RunContext | None = None,
) -> list[OfflineAccuracyResult]:
    """Reproduce Figure 9 (plus the "average" bar, appended last).

    ``run`` executes the per-benchmark grid (see
    :func:`repro.eval.missrate.miss_rate_reduction`); under robust
    settings failing benchmarks are recorded on ``run.report`` and the
    average covers the completed rows.
    """
    cache = cache or ArtifactCache(config)
    compute = functools.partial(
        _offline_accuracy_benchmark, cache=cache, linear_epochs=linear_epochs
    )
    run = run or RunContext()
    results = run.map(
        compute, benchmarks or config.offline_benchmarks, OfflineAccuracyResult
    )
    if not results:
        return results
    results.append(
        OfflineAccuracyResult(
            benchmark="average",
            hawkeye=arithmetic_mean([r.hawkeye for r in results]),
            perceptron=arithmetic_mean([r.perceptron for r in results]),
            offline_isvm=arithmetic_mean([r.offline_isvm for r in results]),
            attention_lstm=arithmetic_mean([r.attention_lstm for r in results]),
        )
    )
    return results


@dataclass
class OnlineAccuracyResult:
    """Per-benchmark online predictor accuracy (one Fig. 10 group)."""

    benchmark: str
    hawkeye: float
    glider: float

    def as_row(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "Hawkeye": 100 * self.hawkeye,
            "Glider": 100 * self.glider,
        }


def _online_accuracy_benchmark(
    benchmark: str, *, cache: ArtifactCache
) -> OnlineAccuracyResult:
    """One Figure 10 group (module-level so it pickles into pool workers)."""
    config = cache.config
    stream = cache.llc_stream(benchmark)
    hawkeye = HawkeyePolicy()
    simulate_llc(stream, hawkeye, config.hierarchy())
    glider = GliderPolicy()
    simulate_llc(stream, glider, config.hierarchy())
    return OnlineAccuracyResult(
        benchmark=benchmark,
        hawkeye=hawkeye.online_accuracy,
        glider=glider.online_accuracy,
    )


def online_accuracy(
    config: ExperimentConfig = DEFAULT,
    benchmarks: tuple[str, ...] | None = None,
    cache: ArtifactCache | None = None,
    run: RunContext | None = None,
) -> list[OnlineAccuracyResult]:
    """Reproduce Figure 10: train-while-running accuracy of both predictors.

    Accuracy is measured exactly as the policies experience it: each
    sampler-labelled access scores the prediction that was made when the
    line was last touched.  ``run`` executes the per-benchmark grid (see
    :func:`repro.eval.missrate.miss_rate_reduction`).
    """
    cache = cache or ArtifactCache(config)
    compute = functools.partial(_online_accuracy_benchmark, cache=cache)
    run = run or RunContext()
    results = run.map(compute, benchmarks or config.suite, OnlineAccuracyResult)
    if not results:
        return results
    results.append(
        OnlineAccuracyResult(
            benchmark="average",
            hawkeye=arithmetic_mean([r.hawkeye for r in results]),
            glider=arithmetic_mean([r.glider for r in results]),
        )
    )
    return results
