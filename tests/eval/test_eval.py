"""Smoke + behaviour tests for the experiment harness (tiny configs)."""

import numpy as np
import pytest

from repro.eval import (
    ArtifactCache,
    ExperimentConfig,
    arithmetic_mean,
    format_table,
    geometric_mean,
    miss_rate_reduction,
    model_cost_table,
    online_accuracy,
    summarize_by_group,
    summarize_mixes,
    summarize_speedups,
    single_core_speedup,
    weighted_speedup_sweep,
)
from repro.eval.cost import glider_cost, hawkeye_cost, lstm_cost
from repro.ml.model import LSTMConfig

TINY = ExperimentConfig(
    trace_length=12_000,
    hierarchy_scale=32,
    lstm_embedding=12,
    lstm_hidden=12,
    lstm_history=8,
    lstm_epochs=2,
)


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache(TINY)


class TestTables:
    def test_format_table_alignment(self):
        out = format_table([{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.125}], "T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.500" in out
        assert "0.125" in out

    def test_format_empty(self):
        assert "(empty)" in format_table([], "X")

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == 2.0
        assert arithmetic_mean([]) == 0.0
        assert geometric_mean([]) == 0.0


class TestArtifactCache:
    def test_stream_cached(self, cache):
        a = cache.llc_stream("astar")
        b = cache.llc_stream("astar")
        assert a is b

    def test_labelled_has_belady_labels(self, cache):
        labelled = cache.labelled("astar")
        assert len(labelled) > 0
        assert labelled.labels.dtype == bool

    def test_clear(self):
        c = ArtifactCache(TINY)
        c.llc_stream("astar")
        c.labelled("astar")
        c.replay("astar", "lru")
        c.quota_stream("astar", TINY.trace_length + 1, TINY.hierarchy())
        stages = {key[0] for key in c._memo}
        assert stages == {"llc_stream", "labelled", "replay", "quota_stream"}
        c.clear()
        assert not c._memo


class TestMissRate:
    def test_rows_and_groups(self, cache):
        results = miss_rate_reduction(
            TINY, benchmarks=("astar", "libquantum"), cache=cache
        )
        assert len(results) == 2
        assert results[0].group == "SPEC06"
        for r in results:
            assert set(r.miss_rates) == {"hawkeye", "mpppb", "ship++", "glider"}
            assert 0 <= r.lru_miss_rate <= 1

    def test_reduction_computation(self, cache):
        results = miss_rate_reduction(TINY, benchmarks=("astar",), cache=cache)
        r = results[0]
        for policy, rate in r.miss_rates.items():
            expected = 100 * (r.lru_miss_rate - rate) / r.lru_miss_rate
            assert r.reduction(policy) == pytest.approx(expected)

    def test_belady_bound(self, cache):
        results = miss_rate_reduction(
            TINY, benchmarks=("astar",), include_belady=True, cache=cache
        )
        r = results[0]
        assert r.belady_miss_rate is not None
        for rate in r.miss_rates.values():
            assert r.belady_miss_rate <= rate + 1e-9

    def test_group_summary(self, cache):
        results = miss_rate_reduction(
            TINY, benchmarks=("astar", "bfs"), cache=cache
        )
        rows = summarize_by_group(results)
        groups = {row["group"] for row in rows}
        assert "ALL" in groups


class TestOnlineAccuracy:
    def test_rows(self, cache):
        results = online_accuracy(TINY, benchmarks=("astar",), cache=cache)
        assert results[-1].benchmark == "average"
        for r in results:
            assert 0 <= r.hawkeye <= 1
            assert 0 <= r.glider <= 1


class TestSpeedup:
    def test_rows(self, cache):
        results = single_core_speedup(
            TINY, benchmarks=("astar",), policies=("hawkeye", "glider"), cache=cache
        )
        r = results[0]
        assert r.lru_ipc > 0
        assert set(r.ipcs) == {"hawkeye", "glider"}
        rows = summarize_speedups(results)
        assert rows[-1]["group"] == "ALL"


class TestMulticore:
    def test_sweep_shape(self, cache):
        results = weighted_speedup_sweep(
            TINY,
            num_mixes=2,
            cores=2,
            policies=("glider",),
            quota=2000,
            cache=cache,
        )
        assert len(results) == 2
        summary = summarize_mixes(results)
        assert "glider" in summary

    def test_empty_summary(self):
        assert summarize_mixes([]) == {}


class TestCostTable:
    def test_rows_present(self):
        rows = model_cost_table()
        names = [r.model for r in rows]
        assert names == ["LSTM (predictor only)", "Glider", "Perceptron", "Hawkeye"]

    def test_lstm_orders_of_magnitude_larger(self):
        """Table 3's headline: LSTM is ~3 orders of magnitude bigger."""
        lstm = lstm_cost(LSTMConfig())
        glider = glider_cost()
        assert lstm.size_kb > 20 * glider.size_kb
        assert lstm.train_ops > 1000 * glider.train_ops

    def test_glider_budget_near_paper(self):
        """Section 5.4: Glider's total budget is 61.6 KB."""
        assert glider_cost().size_kb == pytest.approx(61.6, abs=1.0)

    def test_hawkeye_cheapest_ops(self):
        assert hawkeye_cost().train_ops == 1.0


class TestAsciiPlot:
    def test_basic_render(self):
        from repro.eval.plots import ascii_plot

        out = ascii_plot({"a": {0: 0.0, 1: 1.0}}, width=20, height=5, title="T")
        assert "T" in out
        assert "o=a" in out
        assert out.count("\n") >= 7

    def test_empty(self):
        from repro.eval.plots import ascii_plot

        assert "(no data)" in ascii_plot({})

    def test_constant_series(self):
        from repro.eval.plots import ascii_plot

        out = ascii_plot({"flat": {0: 5.0, 1: 5.0}}, width=10, height=4)
        assert "o" in out

    def test_multiple_series_markers(self):
        from repro.eval.plots import ascii_plot

        out = ascii_plot({"a": {0: 0.0}, "b": {1: 1.0}}, width=10, height=4)
        assert "o=a" in out and "x=b" in out

    def test_s_curve_sorted(self):
        from repro.eval.plots import s_curve

        curve = s_curve([3.0, 1.0, 2.0], "mix")["mix"]
        assert list(curve.values()) == [1.0, 2.0, 3.0]
