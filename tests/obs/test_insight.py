"""Decision telemetry: recorder semantics, artifact I/O, and the
online-vs-offline scoring parity that makes the numbers trustworthy.

The recorder's accuracy must equal the policy's own online accuracy
(both score predictions against the same sampled-OPTgen labels, at the
same point in training order), and the fast kernels must report exactly
what the reference engine reports — otherwise the telemetry would be a
second, subtly different simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheConfig
from repro.cache.cache import SetAssociativeCache
from repro.cache.fastsim import StreamChunk, make_stream_kernel, replay
from repro.cache.hierarchy import LLCStream
from repro.core.glider import GliderPolicy
from repro.core.isvm import ISVM
from repro.obs import insight, metrics
from repro.policies.hawkeye import HawkeyePolicy
from repro.policies.registry import make_policy
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ship import SHiPPolicy


@pytest.fixture(autouse=True)
def _clean_state():
    insight.disable()
    metrics.disable()
    metrics.registry().clear()
    yield
    insight.disable()
    metrics.disable()
    metrics.registry().clear()


def _llc(num_sets: int = 16, associativity: int = 4) -> CacheConfig:
    return CacheConfig(
        "LLC", num_sets * associativity * 64, associativity, latency=26
    )


def _synthetic_stream(n: int = 4000, seed: int = 0, line_count: int = 512) -> LLCStream:
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, line_count, size=n).astype(np.uint64)
    addresses = lines * np.uint64(64) + rng.integers(0, 64, size=n).astype(np.uint64)
    kinds = rng.choice(
        [LLCStream.KIND_LOAD, LLCStream.KIND_STORE, LLCStream.KIND_WRITEBACK],
        size=n,
        p=[0.55, 0.3, 0.15],
    ).astype(np.int64)
    return LLCStream(
        name="synthetic",
        pcs=rng.integers(0, 64, size=n).astype(np.uint64) * np.uint64(4),
        addresses=addresses,
        kinds=kinds,
        cores=np.zeros(n, dtype=np.int64),
        line_size=64,
        source_accesses=n,
        source_instructions=4 * n,
        l1_hits=0,
        l2_hits=0,
    )


def _recorder_stats(rec: insight.DecisionRecorder) -> tuple:
    return (
        rec.scored,
        rec.correct,
        rec.sampled_accesses,
        rec.sampled_evictions,
        rec.evictions,
        rec.tp,
        rec.fp,
        rec.fn,
        rec.tn,
        rec.worst_total,
    )


def _reference_run(stream: LLCStream, policy_name: str, config: CacheConfig):
    """Reference-engine replay with a fresh recorder installed."""
    recorder = insight.enable(config, num_sampled_sets=config.num_sets)
    policy = make_policy(policy_name)
    llc = SetAssociativeCache(config, policy)
    for request in stream.requests():
        llc.access(request)
    insight.disable()
    return recorder, policy


class TestRecorderCore:
    def test_matches_geometry(self):
        rec = insight.DecisionRecorder(16, 4)
        assert rec.matches(16, 4)
        assert not rec.matches(32, 4)
        assert not rec.matches(16, 8)

    def test_unsampled_sets_cost_nothing(self):
        rec = insight.DecisionRecorder(64, 4, num_sampled_sets=2)
        unsampled = next(s for s in range(64) if s not in rec._sampled)
        rec.on_demand_access(unsampled, pc=4, predicted_friendly=True)
        rec.on_eviction(unsampled)
        assert rec.sampled_accesses == 0
        assert rec.sampled_evictions == 0
        assert rec.evictions == 1  # total evictions still counted

    def test_tight_reuse_loop_scores_friendly(self):
        # One line re-accessed forever: OPT always keeps it, so a
        # constant 'friendly' prediction must come out 100% accurate.
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4)
        for _ in range(200):
            rec.on_demand_access(0, pc=8, predicted_friendly=True)
        assert rec.scored > 0
        assert rec.accuracy == 1.0
        assert rec.fp == rec.fn == rec.tn == 0
        assert 0.0 < rec.coverage <= 1.0

    def test_flip_tracking_is_per_pc(self):
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4)
        rec.on_demand_access(0, pc=8, predicted_friendly=True)
        rec.on_demand_access(0, pc=8, predicted_friendly=False)  # flip
        rec.on_demand_access(0, pc=8, predicted_friendly=False)  # stable
        rec.on_demand_access(1, pc=12, predicted_friendly=True)  # other pc
        assert rec.flips == 1
        assert rec.flip_checks == 2
        assert rec.flip_rate == 0.5

    def test_worst_decision_joins_eviction_with_friendly_label(self):
        # Evict a line between two of its accesses; when the reuse
        # resolves friendly, the eviction was a capacity loss.
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4)
        rec.on_demand_access(0, pc=8, predicted_friendly=False)
        rec.on_eviction(0, predicted_friendly=False, rrpv=7)
        rec.on_demand_access(0, pc=8, predicted_friendly=False)
        assert rec.worst_total >= 1
        artifact = rec.to_artifact()
        assert artifact["worst"]
        worst = artifact["worst"][0]
        assert worst["line"] == 0
        assert worst["victim_rrpv"] == 7

    def test_publish_mirrors_gauges_with_labels(self):
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4, labels={"shard": 3})
        for _ in range(64):
            rec.on_demand_access(0, pc=8, predicted_friendly=True)
        with metrics.collecting() as reg:
            rec.publish()
            snap = reg.snapshot()
        assert "insight.accuracy{shard=3}" in snap["metrics"]
        assert snap["metrics"]["insight.scored{shard=3}"]["value"] == rec.scored

    def test_record_model_state_tracks_drift(self):
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4)
        with metrics.collecting() as reg:
            rec.record_model_state("glider", isvm_weight_norm=10.0)
            rec.record_model_state("glider", isvm_weight_norm=13.5)
            snap = reg.snapshot()
        gauge = snap["metrics"]["insight.model.isvm_weight_norm{policy=glider}"]
        assert gauge["value"] == 13.5
        hist = snap["metrics"]["insight.drift.isvm_weight_norm{policy=glider}"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(3.5)
        artifact = rec.to_artifact()
        assert artifact["drift"]["glider"]["isvm_weight_norm"][-1][1] == 13.5


class TestModuleSwitch:
    def test_enable_disable_roundtrip(self):
        assert insight.get_recorder() is None
        assert not insight.active()
        rec = insight.enable(_llc())
        assert insight.get_recorder() is rec
        assert insight.active()
        assert insight.disable() is rec
        assert insight.get_recorder() is None

    def test_enable_accepts_llc_config_geometry(self):
        rec = insight.enable(_llc(32, 8))
        assert rec.matches(32, 8)


class TestArtifact:
    def test_roundtrip_and_validate(self, tmp_path):
        rec = insight.DecisionRecorder(4, 2, num_sampled_sets=4)
        for i in range(100):
            rec.on_demand_access(i % 4, pc=8, predicted_friendly=True)
        path = tmp_path / "insight.json"
        insight.save_artifact(path, rec.to_artifact(run_id="r42"))
        loaded = insight.load_artifact(path)
        assert insight.validate_artifact(loaded) == []
        assert loaded["schema"] == insight.INSIGHT_SCHEMA
        assert loaded["run_id"] == "r42"
        assert loaded["summary"]["sampled_accesses"] == 100
        assert loaded["geometry"] == {
            "num_sets": 4,
            "associativity": 2,
            "sampled_sets": [0, 1, 2, 3],
        }

    def test_validate_flags_problems(self):
        assert insight.validate_artifact("nope") == ["artifact is not an object"]
        problems = insight.validate_artifact({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("summary" in p for p in problems)


@pytest.mark.parametrize("policy_name", ["hawkeye", "glider"])
class TestScoringParity:
    """The acceptance bar: one scorer, three engines, identical numbers."""

    def test_recorder_accuracy_equals_policy_online_accuracy(self, policy_name):
        stream = _synthetic_stream(seed=7)
        recorder, policy = _reference_run(stream, policy_name, _llc())
        assert recorder.scored > 100
        # Both score the same predictions against the same sampled-OPTgen
        # labels at the same training-order point: exact equality.
        assert recorder.accuracy == policy.online_accuracy

    def test_fast_kernel_reports_identically_to_reference(self, policy_name):
        stream = _synthetic_stream(seed=7)
        config = _llc()
        ref_recorder, _ = _reference_run(stream, policy_name, config)

        fast_recorder = insight.enable(config, num_sampled_sets=config.num_sets)
        kernel = make_stream_kernel(policy_name, config, engine="fast")
        kernel.feed(stream)
        fast_stats = kernel.finish()
        insight.disable()

        assert _recorder_stats(fast_recorder) == _recorder_stats(ref_recorder)
        assert fast_recorder.accuracy == ref_recorder.accuracy

    def test_recorder_does_not_perturb_simulation(self, policy_name):
        stream = _synthetic_stream(seed=9)
        config = _llc()
        baseline = replay(stream, policy_name, config)
        insight.enable(config, num_sampled_sets=config.num_sets)
        observed = replay(stream, policy_name, config)
        insight.disable()
        assert observed == baseline


def _expected_model_state(policy) -> dict:
    """The model-state gauges a fast kernel reports for ``policy``,
    computed from the trained state of a reference-engine run."""

    def saturated_fraction(counters, cmax):
        return sum(1 for c in counters if c == 0 or c == cmax) / len(counters)

    if isinstance(policy, DRRIPPolicy):
        return {
            "psel": policy.psel,
            "psel_fraction": policy.psel / max(1, policy.psel_max),
        }
    if isinstance(policy, SHiPPolicy):
        shct = policy.shct
        return {
            "shct_mean": sum(shct) / len(shct),
            "shct_saturated_fraction": saturated_fraction(shct, policy.counter_max),
        }
    if isinstance(policy, HawkeyePolicy):
        table = policy.predictor.table
        return {
            "counter_mean": sum(table) / len(table),
            "counter_saturated_fraction": saturated_fraction(
                table, policy.predictor.counter_max
            ),
        }
    if isinstance(policy, GliderPolicy):
        weights = [v for entry in policy.isvm._table for v in entry.weights if v]
        return {
            "isvm_weight_norm": sum(abs(v) for v in weights),
            "isvm_saturated_weights": sum(
                1 for v in weights if v <= ISVM.WEIGHT_MIN or v >= ISVM.WEIGHT_MAX
            ),
            "isvm_active_weights": len(weights),
            "threshold": policy.isvm.threshold,
        }
    return {}


def _drift_values(recorder: insight.DecisionRecorder) -> dict:
    """policy -> signal -> the reported values, in report order."""
    return {
        policy: {name: [value for _, value in points] for name, points in series.items()}
        for policy, series in recorder.to_artifact()["drift"].items()
    }


_MODEL_STATE_POLICIES = (
    "drrip", "ship", "ship++", "hawkeye", "glider", "srrip", "brrip", "lru", "mpppb"
)
_REPORTING = ("drrip", "ship", "ship++", "hawkeye", "glider")


class TestModelState:
    """What each fast kernel passes to ``record_model_state``.

    Only the fast kernels report model state, once per ``feed``; the
    reference policies report decisions only, and ``step`` reports none.
    """

    @pytest.mark.parametrize("policy_name", _MODEL_STATE_POLICIES)
    def test_replay_reports_trained_model_state(self, policy_name):
        stream = _synthetic_stream(seed=3)
        config = _llc()
        reference = make_policy(policy_name)
        recorder = insight.enable(config)
        replay(stream, reference, config, engine="reference")
        assert _drift_values(recorder) == {}

        recorder = insight.enable(config)
        replay(stream, policy_name, config, engine="fast")
        insight.disable()
        expected = _expected_model_state(reference)
        assert bool(expected) == (policy_name in _REPORTING)
        assert _drift_values(recorder) == (
            {policy_name: {name: [float(v)] for name, v in expected.items()}}
            if expected
            else {}
        )

    @pytest.mark.parametrize("policy_name", _REPORTING)
    def test_each_feed_reports_and_step_does_not(self, policy_name):
        stream = _synthetic_stream(n=1200, seed=5)
        config = _llc()
        recorder = insight.enable(config)
        kernel = make_stream_kernel(policy_name, config, engine="fast")
        half = len(stream.addresses) // 2
        for part in (slice(0, half), slice(half, None)):
            kernel.feed(
                StreamChunk(
                    name=stream.name,
                    pcs=stream.pcs[part],
                    addresses=stream.addresses[part],
                    kinds=stream.kinds[part],
                    cores=stream.cores[part],
                    levels=np.zeros(0, dtype=np.int8),
                )
            )
        columns = kernel.decode(stream)
        for i in range(10):
            kernel.step(columns, i)
        insight.disable()
        series = _drift_values(recorder)[policy_name]
        assert series and all(len(values) == 2 for values in series.values())
