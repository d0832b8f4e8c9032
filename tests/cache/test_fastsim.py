"""Parity of the array-backed fast simulation engine with the reference.

The fast path is only allowed to exist because it is *provably* the
same simulator: every test here asserts access-by-access equivalence
(hit/miss, bypass, chosen way, evicted tag, evicted dirtiness) between
:mod:`repro.cache.fastsim` and the object-based reference engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig, filter_to_llc_stream
from repro.cache.config import DramConfig, scaled_hierarchy
from repro.cache.fastsim import (
    FAST_PATH_POLICIES,
    fast_path_kernel,
    make_stream_kernel,
    reference_replay,
    replay,
    verify_parity,
)
from repro.cache.hierarchy import LLCStream
from repro.core.glider import GliderPolicy
from repro.obs import metrics
from repro.obs.instrument import record_policy_introspection
from repro.policies import (
    BRRIPPolicy,
    DRRIPPolicy,
    HawkeyePolicy,
    LRUPolicy,
    MPPPBPolicy,
    PerceptronPolicy,
    RandomPolicy,
    SHiPPolicy,
    SRRIPPolicy,
)
from repro.policies.registry import available_policies, make_policy
from repro.traces import Trace
from repro.traces.suite import get_trace


def _synthetic_stream(
    n: int = 4000,
    seed: int = 0,
    line_count: int = 512,
    writeback_fraction: float = 0.15,
    name: str = "synthetic",
) -> LLCStream:
    """A seeded LLC stream with reuse, stores, and writebacks."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, line_count, size=n).astype(np.uint64)
    addresses = lines * np.uint64(64) + rng.integers(0, 64, size=n).astype(np.uint64)
    kinds = rng.choice(
        [LLCStream.KIND_LOAD, LLCStream.KIND_STORE, LLCStream.KIND_WRITEBACK],
        size=n,
        p=[0.7 - writeback_fraction, 0.3, writeback_fraction],
    ).astype(np.int64)
    return LLCStream(
        name=name,
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


def _llc(num_sets: int = 16, associativity: int = 4) -> CacheConfig:
    return CacheConfig(
        "LLC", num_sets * associativity * 64, associativity, latency=26
    )


@pytest.mark.parametrize("policy", FAST_PATH_POLICIES)
def test_fast_path_parity_on_synthetic_stream(policy):
    stream = _synthetic_stream(seed=7)
    verify_parity(stream, policy, _llc())


@pytest.mark.parametrize("policy", FAST_PATH_POLICIES)
def test_fast_path_parity_on_benchmark_stream(policy):
    trace = get_trace("mcf", length=6000, llc_lines=256, seed=3)
    stream = filter_to_llc_stream(trace, scaled_hierarchy(scale=32))
    verify_parity(stream, policy, scaled_hierarchy(scale=32))


@pytest.mark.parametrize("policy", FAST_PATH_POLICIES)
@pytest.mark.parametrize(
    "num_sets,associativity",
    [(1, 4), (16, 1), (1, 1), (2, 8)],
    ids=["one-set", "assoc-1", "one-line", "2x8"],
)
def test_fast_path_parity_corner_geometries(policy, num_sets, associativity):
    stream = _synthetic_stream(n=1500, seed=11, line_count=8 * num_sets)
    verify_parity(stream, policy, _llc(num_sets, associativity))


@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_every_registered_policy_replays_identically(policy):
    """``engine="auto"`` must agree with the reference for *every* policy —
    fast-path ones via their kernels, stateful ones via the fallback."""
    stream = _synthetic_stream(n=2500, seed=5, line_count=256)
    config = _llc()
    ref = reference_replay(stream, make_policy(policy), config)
    auto = replay(stream, make_policy(policy), config, engine="auto")
    assert (ref.demand_hits, ref.demand_misses, ref.writeback_hits,
            ref.writeback_misses, ref.bypasses, ref.evictions,
            ref.dirty_evictions) == (
        auto.demand_hits, auto.demand_misses, auto.writeback_hits,
        auto.writeback_misses, auto.bypasses, auto.evictions,
        auto.dirty_evictions)


def test_subclass_never_takes_fast_path():
    """Dispatch is exact-type: a subclass with different behaviour must
    fall back to the reference engine, not inherit LRU's kernel."""

    class AntiLRU(LRUPolicy):
        def victim(self, set_index, request, lines):
            ways = [w for w, line in enumerate(lines) if line.valid]
            if not ways:
                return 0
            return max(ways, key=lambda w: lines[w].last_touch)

    assert fast_path_kernel(AntiLRU()) is None
    stream = _synthetic_stream(n=1200, seed=2)
    ref = reference_replay(stream, AntiLRU(), _llc())
    auto = replay(stream, AntiLRU(), _llc(), engine="auto")
    assert ref.demand_hits == auto.demand_hits
    with pytest.raises(ValueError):
        replay(stream, AntiLRU(), _llc(), engine="fast")


#: Instances, fresh per engine: non-default stateless ones, the learned
#: ones at default and non-default parameters, and Figure 13's
#: 4-core-scaled OPTgen windows.
_INSTANCE_CASES = {
    "srrip-bits3": lambda: SRRIPPolicy(bits=3),
    "brrip-bits3-p025-seed7": lambda: BRRIPPolicy(
        bits=3, long_probability=0.25, seed=7
    ),
    "random-seed9": lambda: RandomPolicy(seed=9),
    "drrip": lambda: make_policy("drrip"),
    "drrip-bits3-leaders4-psel6": lambda: DRRIPPolicy(
        bits=3, num_leader_sets=4, psel_bits=6, long_probability=0.25, seed=3
    ),
    "ship": lambda: make_policy("ship"),
    "ship-sig6-ctr2-sampled4": lambda: SHiPPolicy(
        signature_bits=6, counter_bits=2, num_sampled_sets=4
    ),
    "ship++": lambda: make_policy("ship++"),
    "hawkeye": lambda: make_policy("hawkeye"),
    "hawkeye-window32": lambda: make_policy("hawkeye", window_factor=32),
    "hawkeye-bits8-sampled4": lambda: HawkeyePolicy(table_bits=8, num_sampled_sets=4),
    "glider": lambda: make_policy("glider"),
    "glider-window32": lambda: make_policy("glider", window_factor=32),
    # The settings benchmarks/test_ablations.py reports.
    "glider-adaptive": lambda: make_policy("glider", adaptive_threshold=True),
    "glider-binary-insertion": lambda: make_policy(
        "glider", confidence_insertion=False
    ),
    "glider-no-detrain": lambda: make_policy("glider", detrain_on_eviction=False),
    "glider-k3": lambda: make_policy("glider", k=3),
    "glider-tracker8": lambda: make_policy("glider", tracker_ways=8),
    "mpppb": lambda: make_policy("mpppb"),
    "mpppb-bits8-hist4-sampled4-bypass0": lambda: MPPPBPolicy(
        table_bits=8, history_length=4, num_sampler_sets=4, bypass_threshold=0
    ),
    "perceptron": lambda: make_policy("perceptron"),
    "perceptron-bypass-hist2": lambda: PerceptronPolicy(
        allow_bypass=True, history_length=2
    ),
}

#: Cases that must bypass, replayed on a stream with 512 distinct lines
#: instead of 96 so the sampler sees dead blocks; event and stats parity
#: then cover the kernels' bypass path.
_BYPASSING_CASES = {"mpppb-bits8-hist4-sampled4-bypass0", "perceptron-bypass-hist2"}

#: Non-default Hawkeye and Glider cases, each against the default it
#: departs from.  Glider's replay on 512 lines: on 96, ``tracker_ways=8``
#: decides exactly as the default does and the adaptive sweep never
#: leaves θ = 30.
_ABLATION_CASES = {
    "glider-adaptive": "glider",
    "glider-binary-insertion": "glider",
    "glider-no-detrain": "glider",
    "glider-k3": "glider",
    "glider-tracker8": "glider",
    "hawkeye-bits8-sampled4": "hawkeye",
}
_WIDE_CASES = _BYPASSING_CASES | {c for c in _ABLATION_CASES if c.startswith("glider")}


def _case_stream(case: str) -> LLCStream:
    stream = _synthetic_stream(
        n=3000, seed=13, line_count=512 if case in _WIDE_CASES else 96
    )
    stream.cores = np.arange(len(stream.pcs), dtype=np.int64) % 4
    return stream


def _trained_state(policy) -> dict:
    """Everything a caller can read off a policy after a replay: the
    trained tables, the prediction scores, the OPTgen summary, the
    ``introspect()`` payload and the metrics it publishes."""
    state: dict = {}
    for attr in ("psel", "shct", "prediction_checks", "prediction_correct"):
        if hasattr(policy, attr):
            state[attr] = getattr(policy, attr)
    if isinstance(policy, HawkeyePolicy):
        state["predictor"] = list(policy.predictor.table)
    if isinstance(policy, GliderPolicy):
        isvm = policy.isvm
        state["isvm"] = (
            [list(entry.weights) for entry in isvm._table],
            isvm.threshold,
            isvm._window_correct,
            isvm._window_total,
            isvm._candidate_scores,
            isvm.stats,
        )
        state["pchr"] = {core: reg.snapshot() for core, reg in policy.pchr.items()}
    if isinstance(policy, (MPPPBPolicy, PerceptronPolicy)):
        state["weights"] = [list(f.weights) for f in policy.predictor.features]
        state["history"] = (list(policy.history), policy.history.maxlen)
        state["inflight_history"] = policy._inflight_history
        state["clock"] = policy._clock
        state["sampled_sets"] = policy._sampled_sets
        state["sampler"] = [
            [(e.tag, e.pc, e.history, e.address, e.lru, e.valid) for e in entries]
            for entries in policy._sampler
        ]
    if getattr(policy, "sampler", None) is not None:
        sampler = policy.sampler
        state["optgen"] = (
            sampler.events_produced,
            sampler.opt_hit_rate(),
            sampler.occupancy_histogram(),
        )
    if hasattr(policy, "introspect"):
        state["introspect"] = policy.introspect()
    with metrics.collecting() as registry:
        record_policy_introspection(policy, benchmark="synthetic")
        state["metrics"] = registry.snapshot()["metrics"]
    return state


@pytest.mark.parametrize("case", sorted(_INSTANCE_CASES))
def test_instance_dispatch_rule(case):
    """Every instance resolves by exact type to a kernel built from its
    *own* parameters, and a fresh instance replayed on it reads the same
    afterwards as one replayed on the reference engine: events, stats,
    trained tables, introspection and published metrics."""
    make = _INSTANCE_CASES[case]
    assert fast_path_kernel(make()) is not None
    stream = _case_stream(case)
    config = _llc()
    fast_policy, ref_policy = make(), make()
    fast_events: list = []
    ref_events: list = []
    kernel = make_stream_kernel(fast_policy, config, engine="fast")
    kernel.feed(stream, fast_events)
    kernel.stats  # runs finish() too: the write-back must be idempotent
    fast = kernel.finish()
    ref = reference_replay(stream, ref_policy, config, record=ref_events)
    assert fast_events == ref_events
    assert fast == ref
    fast_state = _trained_state(fast_policy)
    assert fast_state == _trained_state(ref_policy)
    if isinstance(ref_policy, (HawkeyePolicy, GliderPolicy)):
        assert ref_policy.prediction_checks > 0, "the predictor must train"
    if isinstance(ref_policy, (MPPPBPolicy, PerceptronPolicy)):
        assert any(
            any(f.weights) for f in ref_policy.predictor.features
        ), "the predictor must train"
    if case in _BYPASSING_CASES:
        assert ref.bypasses > 0, "the case must exercise the bypass path"


@pytest.mark.parametrize("case", sorted(_ABLATION_CASES))
def test_ablation_case_changes_the_decisions(case):
    """Each ablation case is an oracle for its own branch only if it
    decides differently from the default on the stream it replays."""
    stream = _case_stream(case)
    runs = []
    for name in (case, _ABLATION_CASES[case]):
        policy, events = _INSTANCE_CASES[name](), []
        kernel = make_stream_kernel(policy, _llc(), engine="fast")
        kernel.feed(stream, events)
        kernel.finish()
        runs.append((policy, events))
    (ablated, ablated_events), (_default, default_events) = runs
    assert ablated_events != default_events
    if case == "glider-adaptive":
        assert ablated.isvm.threshold != ablated.config.threshold


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(64, 800),
    line_count=st.integers(4, 256),
    wb=st.floats(0.0, 0.5),
    geometry=st.sampled_from([(1, 1), (1, 4), (4, 1), (8, 2), (16, 4)]),
    policy=st.sampled_from(FAST_PATH_POLICIES),
)
def test_parity_property(seed, n, line_count, wb, geometry, policy):
    """Property: for any stream and geometry, both engines emit the same
    per-access event sequence for every fast-path policy."""
    stream = _synthetic_stream(
        n=n, seed=seed, line_count=line_count, writeback_fraction=wb
    )
    verify_parity(stream, policy, _llc(*geometry))


def _store_heavy_trace(n: int = 5000, seed: int = 9) -> Trace:
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 400, size=n).astype(np.uint64)
    return Trace(
        name="store-heavy",
        pcs=rng.integers(0, 48, size=n).astype(np.uint64) * np.uint64(4),
        addresses=lines * np.uint64(64),
        is_write=rng.random(n) < 0.5,
    )


@pytest.mark.parametrize(
    "trace",
    [
        get_trace("mcf", length=6000, llc_lines=256, seed=1),
        get_trace("lbm", length=6000, llc_lines=256, seed=1),
        _store_heavy_trace(),
    ],
    ids=["mcf", "lbm", "store-heavy"],
)
def test_fast_filter_matches_reference(trace):
    config = scaled_hierarchy(scale=32)
    ref = filter_to_llc_stream(trace, config, engine="reference")
    fast = filter_to_llc_stream(trace, config, engine="fast")
    assert np.array_equal(ref.pcs, fast.pcs)
    assert np.array_equal(ref.addresses, fast.addresses)
    assert np.array_equal(ref.kinds, fast.kinds)
    assert np.array_equal(ref.cores, fast.cores)
    assert ref.l1_hits == fast.l1_hits
    assert ref.l2_hits == fast.l2_hits
    assert np.array_equal(ref.levels, fast.levels)
    assert len(fast.levels) == len(trace)
    assert ref.source_accesses == fast.source_accesses
    assert ref.source_instructions == fast.source_instructions


def test_fast_filter_falls_back_on_mixed_line_sizes():
    """Differing line sizes across levels are outside the fast filter's
    contract; the dispatcher must transparently use the reference path."""
    config = HierarchyConfig(
        l1=CacheConfig("L1D", 2048, 2, latency=4, line_size=32),
        l2=CacheConfig("L2", 8192, 4, latency=12),
        llc=CacheConfig("LLC", 32768, 8, latency=26),
        dram=DramConfig(latency=100, bandwidth_bytes_per_cycle=4.0),
    )
    trace = _store_heavy_trace(n=2000)
    ref = filter_to_llc_stream(trace, config, engine="reference")
    auto = filter_to_llc_stream(trace, config, engine="auto")
    assert np.array_equal(ref.addresses, auto.addresses)
    assert np.array_equal(ref.kinds, auto.kinds)
    assert np.array_equal(ref.levels, auto.levels)
