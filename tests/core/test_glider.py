"""Integration tests for the Glider policy."""

import pytest

from repro.cache import (
    AccessType,
    CacheConfig,
    CacheRequest,
    SetAssociativeCache,
    filter_to_llc_stream,
    simulate_llc,
)
from repro.core import DEFAULT_K, GliderConfig, GliderPolicy
from repro.cache.fastsim import reference_replay
from repro.core.glider import MAX_RRPV, MEDIUM_RRPV, RRPV_KEY
from repro.policies import LRUPolicy

from ..cache.test_fastsim import _synthetic_stream
from ..conftest import make_trace


def req(pc=1, line=0, kind=AccessType.LOAD, core=0):
    return CacheRequest(pc, line * 64, kind, core)


class TestConfig:
    def test_paper_defaults(self):
        cfg = GliderConfig()
        assert cfg.k == DEFAULT_K == 5
        assert cfg.table_bits == 11  # 2048 PCs
        assert cfg.weight_hash_bits == 4  # 16 weights
        assert cfg.num_sampled_sets == 64

    def test_predictor_storage(self):
        policy = GliderPolicy()
        assert policy.predictor_storage_bytes() == 2048 * 16


class TestInsertionBands:
    def test_cold_insert_is_medium(self):
        policy = GliderPolicy()
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(line=0))
        way = cache.find_way(0)
        assert cache.sets[0][way].policy_state[RRPV_KEY] == MEDIUM_RRPV

    def test_averse_insert(self):
        policy = GliderPolicy(GliderConfig(adaptive_threshold=False))
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(pc=8, line=1))  # fill the PCHR with PC 8
        for _ in range(10):
            policy.isvm.train(9, (8,), cache_friendly=False)
        cache.access(req(pc=9, line=0))
        way = cache.find_way(0)
        assert cache.sets[0][way].policy_state[RRPV_KEY] == MAX_RRPV

    def test_high_confidence_insert(self):
        policy = GliderPolicy(
            GliderConfig(adaptive_threshold=False, threshold=3000)
        )
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(pc=8, line=1))  # fill the PCHR with PC 8
        for _ in range(100):
            policy.isvm.train(5, (8,), cache_friendly=True)
        cache.access(req(pc=5, line=0))
        way = cache.find_way(0)
        assert cache.sets[0][way].policy_state[RRPV_KEY] == 0

    def test_binary_insertion_mode(self):
        policy = GliderPolicy(GliderConfig(confidence_insertion=False))
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(line=0))
        way = cache.find_way(0)
        assert cache.sets[0][way].policy_state[RRPV_KEY] == 0

    def test_writeback_inserts_averse(self):
        policy = GliderPolicy()
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(line=0, kind=AccessType.WRITEBACK))
        way = cache.find_way(0)
        assert cache.sets[0][way].policy_state[RRPV_KEY] == MAX_RRPV


class TestEviction:
    def test_averse_evicted_before_friendly(self):
        policy = GliderPolicy(GliderConfig(adaptive_threshold=False))
        cache = SetAssociativeCache(CacheConfig("t", 2 * 64, 2), policy)
        cache.access(req(pc=8, line=3))  # seed the PCHR
        for _ in range(10):
            policy.isvm.train(9, (8, 5), cache_friendly=False)
            policy.isvm.train(5, (8,), cache_friendly=True)
            policy.isvm.train(5, (8, 9, 5), cache_friendly=True)
        cache.access(req(pc=5, line=0))
        cache.access(req(pc=9, line=1))  # averse
        cache.access(req(pc=5, line=2))  # evicts averse line 1
        assert cache.probe(0)
        assert not cache.probe(64)


class TestPCHRBookkeeping:
    def test_per_core_registers(self):
        policy = GliderPolicy()
        SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache = policy.cache
        cache.access(req(pc=1, line=0, core=0))
        cache.access(req(pc=2, line=1, core=1))
        assert policy.pchr[0].snapshot() == (1,)
        assert policy.pchr[1].snapshot() == (2,)

    def test_history_snapshot_excludes_current_pc(self):
        policy = GliderPolicy()
        cache = SetAssociativeCache(CacheConfig("t", 8 * 64, 2), policy)
        cache.access(req(pc=1, line=0))
        cache.access(req(pc=2, line=1))
        # After two accesses, PCHR = (2, 1); the context used for access 2
        # was (1,), i.e. it did not yet contain PC 2.
        assert policy.pchr[0].snapshot() == (2, 1)


class TestLearning:
    def test_beats_lru_on_scan(self, scan_trace, small_hierarchy):
        stream = filter_to_llc_stream(scan_trace, small_hierarchy)
        lru = simulate_llc(stream, LRUPolicy(), small_hierarchy)
        glider = simulate_llc(stream, GliderPolicy(), small_hierarchy)
        assert glider.demand_miss_rate < lru.demand_miss_rate

    def test_context_dependent_stream(self, small_hierarchy):
        """Same target PC, caching decided by the preceding anchor PC.

        A PC-only predictor cannot exceed the majority class here; Glider
        separates the two contexts through the PCHR.
        """
        from repro.core import hash_pc

        # Pick prologue PCs with pairwise-distinct 4-bit weight hashes so
        # the two contexts don't alias in the 16-weight ISVM.
        chosen: list[int] = []
        used_hashes: set[int] = {hash_pc(7, 4)}
        for pc in range(100, 4000):
            h = hash_pc(pc, 4)
            if h not in used_hashes:
                used_hashes.add(h)
                chosen.append(pc)
            if len(chosen) == 8:
                break
        prologue_a_pcs, prologue_b_pcs = chosen[:4], chosen[4:]
        pairs = []
        # Hot pool of 128 lines: bigger than L2 (64 lines) so the target's
        # friendly accesses reach the LLC, smaller than the LLC (256) so
        # MIN labels them cache-friendly.
        cold = iter(range(10_000, 90_000))
        hot_cursor = 0
        for i in range(8000):
            if i % 2 == 0:
                pairs.extend((pc, 2) for pc in prologue_a_pcs)
                pairs.append((7, 300 + hot_cursor % 128))
                hot_cursor += 1
            else:
                pairs.extend((pc, 3) for pc in prologue_b_pcs)
                pairs.append((7, next(cold)))  # target -> streaming pool
        trace = make_trace(pairs, "ctx")
        stream = filter_to_llc_stream(trace, small_hierarchy)
        glider = GliderPolicy()
        simulate_llc(stream, glider, small_hierarchy)
        ctx_a = tuple(reversed(prologue_a_pcs)) + (7,)
        ctx_b = tuple(reversed(prologue_b_pcs)) + (7,)
        friendly = glider.isvm.predict(7, ctx_a)
        averse = glider.isvm.predict(7, ctx_b)
        assert friendly.total > averse.total

    def test_online_accuracy_exposed(self, scan_trace, small_hierarchy):
        stream = filter_to_llc_stream(scan_trace, small_hierarchy)
        policy = GliderPolicy()
        simulate_llc(stream, policy, small_hierarchy)
        assert policy.prediction_checks > 0
        assert 0.0 <= policy.online_accuracy <= 1.0

    def test_reset(self, small_hierarchy):
        policy = GliderPolicy()
        SetAssociativeCache(small_hierarchy.llc, policy)
        policy.isvm.train(1, (2,), True)
        policy.pchr.setdefault(0, None)
        policy.reset()
        assert policy.isvm.stats.trainings == 0
        assert not policy.pchr
        assert policy.prediction_checks == 0

    def test_reset_after_an_adaptive_run_replays_like_a_fresh_instance(self):
        """The sweep moves θ; reset() must restore the configured one."""
        stream = _synthetic_stream(n=3000, seed=13, line_count=512)
        config = CacheConfig("LLC", 16 * 4 * 64, 4)
        adaptive = GliderConfig(adaptive_threshold=True)
        policy = GliderPolicy(adaptive)
        reference_replay(stream, policy, config)
        assert policy.isvm.threshold != adaptive.threshold
        policy.reset()
        assert policy.isvm.threshold == adaptive.threshold
        events, fresh_events = [], []
        stats = reference_replay(stream, policy, config, record=events)
        fresh = GliderPolicy(adaptive)
        fresh_stats = reference_replay(stream, fresh, config, record=fresh_events)
        assert events == fresh_events
        assert stats == fresh_stats
        assert policy.introspect() == fresh.introspect()


class TestDetraining:
    def test_detrain_flag_off(self, scan_trace, small_hierarchy):
        stream = filter_to_llc_stream(scan_trace, small_hierarchy)
        policy = GliderPolicy(GliderConfig(detrain_on_eviction=False))
        stats = simulate_llc(stream, policy, small_hierarchy)
        assert stats.demand_accesses == stream.demand_count()
