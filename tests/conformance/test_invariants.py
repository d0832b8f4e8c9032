"""The invariant checkers must pass on healthy state and catch corruption."""

from __future__ import annotations

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.conformance.invariants import (
    InvariantViolation,
    check_cache_state,
    check_isvm_saturation,
    check_optgen_vector,
    check_rrpv_bounds,
    checked_replay,
    run_all_checks,
)
from repro.optgen.optgen import OptGen, SetOptGen
from repro.policies.registry import make_policy
from repro.policies.rrip import RRPV_KEY


def _small_config() -> CacheConfig:
    return CacheConfig("LLC", 8 * 64, associativity=2, latency=1)


def _warm_cache(policy_name: str) -> SetAssociativeCache:
    spec = CaseSpec(family="mix", seed=0, length=200, num_sets=4, associativity=2)
    stream = generate_stream(spec)
    cache = SetAssociativeCache(
        CacheConfig("LLC", 4 * 2 * 64, 2, latency=1), make_policy(policy_name)
    )
    for request in stream.requests():
        cache.access(request)
    return cache


def test_checks_pass_on_healthy_state():
    for policy in ("lru", "srrip", "glider"):
        run_all_checks(_warm_cache(policy))


def test_occupancy_counter_corruption_detected():
    cache = _warm_cache("lru")
    cache._valid_lines += 1
    with pytest.raises(InvariantViolation, match="occupancy counter") as info:
        check_cache_state(cache)
    assert info.value.invariant == "occupancy-conservation"


def test_duplicate_tag_detected():
    cache = _warm_cache("lru")
    ways = cache.sets[0]
    ways[1].valid = True
    ways[1].tag = ways[0].tag
    with pytest.raises(InvariantViolation, match="duplicate tags"):
        check_cache_state(cache)


@pytest.mark.parametrize("policy_name", ["srrip", "hawkeye", "glider"])
def test_rrpv_out_of_bounds_detected(policy_name):
    cache = _warm_cache(policy_name)
    check_rrpv_bounds(cache)
    for ways in cache.sets:
        for line in ways:
            if line.valid:
                line.policy_state[RRPV_KEY] = cache.policy.max_rrpv + 5
                with pytest.raises(InvariantViolation, match="RRPV"):
                    check_rrpv_bounds(cache)
                return
    pytest.fail("no valid line to corrupt")


def test_rrpv_check_skips_non_rrip_policies():
    check_rrpv_bounds(_warm_cache("lru"))  # no max_rrpv: must not raise


def test_isvm_saturation_detected():
    cache = _warm_cache("glider")
    table = cache.policy.isvm
    table._table[0].weights[0] = 1000  # out of signed 8-bit range
    with pytest.raises(InvariantViolation, match="ISVM"):
        check_isvm_saturation(cache.policy)


def test_isvm_threshold_detected():
    cache = _warm_cache("glider")
    cache.policy.isvm.adaptive = True  # candidacy only enforced when adapting
    cache.policy.isvm.threshold = 17  # not a candidate value
    with pytest.raises(InvariantViolation, match="threshold"):
        check_isvm_saturation(cache.policy)


def test_optgen_vector_corruption_detected():
    sog = SetOptGen(capacity=2, window=16)
    for line in [1, 2, 3, 1, 2, 3, 4, 1]:
        sog.access(line)
    check_optgen_vector(sog)  # healthy
    sog.occupancy[0] = sog.capacity + 1
    with pytest.raises(InvariantViolation, match="occupancy"):
        check_optgen_vector(sog)


def test_optgen_counter_tieout_detected():
    optgen = OptGen(num_sets=2, associativity=2)
    for line in range(8):
        optgen.access(line)
    optgen.sets[0].opt_misses += 1
    with pytest.raises(InvariantViolation, match="!= time"):
        check_optgen_vector(optgen)


def test_checked_replay_matches_plain_reference():
    """Attaching checkers must not change the simulation."""
    from repro.cache.fastsim import reference_replay

    spec = CaseSpec(family="zipf", seed=5, length=300, num_sets=8, associativity=2)
    stream = generate_stream(spec)
    config = spec_config(spec)
    checked_events: list = []
    plain_events: list = []
    checked = checked_replay(stream, "srrip", config, every=32, record=checked_events)
    plain = reference_replay(stream, "srrip", config, record=plain_events)
    assert checked_events == plain_events
    assert checked == plain
