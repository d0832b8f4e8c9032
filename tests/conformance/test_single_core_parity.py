"""The three-pass single-core timing model against its per-access oracle.

``SingleCoreSystem.run`` filters the trace, replays the LLC stream on
the policy's engine and then times the accesses in one loop;
``reference_single_core`` steps the object-based hierarchy access by
access.  They must agree exactly on cycles, instructions and LLC demand
counts for every registry policy — passed by name or as a fresh
instance — on figure-scale and degenerate geometries alike, with the
timing invariants checked on every run of the new path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.config import DramConfig
from repro.conformance.invariants import InvariantViolation, checked_single_core
from repro.conformance.single_core import reference_single_core
from repro.cpu.system import SingleCoreSystem
from repro.eval.accuracy import _online_accuracy_benchmark
from repro.eval.multicore import _make_mix_policy
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.policies.registry import available_policies, make_policy
from repro.traces import Trace
from repro.traces.suite import get_trace

CONFIG = ExperimentConfig(trace_length=1500)
POLICIES = available_policies()
GEOMETRIES = {"1-core": CONFIG.hierarchy(), "4-core": CONFIG.hierarchy(cores=4)}


def _fields(result) -> tuple:
    return (
        result.cycles,
        result.instructions,
        result.llc_demand_accesses,
        result.llc_demand_misses,
    )


def _assert_matches_oracle(config, policy: str, trace) -> None:
    expected = _fields(reference_single_core(config, policy, trace))
    by_name = checked_single_core(config, policy, trace)
    by_instance = checked_single_core(config, make_policy(policy), trace)
    assert _fields(by_name) == expected
    assert _fields(by_instance) == expected


@pytest.fixture(scope="module")
def traces() -> dict[str, Trace]:
    llc_lines = CONFIG.hierarchy().llc.num_lines
    return {
        name: get_trace(name, length=CONFIG.trace_length, llc_lines=llc_lines, seed=0)
        for name in ("mcf", "lbm", "bfs")
    }


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_oracle_on_benchmarks(policy, geometry, traces):
    for trace in traces.values():
        _assert_matches_oracle(GEOMETRIES[geometry], policy, trace)


def _mixed_line_config() -> HierarchyConfig:
    return HierarchyConfig(
        l1=CacheConfig("L1D", 2048, 2, latency=4, line_size=32),
        l2=CacheConfig("L2", 8192, 4, latency=12),
        llc=CacheConfig("LLC", 8192, 4, latency=26),
        dram=DramConfig(latency=100, bandwidth_bytes_per_cycle=4.0),
    )


@pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye", "glider", "mpppb"])
def test_matches_oracle_on_mixed_line_sizes(policy, traces):
    """Line sizes that differ across levels take the reference filter
    fallback, which must report the same service levels."""
    _assert_matches_oracle(_mixed_line_config(), policy, traces["mcf"])


def _level(draw, name: str, line_size: int = 64) -> CacheConfig:
    sets = draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4]))
    return CacheConfig(
        name, sets * ways * line_size, ways, line_size=line_size,
        latency=draw(st.integers(1, 30)),
    )


@st.composite
def _small_hierarchies(draw) -> HierarchyConfig:
    return HierarchyConfig(
        l1=_level(draw, "L1D"),
        l2=_level(draw, "L2"),
        llc=_level(draw, "LLC"),
        dram=DramConfig(
            latency=draw(st.integers(1, 200)),
            bandwidth_bytes_per_cycle=draw(st.sampled_from([0.5, 4.0, 64.0])),
        ),
    )


_accesses = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 47), st.booleans()),
    min_size=1,
    max_size=150,
)


@settings(max_examples=60, deadline=None)
@given(
    config=_small_hierarchies(),
    policy=st.sampled_from(POLICIES),
    accesses=_accesses,
    ipa=st.sampled_from([1.0, 2.5, 4.0]),
)
def test_matches_oracle_on_small_geometries(config, policy, accesses, ipa):
    trace = Trace(
        name="property",
        pcs=np.array([0x400000 + 4 * pc for pc, _, _ in accesses], dtype=np.uint64),
        addresses=np.array([64 * line for _, line, _ in accesses], dtype=np.uint64),
        is_write=np.array([write for _, _, write in accesses], dtype=bool),
        instructions_per_access=ipa,
    )
    _assert_matches_oracle(config, policy, trace)


@pytest.mark.parametrize("policy", ["lru", "hawkeye", "mpppb", "sdbp"])
def test_empty_trace_takes_only_the_pipeline_fill(policy):
    empty = Trace(
        name="empty",
        pcs=np.zeros(0, dtype=np.uint64),
        addresses=np.zeros(0, dtype=np.uint64),
        is_write=np.zeros(0, dtype=bool),
    )
    _assert_matches_oracle(CONFIG.hierarchy(), policy, empty)
    result = SingleCoreSystem(CONFIG.hierarchy(), policy).run(empty)
    assert (result.cycles, result.instructions) == (8.0, 0.0)


def test_prefiltered_stream_matches_own_filter(traces):
    """A stream filtered once serves every policy and core count."""
    from repro.cache.hierarchy import filter_to_llc_stream

    trace = traces["mcf"]
    stream = filter_to_llc_stream(trace, CONFIG.hierarchy())
    for config in GEOMETRIES.values():
        for policy in ("lru", "hawkeye", "mpppb"):
            shared = SingleCoreSystem(config, policy, stream=stream).run(trace)
            assert _fields(shared) == _fields(SingleCoreSystem(config, policy).run(trace))
    with pytest.raises(ValueError):
        SingleCoreSystem(CONFIG.hierarchy(), "lru", stream=stream).run(traces["lbm"].head(10))
    stream.levels = None
    with pytest.raises(ValueError):
        SingleCoreSystem(CONFIG.hierarchy(), "lru", stream=stream)


def test_fast_path_builds_no_reference_cache(monkeypatch, traces):
    """With equal line sizes and a kernel policy, no object-based cache
    level is constructed: filter, kernel and timing pass do all the work.
    The same holds for Figure 13's scaled-window instances and for
    Figure 10, which reads trained state off its instances."""
    from repro.cache import cache, hierarchy

    def refuse(*args, **kwargs):
        raise AssertionError("reference cache constructed on the fast path")

    monkeypatch.setattr(cache.SetAssociativeCache, "__init__", refuse)
    monkeypatch.setattr(hierarchy.CacheHierarchy, "__init__", refuse)
    policies = ["lru", "hawkeye", "glider", "mpppb", "perceptron"]
    policies += [_make_mix_policy(name, 4) for name in ("hawkeye", "glider")]
    for policy in policies:
        SingleCoreSystem(CONFIG.hierarchy(), policy).run(traces["lbm"])
    result = _online_accuracy_benchmark("lbm", cache=ArtifactCache(CONFIG))
    assert 0 < result.hawkeye <= 1 and 0 < result.glider <= 1


def test_invariants_catch_overlapping_dram_reservations(monkeypatch, traces):
    """A bus that lets every transfer start at its request time overlaps
    back-to-back misses, and the record check must say so."""
    from .mutations import corrupt_timing_record

    occupancy = CONFIG.hierarchy().dram.cycles_per_line()

    def skip_queue(record):
        for n, (core, cycle, dram) in enumerate(record):
            if dram is not None:
                requested = dram[0]
                end = requested + occupancy
                record[n] = (core, cycle, (requested, requested, end))

    corrupt_timing_record(monkeypatch, skip_queue)
    with pytest.raises(InvariantViolation) as info:
        checked_single_core(CONFIG.hierarchy(), "lru", traces["lbm"])
    assert info.value.invariant == "dram-reservation-overlap"


def test_invariants_catch_lost_instructions(traces):
    from repro.conformance.invariants import check_timing_result

    trace = traces["mcf"]
    result = SingleCoreSystem(CONFIG.hierarchy(), "lru").run(trace)
    check_timing_result(result, trace, width=4)
    result.instructions -= 1
    with pytest.raises(InvariantViolation) as info:
        check_timing_result(result, trace, width=4)
    assert info.value.invariant == "timing-instructions"
    with pytest.raises(InvariantViolation) as info:
        check_timing_result(result, trace, width=0)
    assert info.value.invariant == "timing-ipc-bound"
