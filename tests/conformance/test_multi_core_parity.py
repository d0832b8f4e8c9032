"""The filter-once system model against its per-access oracle.

``MultiCoreSystem.run`` filters each core's accesses through its private
L1/L2 once; with one core it replays the LLC stream and times the
recorded hit bits, with more it steps the shared LLC kernel inside the
time-ordered interleave.  ``reference_multi_core`` steps every core's
object-based L1, L2 and the shared LLC access by access.  They must
agree exactly on cycles, instructions, LLC demand counts and per-core
IPC for every registry policy — passed by name or as a fresh instance —
with the timing invariants checked on every run of the new path.  The
one-core cases run a whole trace (quota = its length, so it never
wraps), as Figures 12 and 13's ``SingleCoreSystem`` does, and check
that front end too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.config import DramConfig
from repro.cache.hierarchy import filter_to_llc_stream
from repro.conformance.invariants import (
    InvariantViolation,
    check_timing_result,
    checked_multi_core,
)
from repro.conformance.multi_core import reference_multi_core
from repro.cpu.system import MultiCoreSystem, SingleCoreSystem, core_streams
from repro.eval.accuracy import _online_accuracy_benchmark
from repro.eval.multicore import _make_mix_policy
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.policies.registry import available_policies, make_policy
from repro.traces import Trace
from repro.traces.suite import get_trace

CONFIG = ExperimentConfig(trace_length=1200)
QUOTA = 1500
POLICIES = available_policies()
BENCHMARKS = ("mcf", "lbm", "bfs", "omnetpp")
# One core runs a whole trace, at Figure 12's geometry and at Figure
# 13's 4-core one (its alone-IPC references).
ONE_CORE = ExperimentConfig(trace_length=1500)
GEOMETRIES = {"1-core": ONE_CORE.hierarchy(), "4-core": ONE_CORE.hierarchy(cores=4)}


def _fields(result) -> tuple:
    return (
        result.cycles,
        result.instructions,
        result.llc_demand_accesses,
        result.llc_demand_misses,
        result.per_core_ipc,
    )


def _assert_matches_oracle(config, policy: str, traces, quota: int) -> tuple:
    expected = _fields(reference_multi_core(config, policy, traces, quota))
    by_name = checked_multi_core(config, policy, traces, quota)
    by_instance = checked_multi_core(config, make_policy(policy), traces, quota)
    assert _fields(by_name) == expected
    assert _fields(by_instance) == expected
    return expected


def _assert_one_core_matches_oracle(config, policy: str, trace: Trace) -> None:
    """The whole trace on one core, and through the one-core front end."""
    expected = _assert_matches_oracle(config, policy, [trace], len(trace))
    assert _fields(SingleCoreSystem(config, policy).run(trace)) == expected


@pytest.fixture(scope="module")
def traces() -> dict[str, Trace]:
    llc_lines = CONFIG.hierarchy().llc.num_lines
    return {
        name: get_trace(name, length=CONFIG.trace_length, llc_lines=llc_lines, seed=0)
        for name in BENCHMARKS
    }


@pytest.fixture(scope="module")
def whole_traces() -> dict[str, Trace]:
    llc_lines = ONE_CORE.hierarchy().llc.num_lines
    return {
        name: get_trace(name, length=ONE_CORE.trace_length, llc_lines=llc_lines, seed=0)
        for name in ("mcf", "lbm", "bfs")
    }


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_oracle_on_benchmarks(policy, cores, traces):
    mix = [traces[name] for name in BENCHMARKS[:cores]]
    _assert_matches_oracle(CONFIG.hierarchy(cores=cores), policy, mix, QUOTA)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("policy", POLICIES)
def test_one_core_matches_oracle_on_benchmarks(policy, geometry, whole_traces):
    for trace in whole_traces.values():
        _assert_one_core_matches_oracle(GEOMETRIES[geometry], policy, trace)


@pytest.mark.parametrize("policy", ["lru", "ship++", "hawkeye", "glider", "mpppb"])
def test_matches_oracle_when_a_trace_wraps(policy, traces):
    """A trace shorter than the quota rewinds; the offsets still apply."""
    short = Trace(
        name="short",
        pcs=traces["mcf"].pcs[:90],
        addresses=traces["mcf"].addresses[:90],
        is_write=traces["mcf"].is_write[:90],
    )
    _assert_matches_oracle(CONFIG.hierarchy(cores=2), policy, [short, traces["lbm"]], 700)


def _level(draw, name: str) -> CacheConfig:
    sets = draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4]))
    return CacheConfig(name, sets * ways * 64, ways, latency=draw(st.integers(1, 30)))


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
        cores=draw(st.integers(1, 4)),
    )


_accesses = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 47), st.booleans()),
    min_size=1,
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(
    config=_small_hierarchies(),
    policy=st.sampled_from(POLICIES),
    mix=st.lists(_accesses, min_size=4, max_size=4),
    ipa=st.sampled_from([1.0, 2.5, 4.0]),
    quota=st.integers(1, 120),
)
def test_matches_oracle_on_small_geometries(config, policy, mix, ipa, quota):
    """Traces mostly shorter than the quota, so cores rewind; at one
    instruction per access no compute separates the cores, so they tie
    on cycle and the core id must break the tie."""
    traces = [
        Trace(
            name=f"property{core}",
            pcs=np.array([0x400000 + 4 * pc for pc, _, _ in accesses], dtype=np.uint64),
            addresses=np.array([64 * line for _, line, _ in accesses], dtype=np.uint64),
            is_write=np.array([write for _, _, write in accesses], dtype=bool),
            instructions_per_access=ipa,
        )
        for core, accesses in enumerate(mix[: config.cores])
    ]
    _assert_matches_oracle(config, policy, traces, quota)


@settings(max_examples=60, deadline=None)
@given(
    config=_small_hierarchies(),
    policy=st.sampled_from(POLICIES),
    accesses=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 47), st.booleans()),
        min_size=1,
        max_size=150,
    ),
    ipa=st.sampled_from([1.0, 2.5, 4.0]),
)
def test_one_core_matches_oracle_on_small_geometries(config, policy, accesses, ipa):
    trace = Trace(
        name="property",
        pcs=np.array([0x400000 + 4 * pc for pc, _, _ in accesses], dtype=np.uint64),
        addresses=np.array([64 * line for _, line, _ in accesses], dtype=np.uint64),
        is_write=np.array([write for _, _, write in accesses], dtype=bool),
        instructions_per_access=ipa,
    )
    _assert_one_core_matches_oracle(config, policy, trace)


def _all_writes(trace: Trace) -> Trace:
    return Trace(
        name=f"{trace.name}-stores",
        pcs=trace.pcs,
        addresses=trace.addresses,
        is_write=np.ones(len(trace), dtype=bool),
        instructions_per_access=trace.instructions_per_access,
    )


@pytest.mark.parametrize("policy", ["lru", "srrip", "ship++", "hawkeye", "glider"])
def test_matches_oracle_with_writebacks(policy, traces):
    """Every access is a store, so L2 evictions write back to the shared LLC."""
    mix = [_all_writes(traces[name]) for name in ("bfs", "lbm")]
    config = CONFIG.hierarchy(cores=2)
    streams = core_streams(mix, config, QUOTA)
    assert all((s.kinds == s.KIND_WRITEBACK).any() for s in streams)
    _assert_matches_oracle(config, policy, mix, QUOTA)


def _mixed_line_config(cores: int) -> HierarchyConfig:
    return HierarchyConfig(
        l1=CacheConfig("L1D", 2048, 2, latency=4, line_size=32),
        l2=CacheConfig("L2", 8192, 4, latency=12),
        llc=CacheConfig("LLC", 8192 * cores, 4, latency=26),
        dram=DramConfig(latency=100, bandwidth_bytes_per_cycle=4.0),
        cores=cores,
    )


@pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye", "glider", "mpppb"])
def test_matches_oracle_on_mixed_line_sizes(policy, traces):
    """Line sizes that differ across levels take the reference filter
    fallback, which must report the same service levels and requests."""
    mix = [traces["mcf"], traces["omnetpp"]]
    _assert_matches_oracle(_mixed_line_config(2), policy, mix, 800)


@pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye", "glider", "mpppb"])
def test_one_core_matches_oracle_on_mixed_line_sizes(policy, whole_traces):
    _assert_one_core_matches_oracle(_mixed_line_config(1), policy, whole_traces["mcf"])


def test_shared_streams_match_per_system_filtering(traces):
    """Streams built once per mix give every policy the result its own
    filter pass would."""
    mix = [traces[name] for name in BENCHMARKS]
    config = CONFIG.hierarchy(cores=4)
    streams = core_streams(mix, config, QUOTA)
    for policy in ("lru", "ship++", "mpppb"):
        shared = MultiCoreSystem(mix, config, policy, streams=streams).run(QUOTA)
        alone = MultiCoreSystem(mix, config, policy).run(QUOTA)
        assert _fields(shared) == _fields(alone)


def test_streams_must_fit_the_run(traces):
    mix = [traces["mcf"], traces["lbm"]]
    config = CONFIG.hierarchy(cores=2)
    streams = core_streams(mix, config, 500)
    with pytest.raises(ValueError):
        MultiCoreSystem(mix, config, "lru", streams=streams).run(600)
    with pytest.raises(ValueError):
        MultiCoreSystem(mix, config, "lru", streams=streams[:1])
    streams[0].levels = None
    with pytest.raises(ValueError):
        MultiCoreSystem(mix, config, "lru", streams=streams)


def test_prefiltered_stream_matches_own_filter(whole_traces):
    """A trace's stream, filtered once, serves every policy and core
    count, and is core 0's view at a quota of the trace's length."""
    trace = whole_traces["mcf"]
    stream = filter_to_llc_stream(trace, ONE_CORE.hierarchy())
    for config in GEOMETRIES.values():
        for policy in ("lru", "hawkeye", "mpppb"):
            shared = SingleCoreSystem(config, policy, stream=stream).run(trace)
            assert _fields(shared) == _fields(SingleCoreSystem(config, policy).run(trace))
            alone = MultiCoreSystem([trace], config, policy, streams=[stream])
            assert _fields(alone.run(len(trace))) == _fields(shared)
    with pytest.raises(ValueError):
        SingleCoreSystem(ONE_CORE.hierarchy(), "lru", stream=stream).run(
            whole_traces["lbm"].head(10)
        )
    stream.levels = None
    with pytest.raises(ValueError):
        SingleCoreSystem(ONE_CORE.hierarchy(), "lru", stream=stream)


@pytest.mark.parametrize("policy", ["lru", "hawkeye", "mpppb", "sdbp"])
def test_empty_trace_takes_only_the_pipeline_fill(policy, whole_traces):
    """A one-core system times an empty trace as the pipeline fill alone;
    a quota, even for a single core, must be positive."""
    empty = Trace(
        name="empty",
        pcs=np.zeros(0, dtype=np.uint64),
        addresses=np.zeros(0, dtype=np.uint64),
        is_write=np.zeros(0, dtype=bool),
    )
    result = SingleCoreSystem(ONE_CORE.hierarchy(), policy).run(empty)
    assert (result.cycles, result.instructions) == (8.0, 0.0)
    assert (result.llc_demand_accesses, result.llc_demand_misses) == (0, 0)
    check_timing_result(result, empty, width=4)
    with pytest.raises(ValueError):
        MultiCoreSystem([whole_traces["mcf"]], ONE_CORE.hierarchy(), policy).run(0)


def _refuse_reference_caches(monkeypatch) -> None:
    from repro.cache import cache, hierarchy

    def refuse(*args, **kwargs):
        raise AssertionError("reference cache constructed on the fast path")

    monkeypatch.setattr(cache.SetAssociativeCache, "__init__", refuse)
    monkeypatch.setattr(hierarchy.CacheHierarchy, "__init__", refuse)


def test_fast_path_builds_no_reference_cache(monkeypatch, traces):
    """With equal line sizes and a kernel policy, no object-based cache
    level is constructed: the per-core filter and the stepped LLC kernel
    do all the work."""
    _refuse_reference_caches(monkeypatch)
    mix = [traces[name] for name in BENCHMARKS]
    policies = ["lru", "ship++", "hawkeye", "glider", "mpppb"]
    # Figure 13's instances, with 4-core-scaled OPTgen windows.
    policies += [_make_mix_policy(name, 4) for name in ("hawkeye", "glider")]
    for policy in policies:
        MultiCoreSystem(mix, CONFIG.hierarchy(cores=4), policy).run(500)


def test_one_core_fast_path_builds_no_reference_cache(monkeypatch, whole_traces):
    """Likewise for one core: filter, kernel replay and timing pass do
    all the work, for Figure 13's scaled-window instances too, and for
    Figure 10, which reads trained state off its instances."""
    _refuse_reference_caches(monkeypatch)
    policies = ["lru", "hawkeye", "glider", "mpppb", "perceptron"]
    policies += [_make_mix_policy(name, 4) for name in ("hawkeye", "glider")]
    for policy in policies:
        SingleCoreSystem(ONE_CORE.hierarchy(), policy).run(whole_traces["lbm"])
    result = _online_accuracy_benchmark("lbm", cache=ArtifactCache(ONE_CORE))
    assert 0 < result.hawkeye <= 1 and 0 < result.glider <= 1


def test_invariants_catch_overlapping_dram_reservations(monkeypatch, whole_traces):
    """A bus that lets every transfer start at its request time overlaps
    back-to-back misses, and the record check must say so."""
    from .mutations import corrupt_timing_record

    occupancy = ONE_CORE.hierarchy().dram.cycles_per_line()

    def skip_queue(record):
        for n, (core, cycle, dram) in enumerate(record):
            if dram is not None:
                requested = dram[0]
                record[n] = (core, cycle, (requested, requested, requested + occupancy))

    corrupt_timing_record(monkeypatch, skip_queue)
    trace = whole_traces["lbm"]
    with pytest.raises(InvariantViolation) as info:
        checked_multi_core(ONE_CORE.hierarchy(), "lru", [trace], len(trace))
    assert info.value.invariant == "dram-reservation-overlap"


def test_invariants_catch_lost_instructions(monkeypatch, traces):
    """An access the record says core 0 issued, whose instructions it
    never retired, trips the check."""
    from .mutations import corrupt_timing_record

    def issue_unretired(record):
        n = next(
            n for n, (core, _, dram) in enumerate(record) if core == 0 and dram is None
        )
        record.insert(n, record[n])

    corrupt_timing_record(monkeypatch, issue_unretired)
    mix = [traces["mcf"], traces["lbm"]]
    with pytest.raises(InvariantViolation) as info:
        checked_multi_core(CONFIG.hierarchy(cores=2), "lru", mix, 300)
    assert info.value.invariant == "timing-instructions"


def test_one_core_invariants_catch_lost_instructions(whole_traces):
    """A result short of its trace's instructions, or above the issue
    width, fails the result check."""
    trace = whole_traces["mcf"]
    result = SingleCoreSystem(ONE_CORE.hierarchy(), "lru").run(trace)
    check_timing_result(result, trace, width=4)
    result.instructions -= 1
    with pytest.raises(InvariantViolation) as info:
        check_timing_result(result, trace, width=4)
    assert info.value.invariant == "timing-instructions"
    with pytest.raises(InvariantViolation) as info:
        check_timing_result(result, trace, width=0)
    assert info.value.invariant == "timing-ipc-bound"


def test_invariants_catch_a_cycle_going_back(monkeypatch, traces):
    """A core whose cycle after an issue is below its previous one trips
    the check."""
    from .mutations import corrupt_timing_record

    def rewind(record):
        before, n = [n for n, (core, _, _) in enumerate(record) if core == 1][9:11]
        core, _, dram = record[n]
        record[n] = (core, record[before][1] - 1.0, dram)

    corrupt_timing_record(monkeypatch, rewind)
    mix = [traces["mcf"], traces["lbm"]]
    with pytest.raises(InvariantViolation) as info:
        checked_multi_core(CONFIG.hierarchy(cores=2), "lru", mix, 300)
    assert info.value.invariant == "timing-cycles-monotone"
