"""The filter-once multi-core timing model against its per-access oracle.

``MultiCoreSystem.run`` filters each core's accesses through its private
L1/L2 once, then steps only the shared LLC kernel inside the
time-ordered interleave; ``reference_multi_core`` steps every core's
object-based L1, L2 and the shared LLC access by access.  They must
agree exactly on cycles, instructions, LLC demand counts and per-core
IPC for every registry policy — passed by name or as a fresh instance —
with the timing invariants checked on every run of the new path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheConfig, HierarchyConfig
from repro.cache.config import DramConfig
from repro.conformance.invariants import InvariantViolation, checked_multi_core
from repro.conformance.multi_core import reference_multi_core
from repro.cpu.system import MultiCoreSystem, core_streams
from repro.eval.runner import ExperimentConfig
from repro.policies.registry import available_policies, make_policy
from repro.traces import Trace
from repro.traces.suite import get_trace

CONFIG = ExperimentConfig(trace_length=1200)
QUOTA = 1500
#: MIN needs the whole future stream up front, which an interleave only
#: knows once it has run.
POLICIES = [p for p in available_policies() if p != "belady"]
BENCHMARKS = ("mcf", "lbm", "bfs", "omnetpp")


def _fields(result) -> tuple:
    return (
        result.cycles,
        result.instructions,
        result.llc_demand_accesses,
        result.llc_demand_misses,
        result.per_core_ipc,
    )


def _assert_matches_oracle(config, policy: str, traces, quota: int) -> None:
    expected = _fields(reference_multi_core(config, policy, traces, quota))
    by_name = checked_multi_core(config, policy, traces, quota)
    by_instance = checked_multi_core(config, make_policy(policy), traces, quota)
    assert _fields(by_name) == expected
    assert _fields(by_instance) == expected


@pytest.fixture(scope="module")
def traces() -> dict[str, Trace]:
    llc_lines = CONFIG.hierarchy().llc.num_lines
    return {
        name: get_trace(name, length=CONFIG.trace_length, llc_lines=llc_lines, seed=0)
        for name in BENCHMARKS
    }


@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_oracle_on_benchmarks(policy, cores, traces):
    mix = [traces[name] for name in BENCHMARKS[:cores]]
    _assert_matches_oracle(CONFIG.hierarchy(cores=cores), policy, mix, QUOTA)


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


def _mixed_line_config() -> HierarchyConfig:
    return HierarchyConfig(
        l1=CacheConfig("L1D", 2048, 2, latency=4, line_size=32),
        l2=CacheConfig("L2", 8192, 4, latency=12),
        llc=CacheConfig("LLC", 16384, 4, latency=26),
        dram=DramConfig(latency=100, bandwidth_bytes_per_cycle=4.0),
        cores=2,
    )


@pytest.mark.parametrize("policy", ["lru", "srrip", "hawkeye", "glider", "mpppb"])
def test_matches_oracle_on_mixed_line_sizes(policy, traces):
    """Line sizes that differ across levels take the reference filter
    fallback, which must report the same service levels and requests."""
    mix = [traces["mcf"], traces["omnetpp"]]
    _assert_matches_oracle(_mixed_line_config(), policy, mix, 800)


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


def test_fast_path_builds_no_reference_cache(monkeypatch, traces):
    """With equal line sizes and a kernel policy, no object-based cache
    level is constructed: the per-core filter and the stepped LLC kernel
    do all the work."""
    from repro.cache import cache, hierarchy

    def refuse(*args, **kwargs):
        raise AssertionError("reference cache constructed on the fast path")

    monkeypatch.setattr(cache.SetAssociativeCache, "__init__", refuse)
    monkeypatch.setattr(hierarchy.CacheHierarchy, "__init__", refuse)
    mix = [traces[name] for name in BENCHMARKS]
    for policy in ("lru", "ship++", "hawkeye", "glider"):
        MultiCoreSystem(mix, CONFIG.hierarchy(cores=4), policy).run(500)


def test_invariants_catch_lost_instructions(monkeypatch, traces):
    """A core that retires one instruction too few trips the check."""
    from repro.conformance import invariants

    issue = invariants._MonotoneCore.issue_memory_access

    def short_retire(self, latency, ipa):
        issue(self, latency, ipa)
        if self._issues == 1:
            self.retired_instructions -= 1

    monkeypatch.setattr(invariants._MonotoneCore, "issue_memory_access", short_retire)
    mix = [traces["mcf"], traces["lbm"]]
    with pytest.raises(InvariantViolation) as info:
        checked_multi_core(CONFIG.hierarchy(cores=2), "lru", mix, 300)
    assert info.value.invariant == "timing-instructions"
