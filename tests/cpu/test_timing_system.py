"""Tests for the core timing model and single/multi-core systems."""

import numpy as np
import pytest

from repro.cache import scaled_hierarchy
from repro.cache.config import DramConfig
from repro.cpu import (
    CoreTimingState,
    DramBus,
    MultiCoreSystem,
    SingleCoreSystem,
    level_latency,
)
from repro.policies import LRUPolicy, make_policy

from ..conftest import make_trace


class TestDramBus:
    def test_latency_added(self):
        bus = DramBus(DramConfig(latency=100, bandwidth_bytes_per_cycle=64))
        assert bus.request(0.0) == pytest.approx(100.0)

    def test_bandwidth_queueing(self):
        bus = DramBus(DramConfig(latency=100, bandwidth_bytes_per_cycle=6.4))
        first = bus.request(0.0)
        second = bus.request(0.0)  # queued behind the first transfer
        assert second > first

    def test_transfers_counted(self):
        bus = DramBus(DramConfig())
        bus.request(0.0)
        bus.request(0.0)
        assert bus.transfers == 2


class TestCoreTiming:
    def test_compute_advances_at_width(self):
        core = CoreTimingState(width=4)
        start = core.cycle
        core.advance_compute(40)
        assert core.cycle == pytest.approx(start + 10)

    def test_memory_overlap_within_rob(self):
        """Independent misses overlap: 10 accesses of 100 cycles each
        complete in far less than 1000 cycles."""
        core = CoreTimingState(width=4, rob_entries=128)
        for _ in range(10):
            core.issue_memory_access(100.0, instructions_per_access=4.0)
        core.drain()
        assert core.cycle < 300

    def test_rob_limits_overlap(self):
        """With a 1-entry window, latencies serialise."""
        core = CoreTimingState(width=4, rob_entries=1)
        for _ in range(10):
            core.issue_memory_access(100.0, instructions_per_access=1.0)
        core.drain()
        assert core.cycle >= 1000

    def test_ipc_bounded_by_width(self):
        core = CoreTimingState(width=4)
        core.advance_compute(1000)
        assert core.ipc <= 4.0 + 1e-9

    def test_rob_window_scaling(self):
        core = CoreTimingState(rob_entries=128)
        assert core.rob_access_window(4.0) == 32
        assert core.rob_access_window(1.0) == 128


class TestLevelLatency:
    def test_monotone_depth(self):
        cfg = scaled_hierarchy()
        l1 = level_latency(cfg, "l1")
        l2 = level_latency(cfg, "l2")
        llc = level_latency(cfg, "llc")
        dram = level_latency(cfg, "dram")
        assert l1 < l2 < llc < dram

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            level_latency(scaled_hierarchy(), "l9")


class TestSingleCoreSystem:
    def test_cache_friendly_faster_than_streaming(self, small_hierarchy):
        hot = make_trace([(1, i % 8) for i in range(4000)], "hot")
        stream = make_trace([(1, i) for i in range(4000)], "stream")
        ipc_hot = SingleCoreSystem(small_hierarchy, LRUPolicy()).run(hot).ipc
        ipc_stream = SingleCoreSystem(small_hierarchy, LRUPolicy()).run(stream).ipc
        assert ipc_hot > 2 * ipc_stream

    def test_result_fields(self, small_hierarchy, mixed_trace):
        result = SingleCoreSystem(small_hierarchy, LRUPolicy()).run(mixed_trace)
        assert result.instructions > 0
        assert result.cycles > 0
        assert 0 <= result.llc_miss_rate <= 1
        assert result.mpki >= 0

    def test_second_run_raises(self, small_hierarchy, mixed_trace):
        """The clock, bus and policy carry the first run's state: a
        second run would silently continue it."""
        system = SingleCoreSystem(small_hierarchy, "lru")
        first = system.run(mixed_trace)
        with pytest.raises(RuntimeError, match="build a new system"):
            system.run(mixed_trace)
        again = SingleCoreSystem(small_hierarchy, "lru").run(mixed_trace)
        assert (again.cycles, again.instructions) == (first.cycles, first.instructions)

    def test_better_policy_higher_ipc(self, scan_trace, small_hierarchy):
        lru = SingleCoreSystem(small_hierarchy, make_policy("lru")).run(scan_trace)
        hawkeye = SingleCoreSystem(small_hierarchy, make_policy("hawkeye")).run(
            scan_trace
        )
        assert hawkeye.ipc > lru.ipc


class TestMultiCoreSystem:
    def make_traces(self, n=4):
        traces = []
        for c in range(n):
            pairs = [(10 + c, (c * 1000 + i) % (400 + 100 * c)) for i in range(3000)]
            traces.append(make_trace(pairs, f"w{c}"))
        return traces

    def test_per_core_ipc_reported(self, small_hierarchy):
        system = MultiCoreSystem(self.make_traces(2), small_hierarchy, LRUPolicy())
        result = system.run(500)
        assert set(result.per_core_ipc) == {0, 1}
        assert all(v > 0 for v in result.per_core_ipc.values())

    def test_sharing_hurts_ipc(self, small_hierarchy):
        """Co-runners sharing the LLC can't beat running alone."""
        traces = self.make_traces(4)
        alone = SingleCoreSystem(small_hierarchy, LRUPolicy()).run(traces[0]).ipc
        system = MultiCoreSystem(traces, small_hierarchy, LRUPolicy())
        shared = system.run(2000).per_core_ipc[0]
        assert shared <= alone * 1.1  # small tolerance for wrap effects

    def test_second_run_raises(self, small_hierarchy):
        traces = self.make_traces(2)
        system = MultiCoreSystem(traces, small_hierarchy, "lru")
        first = system.run(500)
        with pytest.raises(RuntimeError, match="build a new system"):
            system.run(500)
        again = MultiCoreSystem(traces, small_hierarchy, "lru").run(500)
        assert again.cycles == first.cycles
        assert again.per_core_ipc == first.per_core_ipc

    def test_requires_traces(self, small_hierarchy):
        with pytest.raises(ValueError):
            MultiCoreSystem([], small_hierarchy)

    def test_writebacks_reach_shared_llc(self, small_hierarchy):
        pairs = [(1, i) for i in range(2000)]
        trace = make_trace(pairs, "w")
        trace.is_write[:] = True
        system = MultiCoreSystem([trace], small_hierarchy, LRUPolicy())
        system.run(1500)
        assert system.llc.stats.writeback_misses + system.llc.stats.writeback_hits > 0
