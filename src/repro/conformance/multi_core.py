"""Per-access oracle for the multi-core timing model.

:class:`~repro.cpu.system.MultiCoreSystem` filters each core's accesses
through its private L1/L2 once, then steps only the shared LLC inside
the time-ordered interleave.  The oracle here is the model it replaced:
one heap loop that steps every core's object-based L1, L2 and the shared
:class:`~repro.cache.cache.SetAssociativeCache` LLC access by access.
The two must agree exactly — cycles, instructions, LLC demand counts and
per-core IPC — for every policy and core count
(``tests/conformance/test_multi_core_parity.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..cache.block import AccessType, CacheRequest
from ..cache.cache import SetAssociativeCache
from ..cache.config import HierarchyConfig
from ..cache.policy import ReplacementPolicy
from ..cpu.system import SystemResult
from ..cpu.timing import CoreTimingState, DramBus, level_latency
from ..policies.lru import LRUPolicy
from ..policies.registry import make_policy
from ..traces.trace import Trace

__all__ = ["reference_multi_core"]


@dataclass
class _CoreContext:
    trace: Trace
    timing: CoreTimingState
    core_id: int = 0
    cursor: int = 0
    accesses_done: int = 0
    wraps: int = 0

    def next_access(self) -> tuple[int, int, bool]:
        if self.cursor >= len(self.trace):
            self.cursor = 0
            self.wraps += 1
        i = self.cursor
        self.cursor += 1
        self.accesses_done += 1
        # Distinct processes occupy distinct virtual code/data ranges
        # (separate binaries + ASLR), so each core's PCs and addresses
        # are offset into a private region; without this, co-running
        # synthetic programs would alias in PC-indexed predictor tables,
        # an artefact real multi-programmed systems do not have.
        offset = self.core_id << 44
        return (
            int(self.trace.pcs[i]) + (self.core_id << 40),
            int(self.trace.addresses[i]) + offset,
            bool(self.trace.is_write[i]),
        )


class _ReferenceMultiCore:
    """N cores with private object-based L1/L2 and a shared LLC."""

    def __init__(
        self,
        traces: list[Trace],
        config: HierarchyConfig,
        llc_policy: ReplacementPolicy,
        width: int,
        rob_entries: int,
    ) -> None:
        self.config = config
        self.llc = SetAssociativeCache(self.config.llc, llc_policy)
        self.l1s = [SetAssociativeCache(self.config.l1, LRUPolicy()) for _ in traces]
        self.l2s = [SetAssociativeCache(self.config.l2, LRUPolicy()) for _ in traces]
        self.dram = DramBus(self.config.dram)
        self.cores = [
            _CoreContext(
                trace=t,
                timing=CoreTimingState(width=width, rob_entries=rob_entries),
                core_id=i,
            )
            for i, t in enumerate(traces)
        ]
        self._access_index = 0

    def _core_access(self, core_id: int, pc: int, address: int, is_write: bool) -> str:
        self._access_index += 1
        request = CacheRequest(
            pc,
            address,
            AccessType.STORE if is_write else AccessType.LOAD,
            core=core_id,
            access_index=self._access_index,
        )
        if self.l1s[core_id].access(request).hit:
            return "l1"
        l2_result = self.l2s[core_id].access(request)
        if l2_result.hit:
            return "l2"
        llc_result = self.llc.access(request)
        if l2_result.caused_writeback:
            wb_address = self.l2s[core_id].evicted_line_address(
                self.l2s[core_id].set_index(address), l2_result
            )
            self._access_index += 1
            self.llc.access(
                CacheRequest(
                    l2_result.evicted_pc,
                    wb_address,
                    AccessType.WRITEBACK,
                    core=core_id,
                    access_index=self._access_index,
                )
            )
        return "llc" if llc_result.hit else "dram"

    def run(self, quota_accesses: int) -> SystemResult:
        """Run until every core has issued ``quota_accesses`` accesses."""
        heap = [(core.timing.cycle, i) for i, core in enumerate(self.cores)]
        heapq.heapify(heap)
        remaining = {i: quota_accesses for i in range(len(self.cores))}
        while heap:
            _, core_id = heapq.heappop(heap)
            core = self.cores[core_id]
            ipa = core.trace.instructions_per_access
            core.timing.advance_compute(max(0.0, ipa - 1.0))
            pc, address, is_write = core.next_access()
            level = self._core_access(core_id, pc, address, is_write)
            if level == "dram":
                done = self.dram.request(core.timing.cycle)
                latency = level_latency(self.config, "llc") + (done - core.timing.cycle)
            else:
                latency = level_latency(self.config, level)
            core.timing.issue_memory_access(latency, ipa)
            remaining[core_id] -= 1
            if remaining[core_id] > 0:
                heapq.heappush(heap, (core.timing.cycle, core_id))
        for core in self.cores:
            core.timing.drain()
        total_instructions = sum(c.timing.retired_instructions for c in self.cores)
        cycles = max(c.timing.cycle for c in self.cores)
        return SystemResult(
            name="+".join(c.trace.name for c in self.cores),
            cycles=cycles,
            instructions=float(total_instructions),
            llc_demand_accesses=self.llc.stats.demand_accesses,
            llc_demand_misses=self.llc.stats.demand_misses,
            per_core_ipc={i: c.timing.ipc for i, c in enumerate(self.cores)},
        )


def reference_multi_core(
    config: HierarchyConfig,
    policy: ReplacementPolicy | str,
    traces: list[Trace],
    quota: int,
    width: int = 4,
    rob_entries: int = 128,
) -> SystemResult:
    """Interleave ``traces`` on a shared LLC, stepping every cache level.

    ``policy`` is a registry name (a fresh instance is built) or an
    instance, which the shared LLC uses directly.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    return _ReferenceMultiCore(traces, config, policy, width, rob_entries).run(quota)
