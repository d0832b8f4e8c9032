"""Single-core and multi-core system models (IPC and weighted speedup).

``SingleCoreSystem`` drives one trace through a private hierarchy with a
chosen LLC policy and reports IPC.  ``MultiCoreSystem`` reproduces the
paper's 4-core methodology (Section 5.1): per-core private L1/L2, a
shared LLC, traces rewound until every core has executed its quota, and
weighted speedup ``sum(IPC_shared / IPC_single)`` computed against each
benchmark running alone on the same shared-cache configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache import fastsim
from ..cache.block import AccessType, CacheRequest
from ..cache.cache import SetAssociativeCache
from ..cache.config import HierarchyConfig, scaled_hierarchy
from ..cache.hierarchy import LLCStream, filter_to_llc_stream
from ..cache.policy import ReplacementPolicy
from ..policies.lru import LRUPolicy
from ..traces.trace import Trace
from .timing import CoreTimingState, DramBus, level_latency


@dataclass
class SystemResult:
    """Outcome of one system simulation."""

    name: str
    cycles: float
    instructions: float
    llc_demand_accesses: int
    llc_demand_misses: int
    per_core_ipc: dict[int, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / max(1.0, self.cycles)

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_demand_misses / max(1, self.llc_demand_accesses)

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        return 1000.0 * self.llc_demand_misses / max(1.0, self.instructions)


class SingleCoreSystem:
    """One core, private three-level hierarchy, DRAM bus.

    ``llc_policy`` is a registry name (``"lru"`` by default) or a
    policy instance; it reaches :func:`repro.cache.fastsim.replay`
    unchanged, so a name takes the policy's fast kernel when it has one
    and an instance keeps the engine rules documented there.

    :meth:`run` is three passes, exact because timing never feeds back
    into cache state and the LRU L1/L2 never see the LLC policy: the
    L1/L2 filter records the LLC stream plus each access's service
    level, the LLC policy replays that stream (recording hit or miss
    per access), and one loop over the levels drives the core and DRAM
    timing.  :func:`repro.conformance.single_core.reference_single_core`
    is the per-access oracle it must match exactly.
    """

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        llc_policy: ReplacementPolicy | str | None = None,
        width: int = 4,
        rob_entries: int = 128,
    ) -> None:
        self.config = config or scaled_hierarchy()
        self.llc_policy = llc_policy if llc_policy is not None else "lru"
        self.dram = DramBus(self.config.dram)
        self.core = CoreTimingState(width=width, rob_entries=rob_entries)

    def run(self, trace: Trace) -> SystemResult:
        stream = filter_to_llc_stream(trace, self.config)
        events: list = []
        llc = fastsim.replay(stream, self.llc_policy, self.config, record=events)
        demand_hits = [
            event[0]
            for event, kind in zip(events, stream.kinds.tolist())
            if kind != LLCStream.KIND_WRITEBACK
        ]
        self._timing_pass(trace.instructions_per_access, stream.levels, demand_hits)
        return SystemResult(
            name=trace.name,
            cycles=self.core.cycle,
            instructions=float(self.core.retired_instructions),
            llc_demand_accesses=llc.demand_accesses,
            llc_demand_misses=llc.demand_misses,
        )

    def _timing_pass(self, ipa: float, levels, demand_hits: list[int]) -> None:
        """Issue every access with the latency of the level that served it.

        ``demand_hits`` holds one LLC hit bit per access that reached the
        LLC, in order; a miss also reserves the DRAM bus.
        """
        core, dram, config = self.core, self.dram, self.config
        compute_per_access = max(0.0, ipa - 1.0)
        upper = (level_latency(config, "l1"), level_latency(config, "l2"))
        llc_latency = level_latency(config, "llc")
        hits = iter(demand_hits)
        for level in levels.tolist():
            core.advance_compute(compute_per_access)
            if level != LLCStream.LEVEL_LLC:
                latency = upper[level]
            elif next(hits):
                latency = llc_latency
            else:
                done = dram.request(core.cycle)
                latency = llc_latency + (done - core.cycle)
            core.issue_memory_access(latency, ipa)
        core.drain()


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


class MultiCoreSystem:
    """N cores with private L1/L2 and a shared LLC.

    Cores are interleaved by simulated time: at each step the core with
    the smallest current cycle issues its next access, so faster cores
    naturally issue more traffic — the behaviour that creates shared-LLC
    interference.  Each core runs until it has issued ``quota`` accesses,
    wrapping its trace if it finishes early (the paper rewinds early
    finishers until all have run 250M instructions).
    """

    def __init__(
        self,
        traces: list[Trace],
        config: HierarchyConfig | None = None,
        llc_policy: ReplacementPolicy | None = None,
        width: int = 4,
        rob_entries: int = 128,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        self.config = config or scaled_hierarchy(cores=len(traces))
        self.llc = SetAssociativeCache(
            self.config.llc, llc_policy if llc_policy is not None else LRUPolicy()
        )
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
        import heapq

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
