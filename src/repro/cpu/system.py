"""Single-core and multi-core system models (IPC and weighted speedup).

``SingleCoreSystem`` drives one trace through a private hierarchy with a
chosen LLC policy and reports IPC.  ``MultiCoreSystem`` reproduces the
paper's 4-core methodology (Section 5.1): per-core private L1/L2, a
shared LLC, traces rewound until every core has executed its quota, and
weighted speedup ``sum(IPC_shared / IPC_single)`` computed against each
benchmark running alone on the same shared-cache configuration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..cache import fastsim
from ..cache.config import HierarchyConfig, scaled_hierarchy
from ..cache.hierarchy import LLCStream, filter_to_llc_stream
from ..cache.policy import ReplacementPolicy
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

    ``stream``, when given, is the filtered LLC stream of the trace
    :meth:`run` will be passed (``filter_to_llc_stream(trace, config)``,
    levels included), so callers timing one trace under several
    policies filter it once.  The L1/L2 are the same at every core
    count, so one stream serves every ``scaled_hierarchy`` geometry.
    """

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        llc_policy: ReplacementPolicy | str | None = None,
        width: int = 4,
        rob_entries: int = 128,
        stream: LLCStream | None = None,
    ) -> None:
        if stream is not None and stream.levels is None:
            raise ValueError(f"{stream.name}: stream has no service levels")
        self.config = config or scaled_hierarchy()
        self.llc_policy = llc_policy if llc_policy is not None else "lru"
        self.stream = stream
        self.dram = DramBus(self.config.dram)
        self.core = CoreTimingState(width=width, rob_entries=rob_entries)

    def run(self, trace: Trace) -> SystemResult:
        stream = self.stream
        if stream is None:
            stream = filter_to_llc_stream(trace, self.config)
        elif len(stream.levels) != len(trace):
            raise ValueError(
                f"{stream.name}: stream has {len(stream.levels)} service "
                f"levels, trace {trace.name} has {len(trace)} accesses"
            )
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


def core_streams(
    traces: list[Trace], config: HierarchyConfig, quota: int
) -> list[LLCStream]:
    """Each core's first ``quota`` accesses, filtered by its private L1/L2.

    Core ``i`` runs its trace from the start and rewinds it whenever it
    ends.  Its PCs are offset by ``i << 40`` and its addresses by
    ``i << 44``: distinct processes occupy distinct virtual code/data
    ranges (separate binaries + ASLR), so co-running synthetic programs
    must not alias in PC-indexed predictor tables, an artefact real
    multi-programmed systems do not have.  The private LRU L1/L2 never
    see the shared LLC or the clock, so each core's service levels and
    LLC requests (every demand miss, then its L2 dirty writeback) are
    fixed before the interleave runs; only the order in which the cores
    reach the LLC depends on timing.  The streams depend on the traces,
    the L1/L2 geometry and the quota, never on the LLC policy.
    """
    streams = []
    for core_id, trace in enumerate(traces):
        if len(trace) == 0:
            raise ValueError(f"{trace.name}: empty trace")
        order = np.arange(quota) % len(trace)
        view = Trace(
            name=trace.name,
            pcs=trace.pcs[order] + np.uint64(core_id << 40),
            addresses=trace.addresses[order] + np.uint64(core_id << 44),
            is_write=trace.is_write[order],
            line_size=trace.line_size,
            instructions_per_access=trace.instructions_per_access,
        )
        stream = filter_to_llc_stream(view, config)
        stream.cores = np.full(len(stream), core_id, dtype=np.int16)
        streams.append(stream)
    return streams


@dataclass
class _CoreContext:
    trace: Trace
    timing: CoreTimingState
    core_id: int = 0
    accesses_done: int = 0
    wraps: int = 0


class MultiCoreSystem:
    """N cores with private L1/L2 and a shared LLC.

    Cores are interleaved by simulated time: at each step the core with
    the smallest current cycle issues its next access, so faster cores
    naturally issue more traffic — the behaviour that creates shared-LLC
    interference.  Each core runs until it has issued ``quota`` accesses,
    wrapping its trace if it finishes early (the paper rewinds early
    finishers until all have run 250M instructions).

    :meth:`run` filters each core once (:func:`core_streams`), then keeps
    only the shared part per access: the time-ordered interleave steps
    the LLC kernel (``llc``, built by
    :func:`repro.cache.fastsim.make_stream_kernel`, so a registry name
    takes the policy's fast kernel and an instance keeps the engine
    rules documented there) with each request that reached it.  A
    demand's hit bit picks LLC latency or a DRAM reservation.
    ``streams``, when given, are this system's :func:`core_streams` for
    the quota :meth:`run` will be asked for, so the systems of one mix
    share a single filter pass.
    :func:`repro.conformance.multi_core.reference_multi_core` is the
    per-access oracle it must match exactly.
    """

    def __init__(
        self,
        traces: list[Trace],
        config: HierarchyConfig | None = None,
        llc_policy: ReplacementPolicy | str | None = None,
        width: int = 4,
        rob_entries: int = 128,
        streams: list[LLCStream] | None = None,
    ) -> None:
        if not traces:
            raise ValueError("need at least one trace")
        if streams is not None and (
            len(streams) != len(traces) or any(s.levels is None for s in streams)
        ):
            raise ValueError("need one stream with service levels per trace")
        self.config = config or scaled_hierarchy(cores=len(traces))
        self.llc = fastsim.make_stream_kernel(
            llc_policy if llc_policy is not None else "lru", self.config
        )
        self.streams = streams
        self.dram = DramBus(self.config.dram)
        self.cores = [
            _CoreContext(
                trace=t,
                timing=CoreTimingState(width=width, rob_entries=rob_entries),
                core_id=i,
            )
            for i, t in enumerate(traces)
        ]

    def run(self, quota_accesses: int) -> SystemResult:
        """Run until every core has issued ``quota_accesses`` accesses,
        each core starting from the beginning of its trace."""
        if quota_accesses < 1:
            raise ValueError("quota_accesses must be positive")
        streams = self.streams or core_streams(
            [core.trace for core in self.cores], self.config, quota_accesses
        )
        if any(len(stream.levels) != quota_accesses for stream in streams):
            raise ValueError(f"streams were not filtered for {quota_accesses} accesses")
        self._interleave(streams, quota_accesses)
        for core in self.cores:
            core.timing.drain()
            core.accesses_done = quota_accesses
            core.wraps = (quota_accesses - 1) // len(core.trace)
        total_instructions = sum(c.timing.retired_instructions for c in self.cores)
        cycles = max(c.timing.cycle for c in self.cores)
        llc = self.llc.finish()
        return SystemResult(
            name="+".join(c.trace.name for c in self.cores),
            cycles=cycles,
            instructions=float(total_instructions),
            llc_demand_accesses=llc.demand_accesses,
            llc_demand_misses=llc.demand_misses,
            per_core_ipc={i: c.timing.ipc for i, c in enumerate(self.cores)},
        )

    def _interleave(self, streams: list[LLCStream], quota: int) -> None:
        """Issue every core's accesses in simulated-time order.

        ``access_index`` numbers the requests the way the reference
        hierarchy does: one per core access (L1 hits included), one more
        per writeback.
        """
        llc, dram, config = self.llc, self.dram, self.config
        step = llc.step
        columns = [llc.decode(stream) for stream in streams]
        levels = [stream.levels.tolist() for stream in streams]
        # A demand miss is followed in its core's stream by the writeback
        # of the L2 line it displaced, if that line was dirty; the trailing
        # False covers the last request.
        writebacks = [
            (stream.kinds == LLCStream.KIND_WRITEBACK).tolist() + [False]
            for stream in streams
        ]
        timings = [core.timing for core in self.cores]
        ipas = [core.trace.instructions_per_access for core in self.cores]
        upper = (level_latency(config, "l1"), level_latency(config, "l2"))
        llc_latency = level_latency(config, "llc")
        issued = [0] * len(streams)
        requested = [0] * len(streams)
        access_index = 0
        heap = [(timing.cycle, i) for i, timing in enumerate(timings)]
        heapq.heapify(heap)
        while heap:
            _, core_id = heapq.heappop(heap)
            timing = timings[core_id]
            ipa = ipas[core_id]
            timing.advance_compute(max(0.0, ipa - 1.0))
            access_index += 1
            n = issued[core_id]
            issued[core_id] = n + 1
            level = levels[core_id][n]
            if level != LLCStream.LEVEL_LLC:
                latency = upper[level]
            else:
                r = requested[core_id]
                hit = step(columns[core_id], r, access_index)
                r += 1
                if writebacks[core_id][r]:
                    access_index += 1
                    step(columns[core_id], r, access_index)
                    r += 1
                requested[core_id] = r
                if hit:
                    latency = llc_latency
                else:
                    done = dram.request(timing.cycle)
                    latency = llc_latency + (done - timing.cycle)
            timing.issue_memory_access(latency, ipa)
            if n + 1 < quota:
                heapq.heappush(heap, (timing.cycle, core_id))
