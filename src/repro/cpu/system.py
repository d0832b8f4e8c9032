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
from functools import partial

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
    unchanged, so either takes the policy's fast kernel when it has one,
    and an instance holds its trained state afterwards.

    :meth:`run` filters the trace through the L1/L2 (recording the LLC
    stream plus each access's service level), replays that stream on
    the LLC policy (recording hit or miss per request), and times the
    accesses with the one-core case of the shared timing loop.  This is
    exact because timing never feeds back into cache state and the LRU
    L1/L2 never see the LLC policy.
    :func:`repro.conformance.single_core.reference_single_core` is the
    per-access oracle it must match exactly.

    ``stream``, when given, is the filtered LLC stream of the trace
    :meth:`run` will be passed (``filter_to_llc_stream(trace, config)``,
    levels included), so callers timing one trace under several
    policies filter it once.  The L1/L2 are the same at every core
    count, so one stream serves every ``scaled_hierarchy`` geometry.

    A system runs once: its clock, bus and LLC policy carry the run's
    state, so a second :meth:`run` raises :class:`RuntimeError`.
    """

    _ran = False
    #: Set to a list to collect :func:`_time_cores`' per-access record
    #: (the timing invariant checkers do).
    _timing_record: list | None = None

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
        _run_once(self)
        events: list = []
        llc = fastsim.replay(stream, self.llc_policy, self.config, record=events)
        hits = [event[0] for event in events]
        _time_cores(
            [(self.core, trace.instructions_per_access, stream, hits.__getitem__)],
            self.dram,
            self.config,
            self._timing_record,
        )
        return SystemResult(
            name=trace.name,
            cycles=self.core.cycle,
            instructions=float(self.core.retired_instructions),
            llc_demand_accesses=llc.demand_accesses,
            llc_demand_misses=llc.demand_misses,
        )


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
    fixed before the timing loop runs; only the order in which the cores
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


class MultiCoreSystem:
    """N cores with private L1/L2 and a shared LLC.

    Cores are interleaved by simulated time: the core with the smallest
    current cycle issues its next LLC request, so faster cores
    naturally issue more traffic — the behaviour that creates shared-LLC
    interference.  Each core runs until it has issued ``quota`` accesses,
    wrapping its trace if it finishes early (the paper rewinds early
    finishers until all have run 250M instructions).

    :meth:`run` filters each core once (:func:`core_streams`), then runs
    the shared timing loop, which steps the LLC kernel (``llc``, built by
    :func:`repro.cache.fastsim.make_stream_kernel`, so a name or an
    instance takes the policy's fast kernel when it has one, and an
    instance holds its trained state after :meth:`run`) with each
    request that reached it.
    ``streams``, when given, are this system's :func:`core_streams` for
    the quota :meth:`run` will be asked for, so the systems of one mix
    share a single filter pass.
    :func:`repro.conformance.multi_core.reference_multi_core` is the
    per-access oracle it must match exactly.  Like
    :class:`SingleCoreSystem`, it runs once.
    """

    _ran = False
    _timing_record: list | None = None

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
        _run_once(self)
        llc = self.llc
        _time_cores(
            [
                (
                    core.timing,
                    core.trace.instructions_per_access,
                    stream,
                    partial(llc.step, llc.decode(stream)),
                )
                for core, stream in zip(self.cores, streams)
            ],
            self.dram,
            self.config,
            self._timing_record,
        )
        total_instructions = sum(c.timing.retired_instructions for c in self.cores)
        cycles = max(c.timing.cycle for c in self.cores)
        stats = llc.finish()
        return SystemResult(
            name="+".join(c.trace.name for c in self.cores),
            cycles=cycles,
            instructions=float(total_instructions),
            llc_demand_accesses=stats.demand_accesses,
            llc_demand_misses=stats.demand_misses,
            per_core_ipc={i: c.timing.ipc for i, c in enumerate(self.cores)},
        )


def _run_once(system) -> None:
    """A system's clock, bus and LLC kernel start fresh only once."""
    if system._ran:
        raise RuntimeError(
            f"{type(system).__name__}.run() was already called; "
            "build a new system for another run"
        )
    system._ran = True


def _time_cores(
    cores: list[tuple],
    dram: DramBus,
    config: HierarchyConfig,
    record: list | None = None,
) -> None:
    """Issue every core's accesses in simulated-time order, then drain.

    ``cores`` holds one ``(timing, ipa, stream, hit)`` per core: its
    :class:`CoreTimingState`, instructions per access, filtered LLC
    stream (service levels included) and ``hit(r)``, the LLC hit bit of
    the stream's request ``r``.  Only the LLC and the DRAM bus are
    shared, so only LLC requests go through the heap: a core runs its
    private L1/L2 hits on its own and waits on the heap with its cycle
    before its next LLC request, ties going to the lower core id.  The
    last core left runs to its end without the heap.

    The core and bus arithmetic is inlined (see :func:`_core_accesses`);
    the final state is written back into each ``timing`` and ``dram``,
    so they read as if their own methods had run.  ``record``, when
    given, receives one ``(core_id, cycle, dram)`` per access in issue
    order: the core's cycle after the issue, and ``dram`` the
    ``(requested, start, end)`` bus reservation of an LLC demand miss,
    None otherwise — what the timing invariants are checked on.
    """
    # The bus's next free time and transfer count, shared by the cores;
    # only the core the heap just resumed touches it.
    bus = [dram._free_at, dram.transfers]
    heap = []
    for core_id, core in enumerate(cores):
        accesses = _core_accesses(core_id, *core, bus, config, record)
        cycle = next(accesses, None)
        if cycle is not None:
            heap.append((cycle, core_id, accesses))
    heapq.heapify(heap)
    while len(heap) > 1:
        _, core_id, accesses = heap[0]
        cycle = next(accesses, None)
        if cycle is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (cycle, core_id, accesses))
    for _, _, accesses in heap:
        for _ in accesses:
            pass
    dram._free_at, dram.transfers = bus


def _core_accesses(core_id, timing, ipa, stream, hit, bus, config, record):
    """Time one core's accesses in order, yielding its cycle before each
    LLC request; the request runs when the generator is resumed.

    The clock, retired count, ROB deque and bus state are locals, and
    every update is :meth:`CoreTimingState.advance_compute`,
    :meth:`DramBus.request`, :meth:`CoreTimingState.issue_memory_access`
    and, at the end, :meth:`CoreTimingState.drain`: the same float
    operations in the same order.
    """
    compute = max(0.0, ipa - 1.0)
    compute_cycles = compute / timing.width
    window = timing.rob_access_window(ipa)
    upper = (level_latency(config, "l1"), level_latency(config, "l2"))
    llc_latency = level_latency(config, "llc")
    dram_latency = config.dram.latency
    occupancy = config.dram.cycles_per_line()
    llc_level = LLCStream.LEVEL_LLC
    # A demand miss is followed in the stream by the writeback of the L2
    # line it displaced, if that line was dirty; the trailing False
    # covers the last request.
    writebacks = (stream.kinds == LLCStream.KIND_WRITEBACK).tolist() + [False]
    inflight = timing._inflight
    retire_oldest = inflight.popleft
    cycle = timing.cycle
    retired = timing.retired_instructions
    last_retire = timing._last_retire
    reservation = None
    r = 0
    for level in stream.levels.tolist():
        if level == llc_level:
            yield cycle
        cycle += compute_cycles
        retired += compute
        if level != llc_level:
            latency = upper[level]
        else:
            demand_hit = hit(r)
            r += 1
            if writebacks[r]:
                hit(r)
                r += 1
            if demand_hit:
                latency = llc_latency
            else:
                free_at = bus[0]
                start = free_at if free_at > cycle else cycle
                bus[0] = start + occupancy
                bus[1] += 1
                # DramBus.request's completion: queueing counts twice.
                done = start + dram_latency + (start - cycle)
                latency = llc_latency + (done - cycle)
                if record is not None:
                    reservation = (cycle, start, bus[0])
        # ROB-full stall: wait for the oldest in-flight access to retire.
        while len(inflight) >= window:
            oldest = retire_oldest()
            if oldest > cycle:
                cycle = oldest
        complete = cycle + latency
        # In-order retirement: completion can't precede older completions.
        if complete < last_retire:
            complete = last_retire
        last_retire = complete
        inflight.append(complete)
        retired += 1
        if record is not None:
            record.append((core_id, cycle, reservation))
            reservation = None
    while inflight:
        oldest = retire_oldest()
        if oldest > cycle:
            cycle = oldest
    timing.cycle = cycle
    timing.retired_instructions = retired
    timing._last_retire = last_retire
