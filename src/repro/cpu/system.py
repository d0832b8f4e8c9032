"""The system model: cores, private L1/L2, a shared LLC, a DRAM bus.

``MultiCoreSystem`` times N cores (one or more) with the paper's
methodology (Section 5.1): per-core private L1/L2 and a shared LLC, each
core issuing exactly its quota of accesses (its trace rewound if
shorter) and then stopping.  ``SingleCoreSystem`` is its one-core case
over a whole trace, which Figure 12 and Figure 13's alone-IPC
references use; Figure 13's weighted speedup
``sum(IPC_shared / IPC_single)`` divides by the latter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..cache import fastsim
from ..cache.config import HierarchyConfig, scaled_hierarchy
from ..cache.hierarchy import LLCStream, filter_to_llc_stream
from ..cache.policy import ReplacementPolicy
from ..cache.stats import CacheStats
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
    """One core timed over a whole trace: the one-core :class:`MultiCoreSystem`.

    The arguments are :class:`MultiCoreSystem`'s.  ``stream``, when
    given, is the trace's ``filter_to_llc_stream(trace, config)``
    (levels included), so callers timing one trace under several
    policies or core-count geometries filter it once.  An empty trace
    takes only the pipeline fill.  A system runs once.
    """

    _ran = False

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
        self.stream = stream
        self._system = partial(
            MultiCoreSystem, config=self.config, llc_policy=llc_policy,
            width=width, rob_entries=rob_entries,
        )

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
        # The run body, not ``run``: the trace's length is the quota, an
        # empty trace included, and whatever wraps ``MultiCoreSystem.run``
        # (perfbench's ``cpu.multi`` span) sees only N-core runs.
        return self._system([trace])._run([stream])


#: Core ``i``'s PCs are offset by ``i << _PC_SHIFT`` and its
#: addresses by ``i << _ADDRESS_SHIFT`` (see :func:`core_streams`).
_PC_SHIFT, _ADDRESS_SHIFT = 40, 44


def quota_view(trace: Trace, quota: int) -> Trace:
    """The trace's first ``quota`` accesses, rewound whenever it ends."""
    if len(trace) == 0:
        raise ValueError(f"{trace.name}: empty trace")
    order = np.arange(quota) % len(trace)
    return Trace(
        name=trace.name,
        pcs=trace.pcs[order],
        addresses=trace.addresses[order],
        is_write=trace.is_write[order],
        line_size=trace.line_size,
        instructions_per_access=trace.instructions_per_access,
        metadata=dict(trace.metadata),
    )


def core_stream(stream: LLCStream, core_id: int, config: HierarchyConfig) -> LLCStream:
    """Core ``core_id``'s LLC stream, from ``stream``, the filter of its
    un-offset :func:`quota_view` by ``config``'s L1/L2.

    The core's address offset is a multiple of every L1/L2 set span
    (line size times sets), so within each set it maps tags one-to-one
    and changes no hit, victim, writeback or service level; PCs only
    ride along.  Offsetting the filtered stream therefore equals
    filtering the offset view, and one filter serves every core that
    runs the trace.  A geometry whose set span does not divide the
    offset raises :class:`ValueError`.
    """
    for level in (config.l1, config.l2):
        if (1 << _ADDRESS_SHIFT) % (level.line_size * level.num_sets):
            raise ValueError(
                f"{level.name}: set span does not divide the core address offset"
            )
    return replace(
        stream,
        pcs=stream.pcs + np.uint64(core_id << _PC_SHIFT),
        addresses=stream.addresses + np.uint64(core_id << _ADDRESS_SHIFT),
        cores=np.full(len(stream), core_id, dtype=np.int16),
        metadata=dict(stream.metadata),
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
    the L1/L2 geometry and the quota, never on the LLC policy.  Each is
    built by :func:`core_stream` from a filter of the un-offset
    :func:`quota_view`.
    """
    return [
        core_stream(filter_to_llc_stream(quota_view(trace, quota), config), i, config)
        for i, trace in enumerate(traces)
    ]


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
    interference.  Each core issues exactly ``quota`` accesses, rewinding
    its trace if it ends sooner, and then stops; its IPC covers those
    accesses alone, so the slowest core runs its tail with fewer
    co-runners.  (The paper instead keeps early finishers running until
    every core has run 250M instructions.)

    :meth:`run` filters each core once (:func:`core_streams`) and times
    the streams in the shared loop.  One core's LLC sees its requests in
    stream order, so its stream is replayed whole first, through
    :func:`repro.cache.fastsim.replay` (and so with its metrics and
    spans); more cores step an LLC kernel
    (:func:`repro.cache.fastsim.make_stream_kernel`) with each request
    as it comes.  A name or an instance takes the policy's fast kernel
    when it has one; after :meth:`run` an instance holds its trained
    state, and ``llc.stats`` the LLC's statistics.
    ``streams``, when given, equal this system's :func:`core_streams`
    for the quota :meth:`run` will be asked for, so the systems of one
    mix share them (Figure 13 builds them with :func:`core_stream` from
    each benchmark's cached quota stream).
    :func:`repro.conformance.multi_core.reference_multi_core` is the
    per-access oracle it must match exactly, at every core count.  A
    system runs once: a second :meth:`run` raises :class:`RuntimeError`.
    """

    _ran = False
    #: Set to a list to collect :func:`_time_cores`' per-access record
    #: (the timing invariant checker does).
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
        self.llc_policy = llc_policy if llc_policy is not None else "lru"
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
        return self._run(streams)

    def _run(self, streams: list[LLCStream]) -> SystemResult:
        """Time each core's filtered stream on the shared LLC."""
        _run_once(self)
        if len(streams) == 1:
            # Stepping one core's requests would take them in stream
            # order anyway, and costs more than one replay.
            events: list = []
            self.llc = _ReplayedLLC(
                fastsim.replay(streams[0], self.llc_policy, self.config, record=events)
            )
            hits = [[event[0] for event in events].__getitem__]
        else:
            llc = self.llc = fastsim.make_stream_kernel(self.llc_policy, self.config)
            hits = [partial(llc.step, llc.decode(stream)) for stream in streams]
        _time_cores(
            [
                (core.timing, core.trace.instructions_per_access, stream, hit)
                for core, stream, hit in zip(self.cores, streams, hits)
            ],
            self.dram,
            self.config,
            self._timing_record,
        )
        total_instructions = sum(c.timing.retired_instructions for c in self.cores)
        cycles = max(c.timing.cycle for c in self.cores)
        stats = self.llc.stats
        return SystemResult(
            name="+".join(c.trace.name for c in self.cores),
            cycles=cycles,
            instructions=float(total_instructions),
            llc_demand_accesses=stats.demand_accesses,
            llc_demand_misses=stats.demand_misses,
            per_core_ipc={i: c.timing.ipc for i, c in enumerate(self.cores)},
        )


@dataclass
class _ReplayedLLC:
    """A one-core run's LLC, replayed whole: only its statistics remain."""

    stats: CacheStats


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
