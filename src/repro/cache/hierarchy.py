"""Three-level cache hierarchy and LLC-stream filtering.

Replacement-policy studies follow a two-phase methodology:

1. :func:`filter_to_llc_stream` runs the trace through fixed-policy (LRU)
   L1 and L2 caches once, recording the accesses that reach the LLC
   (demand misses from L2 plus L2 dirty evictions as writebacks).  The
   LLC access stream does not depend on the LLC's own policy, so this
   phase runs once per trace.
2. Each candidate LLC policy is then simulated on the recorded stream
   (:func:`simulate_llc`), which is how ChampSim-based studies including
   the paper's are structured, just made explicit.  A policy with a fast
   kernel takes it whether passed by name or as an instance; an
   instance holds its trained state afterwards on either engine.

:class:`CacheHierarchy` is the object-based reference for phase 1: its
per-access ``access`` path backs ``engine="reference"`` filtering and
the fast filter's mixed-line-size fallback.  The timing model
(:class:`~repro.cpu.system.MultiCoreSystem`, at one core or more)
never steps it: its timing loop reads each source access's service
level from :attr:`LLCStream.levels` and sends only LLC requests to the
policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..traces.trace import Trace
from .block import AccessType, CacheRequest
from .cache import SetAssociativeCache
from .config import HierarchyConfig, scaled_hierarchy
from .policy import ReplacementPolicy
from .stats import CacheStats


@dataclass
class LLCStream:
    """The recorded stream of accesses arriving at the LLC.

    Column-wise like :class:`~repro.traces.trace.Trace`.  ``kinds`` holds
    :class:`AccessType` values encoded as 0=LOAD, 1=STORE, 2=WRITEBACK.
    ``l1_hits``/``l2_hits`` count demand accesses absorbed by L1/L2.
    ``levels``, when the stream was built by a filter, holds one entry
    per *source* access: the level that served it (0=L1 hit, 1=L2 hit,
    2=reached the LLC) — what the timing model needs to reconstruct
    each access's latency.  Streams synthesised directly at the LLC
    leave it None.
    """

    name: str
    pcs: np.ndarray
    addresses: np.ndarray
    kinds: np.ndarray
    cores: np.ndarray
    line_size: int
    source_accesses: int
    source_instructions: int
    l1_hits: int
    l2_hits: int
    metadata: dict = field(default_factory=dict)
    levels: np.ndarray | None = None

    KIND_LOAD = 0
    KIND_STORE = 1
    KIND_WRITEBACK = 2

    LEVEL_L1 = 0
    LEVEL_L2 = 1
    LEVEL_LLC = 2

    def __len__(self) -> int:
        return len(self.pcs)

    def requests(self):
        """Yield CacheRequests with running access indices."""
        kind_map = {0: AccessType.LOAD, 1: AccessType.STORE, 2: AccessType.WRITEBACK}
        for i in range(len(self.pcs)):
            yield CacheRequest(
                pc=int(self.pcs[i]),
                address=int(self.addresses[i]),
                access_type=kind_map[int(self.kinds[i])],
                core=int(self.cores[i]),
                access_index=i,
            )

    def demand_mask(self) -> np.ndarray:
        return self.kinds != self.KIND_WRITEBACK

    def demand_count(self) -> int:
        return int(np.sum(self.demand_mask()))

    def lines(self) -> np.ndarray:
        return self.addresses // np.uint64(self.line_size)

    def to_trace(self) -> Trace:
        """View the demand portion of the stream as a Trace (for oracles)."""
        mask = self.demand_mask()
        return Trace(
            name=f"{self.name}@llc",
            pcs=self.pcs[mask],
            addresses=self.addresses[mask],
            is_write=(self.kinds[mask] == self.KIND_STORE),
            line_size=self.line_size,
        )


class _StreamRecorder:
    """Accumulates the LLC-bound accesses during hierarchy filtering."""

    def __init__(self) -> None:
        self.pcs: list[int] = []
        self.addresses: list[int] = []
        self.kinds: list[int] = []
        self.cores: list[int] = []

    def add(self, pc: int, address: int, kind: int, core: int) -> None:
        self.pcs.append(pc)
        self.addresses.append(address)
        self.kinds.append(kind)
        self.cores.append(core)


#: ``CacheHierarchy.access`` result -> :attr:`LLCStream.levels` code.
_SERVICE_LEVEL = {
    "l1": LLCStream.LEVEL_L1,
    "l2": LLCStream.LEVEL_L2,
    "llc": LLCStream.LEVEL_LLC,
    "dram": LLCStream.LEVEL_LLC,
}


class CacheHierarchy:
    """L1D + L2 + LLC with write-back propagation between levels.

    The upper levels always run true LRU (as in the CRC2 framework, where
    contestants control only the LLC); ``llc_policy`` is pluggable.
    """

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        llc_policy: ReplacementPolicy | None = None,
    ) -> None:
        from ..policies.lru import LRUPolicy  # deferred: avoid import cycle

        self.config = config or scaled_hierarchy()
        self.l1 = SetAssociativeCache(self.config.l1, LRUPolicy())
        self.l2 = SetAssociativeCache(self.config.l2, LRUPolicy())
        self.llc = SetAssociativeCache(
            self.config.llc, llc_policy if llc_policy is not None else LRUPolicy()
        )
        self._recorder: _StreamRecorder | None = None
        self._access_index = 0

    # -- single-access path --------------------------------------------------
    def access(self, pc: int, address: int, is_write: bool = False, core: int = 0) -> str:
        """Access all levels; returns the level that served the request.

        Return value is one of ``"l1"``, ``"l2"``, ``"llc"``, ``"dram"``.
        """
        self._access_index += 1
        demand_type = AccessType.STORE if is_write else AccessType.LOAD
        request = CacheRequest(pc, address, demand_type, core, self._access_index)
        if self.l1.access(request).hit:
            return "l1"
        l2_result = self.l2.access(request)
        # L1 fill displaced by L2's fill below is ignored: L1 is write-through
        # to L2 in this model, so L1 evictions carry no writeback traffic.
        if l2_result.hit:
            self._fill_upper(request)
            return "l2"
        served = "llc"
        llc_result = self.llc.access(request)
        if self._recorder is not None:
            kind = LLCStream.KIND_STORE if is_write else LLCStream.KIND_LOAD
            self._recorder.add(pc, address, kind, core)
        if not llc_result.hit:
            served = "dram"
        if llc_result.caused_writeback:
            # LLC dirty eviction goes to memory; nothing further to model.
            pass
        self._fill_upper(request)
        if l2_result.caused_writeback:
            wb_address = self.l2.evicted_line_address(
                self.l2.set_index(address), l2_result
            )
            self._writeback_to_llc(l2_result.evicted_pc, wb_address, l2_result.evicted_core)
        return served

    def _fill_upper(self, request: CacheRequest) -> None:
        """Install the line in L1 after an L2/LLC/DRAM service (simplified)."""
        # L1 modelled write-through: no dirty state below word granularity.
        del request  # the L1 access already allocated on the demand path

    def _writeback_to_llc(self, pc: int, address: int, core: int) -> None:
        self._access_index += 1
        request = CacheRequest(
            pc, address, AccessType.WRITEBACK, core, self._access_index
        )
        self.llc.access(request)
        if self._recorder is not None:
            self._recorder.add(pc, address, LLCStream.KIND_WRITEBACK, core)

    # -- trace-level driver ----------------------------------------------------
    def run(self, trace: Trace, record_llc_stream: bool = False) -> "LLCStream | None":
        """Run a whole trace through the hierarchy.

        When ``record_llc_stream`` is set, returns the recorded
        :class:`LLCStream`; otherwise returns None and only updates stats.
        """
        if record_llc_stream:
            self._recorder = _StreamRecorder()
        pcs, addresses, writes = trace.pcs, trace.addresses, trace.is_write
        levels = bytearray(len(pcs))
        for i in range(len(pcs)):
            served = self.access(int(pcs[i]), int(addresses[i]), bool(writes[i]))
            levels[i] = _SERVICE_LEVEL[served]
        self.publish_metrics(benchmark=trace.name)
        if not record_llc_stream:
            return None
        rec = self._recorder
        self._recorder = None
        stream = LLCStream(
            name=trace.name,
            pcs=np.array(rec.pcs, dtype=np.uint64),
            addresses=np.array(rec.addresses, dtype=np.uint64),
            kinds=np.array(rec.kinds, dtype=np.int8),
            cores=np.array(rec.cores, dtype=np.int16),
            line_size=trace.line_size,
            source_accesses=trace.num_accesses,
            source_instructions=trace.num_instructions,
            l1_hits=self.l1.stats.demand_hits,
            l2_hits=self.l2.stats.demand_hits,
            metadata=dict(trace.metadata),
            levels=np.frombuffer(levels, dtype=np.int8),
        )
        return stream

    def stats(self) -> dict[str, CacheStats]:
        return {"l1": self.l1.stats, "l2": self.l2.stats, "llc": self.llc.stats}

    def publish_metrics(self, **labels) -> None:
        """Mirror per-level (and per-core) stats onto the obs registry.

        A no-op unless metric collection is enabled; called once per
        trace-level run, never per access.
        """
        from ..obs import instrument as obs_instrument
        from ..obs import metrics as obs_metrics

        if not obs_metrics.ENABLED:
            return
        for level, stats in self.stats().items():
            obs_instrument.record_cache_stats(
                stats, prefix="cache", level=level, **labels
            )


def filter_to_llc_stream(
    trace: Trace, config: HierarchyConfig | None = None, engine: str = "auto"
) -> LLCStream:
    """Phase 1: record the LLC-bound access stream for ``trace``.

    ``engine="auto"`` (the default) uses the fast filter in
    :mod:`repro.cache.fastsim`, which produces a bit-identical stream;
    ``engine="reference"`` forces the original object-based hierarchy.
    """
    if engine in ("auto", "fast"):
        from .fastsim import fast_filter_to_llc_stream

        return fast_filter_to_llc_stream(trace, config)
    if engine != "reference":
        raise ValueError(f"unknown engine {engine!r}")
    hierarchy = CacheHierarchy(config)
    stream = hierarchy.run(trace, record_llc_stream=True)
    assert stream is not None
    return stream


def simulate_llc(
    stream: LLCStream,
    policy: ReplacementPolicy,
    config: HierarchyConfig | None = None,
    engine: str = "auto",
) -> CacheStats:
    """Phase 2: replay a recorded LLC stream against one policy.

    Dispatches through :func:`repro.cache.fastsim.replay`.  A registry
    name is shorthand for a fresh instance, and an instance of a class
    with a kernel (LRU/MRU/random/SRRIP/BRRIP/DRRIP/SHiP/SHiP++/Hawkeye/
    Glider/MPPPB/Perceptron, and Belady's MIN) takes it, built from the
    instance's own parameters.  A learned kernel writes its trained
    state back into the instance, so e.g. ``policy.online_accuracy``
    reads the same as after a reference replay.  Everything else runs the reference engine.  Both engines
    are access-by-access equivalent (see the fastsim parity suite).
    """
    from .fastsim import replay

    return replay(stream, policy, config or scaled_hierarchy(), engine=engine)
