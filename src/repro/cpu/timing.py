"""First-order out-of-order core timing model.

The CRC2 framework models a 4-wide OOO core with an 8-stage pipeline and
a 128-entry reorder buffer (Section 5.1).  For replacement-policy
studies the performance-relevant behaviour is (a) how much memory
latency the ROB can overlap (memory-level parallelism) and (b) how DRAM
bandwidth throttles multi-core mixes.  This model captures both with an
interval-style simulation at memory-access granularity:

* non-memory instructions retire at the pipeline width;
* a memory access issues when it enters the ROB window (the access
  ``ROB/ipa`` accesses older must have retired) and completes after its
  hierarchy latency;
* retirement is in order, so an outstanding long-latency miss stalls
  retirement but later independent misses still overlap with it;
* DRAM transfers occupy a shared bus for ``line_size / bandwidth``
  cycles, adding queueing delay under load.

The model intentionally omits branch mispredictions, dependent-load
serialisation and prefetching; DESIGN.md records these as substitution
simplifications.

:class:`CoreTimingState` and :class:`DramBus` state this model one
method per event.  They serve the per-access reference oracles in
:mod:`repro.conformance`; the systems' shared timing loop
(``repro.cpu.system._time_cores``) inlines the same float operations
in the same order and writes its final state back into these objects,
so a result reads the same either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..cache.config import DramConfig, HierarchyConfig


class DramBus:
    """Shared DRAM bandwidth model: a single bus with FCFS occupancy."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._free_at = 0.0
        self.transfers = 0

    def request(self, now: float) -> float:
        """Issue a line transfer at time ``now``; returns completion time.

        The transfer starts at ``start = max(now, free)``, when the bus
        is next free, and the returned completion is ``start + latency
        + (start - now)``.  The queueing delay ``start - now`` is counted
        twice: once through ``start`` and once more as the added term,
        so a queued miss waits ``2 * (start - now) + latency`` after
        ``now``.  The reference oracles share the formula.
        """
        start = max(now, self._free_at)
        occupancy = self.config.cycles_per_line()
        self._free_at = start + occupancy
        self.transfers += 1
        return start + self.config.latency + (start - now)


@dataclass
class CoreTimingState:
    """Cycle bookkeeping for one core."""

    width: int = 4
    rob_entries: int = 128
    pipeline_depth: int = 8

    def __post_init__(self) -> None:
        self.cycle = float(self.pipeline_depth)  # fill latency
        self.retired_instructions = 0
        # Completion times of in-flight memory accesses (ROB occupancy).
        self._inflight: deque[float] = deque()
        self._last_retire = self.cycle

    def rob_access_window(self, instructions_per_access: float) -> int:
        """How many memory accesses fit in the ROB simultaneously."""
        return max(1, int(self.rob_entries / max(1.0, instructions_per_access)))

    def advance_compute(self, instructions: float) -> None:
        """Retire ``instructions`` non-memory instructions at full width."""
        self.cycle += instructions / self.width
        self.retired_instructions += instructions

    def issue_memory_access(
        self, latency: float, instructions_per_access: float
    ) -> None:
        """Account one memory access with hierarchy latency ``latency``."""
        window = self.rob_access_window(instructions_per_access)
        # ROB-full stall: wait for the oldest in-flight access to retire.
        while len(self._inflight) >= window:
            oldest = self._inflight.popleft()
            if oldest > self.cycle:
                self.cycle = oldest
        complete = self.cycle + latency
        # In-order retirement: completion can't precede older completions.
        complete = max(complete, self._last_retire)
        self._last_retire = complete
        self._inflight.append(complete)
        self.retired_instructions += 1

    def drain(self) -> None:
        """Wait for all in-flight accesses to retire (end of trace)."""
        while self._inflight:
            oldest = self._inflight.popleft()
            if oldest > self.cycle:
                self.cycle = oldest

    @property
    def ipc(self) -> float:
        return self.retired_instructions / max(1.0, self.cycle)


def level_latency(config: HierarchyConfig, level: str, dram_extra: float = 0.0) -> float:
    """Total load-to-use latency for a request served at ``level``."""
    if level == "l1":
        return config.l1.latency
    if level == "l2":
        return config.l1.latency + config.l2.latency
    if level == "llc":
        return config.l1.latency + config.l2.latency + config.llc.latency
    if level == "dram":
        return (
            config.l1.latency
            + config.l2.latency
            + config.llc.latency
            + config.dram.latency
            + dram_extra
        )
    raise ValueError(f"unknown level {level!r}")
