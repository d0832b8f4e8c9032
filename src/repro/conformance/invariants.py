"""Runtime invariant checkers attachable to any simulation run.

Differential fuzzing catches the engines *disagreeing*; the checkers
here catch them agreeing on something impossible.  Each checker
inspects live simulator state and raises :class:`InvariantViolation`
(with enough context to debug a shrunk repro) when a structural
invariant is broken:

* **occupancy conservation** — the cache's O(1) occupancy counter must
  equal the number of valid lines actually resident, no set may hold
  the same tag twice, and occupancy can never exceed capacity;
* **RRPV bounds** — every RRIP-family line's RRPV stays within
  ``[0, max_rrpv]`` (the ageing loop must terminate without
  overshooting);
* **ISVM weight saturation** — Glider's integer-SVM weights stay inside
  the signed 8-bit hardware range and the adaptive threshold stays one
  of the candidate values;
* **OPTgen occupancy vector** — every entry is within ``[0, capacity]``
  (entries are only claimed while strictly below capacity), the vector
  never outgrows the configured window, and hit/miss counters tie out
  with the time base;
* **timing** — on a single- or multi-core run, each core's cycle
  count never decreases, DRAM bus reservations never overlap, IPC stays
  within the issue width, and each core retires exactly the
  instructions of the accesses it issued.

:func:`checked_replay` runs the reference engine over a stream with all
applicable checkers firing every ``every`` accesses (and once at the
end), so any run — a fuzz case, a corpus replay, a paper experiment —
can be executed under supervision by swapping one call;
:func:`checked_single_core` and :func:`checked_multi_core` do the same
for the timing model.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..cache.cache import SetAssociativeCache
from ..cache.config import CacheConfig, HierarchyConfig
from ..cache.stats import CacheStats
from ..cpu.system import MultiCoreSystem, SingleCoreSystem, SystemResult
from ..cpu.timing import CoreTimingState, DramBus
from ..optgen.optgen import OptGen, SetOptGen
from ..policies.rrip import RRPV_KEY

__all__ = [
    "InvariantViolation",
    "check_cache_state",
    "check_isvm_saturation",
    "check_optgen_vector",
    "check_rrpv_bounds",
    "check_timing_result",
    "checked_multi_core",
    "checked_replay",
    "checked_single_core",
    "run_all_checks",
]


class InvariantViolation(AssertionError):
    """A structural invariant of the simulation state does not hold."""

    def __init__(self, message: str, *, invariant: str, context: dict | None = None):
        super().__init__(message)
        self.invariant = invariant
        self.context = context or {}


def check_cache_state(cache: SetAssociativeCache) -> None:
    """Occupancy conservation and per-set tag uniqueness."""
    counted = 0
    for set_index, ways in enumerate(cache.sets):
        tags = [line.tag for line in ways if line.valid]
        counted += len(tags)
        if len(tags) != len(set(tags)):
            raise InvariantViolation(
                f"set {set_index} holds duplicate tags: {sorted(map(hex, tags))}",
                invariant="tag-uniqueness",
                context={"set": set_index, "tags": tags},
            )
    if counted != cache.occupancy:
        raise InvariantViolation(
            f"occupancy counter {cache.occupancy} != {counted} valid lines "
            "(conservation broken on a fill/invalidate/flush path)",
            invariant="occupancy-conservation",
            context={"counter": cache.occupancy, "scanned": counted},
        )
    capacity = cache.num_sets * cache.associativity
    if not 0 <= cache.occupancy <= capacity:
        raise InvariantViolation(
            f"occupancy {cache.occupancy} outside [0, {capacity}]",
            invariant="occupancy-bounds",
            context={"occupancy": cache.occupancy, "capacity": capacity},
        )


def check_rrpv_bounds(cache: SetAssociativeCache) -> None:
    """Every stored RRPV is within the policy's declared bit-width."""
    max_rrpv = getattr(cache.policy, "max_rrpv", None)
    if max_rrpv is None:
        return
    for set_index, ways in enumerate(cache.sets):
        for way, line in enumerate(ways):
            if not line.valid:
                continue
            rrpv = line.policy_state.get(RRPV_KEY)
            if rrpv is not None and not 0 <= rrpv <= max_rrpv:
                raise InvariantViolation(
                    f"set {set_index} way {way}: RRPV {rrpv} outside "
                    f"[0, {max_rrpv}]",
                    invariant="rrpv-bounds",
                    context={"set": set_index, "way": way, "rrpv": rrpv},
                )


def check_isvm_saturation(policy) -> None:
    """Glider's ISVM weights stay in hardware range; threshold is sane."""
    from ..core.isvm import THRESHOLD_CANDIDATES, ISVM, ISVMTable

    table = getattr(policy, "isvm", None)
    if not isinstance(table, ISVMTable):
        return
    for index, entry in enumerate(table._table):
        for slot, weight in enumerate(entry.weights):
            if not ISVM.WEIGHT_MIN <= weight <= ISVM.WEIGHT_MAX:
                raise InvariantViolation(
                    f"ISVM entry {index} weight {slot} = {weight} outside "
                    f"[{ISVM.WEIGHT_MIN}, {ISVM.WEIGHT_MAX}]",
                    invariant="isvm-saturation",
                    context={"entry": index, "slot": slot, "weight": weight},
                )
    if table.adaptive and table.threshold not in THRESHOLD_CANDIDATES:
        raise InvariantViolation(
            f"adaptive threshold {table.threshold} not in "
            f"{THRESHOLD_CANDIDATES}",
            invariant="isvm-threshold",
            context={"threshold": table.threshold},
        )


def check_optgen_vector(optgen: SetOptGen | OptGen) -> None:
    """Occupancy-vector bounds, window discipline, and counter tie-out."""
    per_set: Iterable[SetOptGen]
    per_set = optgen.sets if isinstance(optgen, OptGen) else (optgen,)
    for index, sog in enumerate(per_set):
        for offset, entry in enumerate(sog.occupancy):
            if not 0 <= entry <= sog.capacity:
                raise InvariantViolation(
                    f"OPTgen set {index}: occupancy[{offset}] = {entry} "
                    f"outside [0, {sog.capacity}]",
                    invariant="optgen-occupancy-bounds",
                    context={"set": index, "offset": offset, "entry": entry},
                )
        if sog.window is not None and len(sog.occupancy) > sog.window:
            raise InvariantViolation(
                f"OPTgen set {index}: vector length {len(sog.occupancy)} "
                f"exceeds window {sog.window}",
                invariant="optgen-window",
                context={"set": index, "length": len(sog.occupancy)},
            )
        if sog.opt_hits + sog.opt_misses != sog.time:
            raise InvariantViolation(
                f"OPTgen set {index}: hits {sog.opt_hits} + misses "
                f"{sog.opt_misses} != time {sog.time}",
                invariant="optgen-counter-tieout",
                context={
                    "set": index,
                    "hits": sog.opt_hits,
                    "misses": sog.opt_misses,
                    "time": sog.time,
                },
            )
        if sog.base_time > sog.time:
            raise InvariantViolation(
                f"OPTgen set {index}: base_time {sog.base_time} ahead of "
                f"time {sog.time}",
                invariant="optgen-time-base",
                context={"set": index},
            )


def run_all_checks(cache: SetAssociativeCache) -> None:
    """Every checker applicable to this cache and its attached policy."""
    check_cache_state(cache)
    check_rrpv_bounds(cache)
    check_isvm_saturation(cache.policy)
    sampler = getattr(cache.policy, "sampler", None)
    if sampler is not None:
        for sog in getattr(sampler, "_optgen", {}).values():
            check_optgen_vector(sog)


def checked_replay(
    stream,
    policy,
    config: CacheConfig,
    every: int = 256,
    record: list | None = None,
) -> CacheStats:
    """Reference-engine replay with invariant checkers attached.

    ``policy`` is a registry name or instance; checkers fire every
    ``every`` accesses and once after the final access, so a violation
    is localised to a window of at most ``every`` accesses.
    """
    from ..policies.registry import make_policy

    if isinstance(policy, str):
        policy = make_policy(policy)
    llc = SetAssociativeCache(config, policy)
    for i, request in enumerate(stream.requests()):
        result = llc.access(request)
        if record is not None:
            record.append(
                (
                    int(result.hit),
                    int(result.bypassed),
                    result.way,
                    result.evicted_tag,
                    int(result.evicted_dirty),
                )
            )
        if every and (i + 1) % every == 0:
            run_all_checks(llc)
    run_all_checks(llc)
    return llc.stats


# -- timing model -------------------------------------------------------------


class _MonotoneCore(CoreTimingState):
    """Core timing that raises if its cycle count ever moves backwards."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._seen = self.cycle
        self._issues = 0

    def _check(self, step: str) -> None:
        if self.cycle < self._seen:
            raise InvariantViolation(
                f"cycle went back from {self._seen} to {self.cycle} in "
                f"{step} after {self._issues} issues",
                invariant="timing-cycles-monotone",
                context={"before": self._seen, "after": self.cycle, "step": step},
            )
        self._seen = self.cycle

    def advance_compute(self, instructions: float) -> None:
        super().advance_compute(instructions)
        self._check("advance_compute")

    def issue_memory_access(self, latency: float, instructions_per_access: float) -> None:
        super().issue_memory_access(latency, instructions_per_access)
        self._issues += 1
        self._check("issue_memory_access")

    def drain(self) -> None:
        super().drain()
        self._check("drain")


class _ExclusiveBus(DramBus):
    """DRAM bus that raises if two line transfers ever share the bus.

    Each request reserves ``[end - occupancy, end)``, where ``end`` is
    the bus's next free time after the request; a reservation may not
    start before the previous one ended, nor before it was requested.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
        self._last_end = 0.0

    def request(self, now: float) -> float:
        done = super().request(now)
        end = self._free_at
        start = end - self.config.cycles_per_line()
        slack = 1e-9 * max(1.0, abs(end))
        if start < self._last_end - slack or start < now - slack:
            raise InvariantViolation(
                f"DRAM transfer {self.transfers} reserves [{start}, {end}) "
                f"but the bus is busy until {self._last_end} (requested at {now})",
                invariant="dram-reservation-overlap",
                context={"start": start, "end": end, "busy_until": self._last_end},
            )
        self._last_end = end
        return done


def check_timing_result(result: SystemResult, trace, width: int) -> None:
    """IPC within the issue width; every instruction of the trace retired.

    Each access retires ``max(0, ipa - 1)`` compute instructions plus
    the access itself, so the total is ``len(trace) * max(1, ipa)`` —
    ``len(trace) * ipa`` for any trace with at least one instruction
    per access.
    """
    _check_retired(
        result.name, result.ipc, result.instructions, len(trace),
        trace.instructions_per_access, width,
    )


def _check_retired(
    name: str, ipc: float, retired: float, accesses: int, ipa: float, width: int
) -> None:
    if ipc > width:
        raise InvariantViolation(
            f"{name}: IPC {ipc} exceeds the issue width {width}",
            invariant="timing-ipc-bound",
            context={"ipc": ipc, "width": width},
        )
    expected = accesses * max(1.0, ipa)
    if not math.isclose(retired, expected, rel_tol=1e-9):
        raise InvariantViolation(
            f"{name}: retired {retired} instructions, its accesses carry {expected}",
            invariant="timing-instructions",
            context={"retired": retired, "expected": expected},
        )


def checked_single_core(
    config: HierarchyConfig,
    policy,
    trace,
    width: int = 4,
    rob_entries: int = 128,
) -> SystemResult:
    """:class:`SingleCoreSystem` run with every timing invariant checked.

    Swaps the system's core and DRAM bus for self-checking subclasses
    (same arithmetic, so the result is unchanged), then checks the
    result against the trace.
    """
    system = SingleCoreSystem(config, policy, width=width, rob_entries=rob_entries)
    system.core = _MonotoneCore(width=width, rob_entries=rob_entries)
    system.dram = _ExclusiveBus(config.dram)
    result = system.run(trace)
    check_timing_result(result, trace, width)
    return result


def checked_multi_core(
    config: HierarchyConfig,
    policy,
    traces,
    quota: int,
    width: int = 4,
    rob_entries: int = 128,
) -> SystemResult:
    """:class:`MultiCoreSystem` run with every timing invariant checked.

    Swaps each core's timing and the shared DRAM bus for self-checking
    subclasses (same arithmetic, so the result is unchanged), then
    checks every core: IPC within the issue width, and ``quota *
    max(1, ipa)`` instructions retired.
    """
    system = MultiCoreSystem(traces, config, policy, width=width, rob_entries=rob_entries)
    for core in system.cores:
        core.timing = _MonotoneCore(width=width, rob_entries=rob_entries)
    system.dram = _ExclusiveBus(config.dram)
    result = system.run(quota)
    for core in system.cores:
        _check_retired(
            f"{result.name} core {core.core_id}", core.timing.ipc,
            core.timing.retired_instructions, quota,
            core.trace.instructions_per_access, width,
        )
    return result
