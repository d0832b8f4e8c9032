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
* **timing** — on a system run of any core count, each core's cycle
  count never decreases, DRAM bus reservations never overlap, IPC stays
  within the issue width, and each core retires exactly the
  instructions of the accesses it issued.

:func:`checked_replay` runs the reference engine over a stream with all
applicable checkers firing every ``every`` accesses (and once at the
end), so any run — a fuzz case, a corpus replay, a paper experiment —
can be executed under supervision by swapping one call;
:func:`checked_multi_core` does the same for the timing model.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..cache.cache import SetAssociativeCache
from ..cache.config import CacheConfig, HierarchyConfig
from ..cache.stats import CacheStats
from ..cpu.system import MultiCoreSystem, SystemResult
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


def _check_timing_record(name: str, record: list, cores: list) -> None:
    """Check a timing run's per-access record (see ``_time_cores``).

    ``cores`` holds each core's ``(timing, ipa)`` after the run.  Each
    core's cycle never moves backwards: from the pipeline fill, through
    the cycle after every issue, to the drained final cycle.  DRAM bus
    reservations, in issue order, never start before the previous one
    ended nor before they were requested.  And each core retires exactly
    the instructions of the accesses the record says it issued.
    """
    seen = [float(timing.pipeline_depth) for timing, _ in cores]
    issued = [0] * len(cores)
    busy_until = 0.0
    for n, (core, cycle, dram) in enumerate(record):
        if cycle < seen[core]:
            _cycle_went_back(name, core, seen[core], cycle, f"access {n}")
        seen[core] = cycle
        issued[core] += 1
        if dram is not None:
            requested, start, end = dram
            slack = 1e-9 * max(1.0, abs(end))
            if start < busy_until - slack or start < requested - slack:
                raise InvariantViolation(
                    f"{name}: access {n} reserves DRAM [{start}, {end}) but "
                    f"the bus is busy until {busy_until} (requested at "
                    f"{requested})",
                    invariant="dram-reservation-overlap",
                    context={"start": start, "end": end, "busy_until": busy_until},
                )
            busy_until = end
    for core, (timing, ipa) in enumerate(cores):
        if timing.cycle < seen[core]:
            _cycle_went_back(name, core, seen[core], timing.cycle, "drain")
        _check_retired(
            f"{name} core {core}", timing.ipc, timing.retired_instructions,
            issued[core], ipa, timing.width,
        )


def _cycle_went_back(name: str, core: int, before: float, after: float, step: str):
    raise InvariantViolation(
        f"{name}: core {core} cycle went back from {before} to {after} at {step}",
        invariant="timing-cycles-monotone",
        context={"core": core, "before": before, "after": after, "step": step},
    )


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


def checked_multi_core(
    config: HierarchyConfig,
    policy,
    traces,
    quota: int,
    width: int = 4,
    rob_entries: int = 128,
) -> SystemResult:
    """:class:`MultiCoreSystem` run with every timing invariant checked.

    Has the timing loop record every access (which leaves the result
    unchanged), checks the record, then checks every core: IPC within
    the issue width, and ``quota * max(1, ipa)`` instructions retired.
    """
    system = MultiCoreSystem(traces, config, policy, width=width, rob_entries=rob_entries)
    system._timing_record = record = []
    result = system.run(quota)
    _check_timing_record(
        result.name, record,
        [(core.timing, core.trace.instructions_per_access) for core in system.cores],
    )
    for core in system.cores:
        _check_retired(
            f"{result.name} core {core.core_id}", core.timing.ipc,
            core.timing.retired_instructions, quota,
            core.trace.instructions_per_access, width,
        )
    return result
