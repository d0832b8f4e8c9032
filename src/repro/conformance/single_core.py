"""Per-access oracle for the single-core timing model.

:class:`~repro.cpu.system.SingleCoreSystem` filters the trace through
the L1/L2, replays the LLC stream, then runs the one-core case of the
shared timing loop on the recorded hit bits.  The oracle here is the
model it replaced: one loop that steps the object-based
:class:`~repro.cache.hierarchy.CacheHierarchy` access by access and
feeds each served level straight into the core and DRAM timing.  The
two must agree exactly — cycles, instructions and LLC demand counts —
for every policy and geometry (``tests/conformance/test_single_core_parity.py``).
"""

from __future__ import annotations

from ..cache.config import HierarchyConfig
from ..cache.hierarchy import CacheHierarchy
from ..cache.policy import ReplacementPolicy
from ..cpu.system import SystemResult
from ..cpu.timing import CoreTimingState, DramBus, level_latency
from ..policies.registry import make_policy
from ..traces.trace import Trace

__all__ = ["reference_single_core"]


def reference_single_core(
    config: HierarchyConfig,
    policy: ReplacementPolicy | str,
    trace: Trace,
    width: int = 4,
    rob_entries: int = 128,
) -> SystemResult:
    """Time ``trace`` on one core, stepping the reference hierarchy.

    ``policy`` is a registry name (a fresh instance is built) or an
    instance, which the LLC uses directly.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    hierarchy = CacheHierarchy(config, policy)
    dram = DramBus(config.dram)
    core = CoreTimingState(width=width, rob_entries=rob_entries)
    ipa = trace.instructions_per_access
    compute_per_access = max(0.0, ipa - 1.0)
    pcs, addresses, writes = trace.pcs, trace.addresses, trace.is_write
    for i in range(len(pcs)):
        core.advance_compute(compute_per_access)
        level = hierarchy.access(int(pcs[i]), int(addresses[i]), bool(writes[i]))
        if level == "dram":
            done = dram.request(core.cycle)
            latency = level_latency(config, "llc") + (done - core.cycle)
        else:
            latency = level_latency(config, level)
        core.issue_memory_access(latency, ipa)
    core.drain()
    llc = hierarchy.llc.stats
    return SystemResult(
        name=trace.name,
        cycles=core.cycle,
        instructions=float(core.retired_instructions),
        llc_demand_accesses=llc.demand_accesses,
        llc_demand_misses=llc.demand_misses,
    )
