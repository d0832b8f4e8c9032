"""Figure 13: 4-core weighted speedup over LRU across workload mixes.

Methodology (Section 5.1, "Multi-Core Workloads"): for each mix, every
benchmark's IPC is measured (a) sharing the LLC with its three
co-runners and (b) running alone on the same cache, and the weighted
IPC ``sum_i IPC_shared_i / IPC_single_i`` is normalised against the same
quantity under LRU.  The paper plots 100 mixes as an S-curve; the mix
count here is configurable (benchmarks default to a reduced count).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..cache.hierarchy import LLCStream
from ..cpu.system import MultiCoreSystem, SingleCoreSystem, core_streams
from ..perf.parallel import RunContext
from ..policies.registry import make_policy
from ..traces.mixes import WorkloadMix, make_mixes
from ..traces.trace import Trace
from .missrate import CONTENDERS
from .runner import DEFAULT, ArtifactCache, ExperimentConfig
from .tables import arithmetic_mean


@dataclass
class MixResult:
    """Weighted speedups (percent over LRU) for one mix."""

    mix: WorkloadMix
    weighted_speedup_percent: dict[str, float]

    def as_row(self) -> dict:
        row = {"mix": self.mix.name}
        row.update(self.weighted_speedup_percent)
        return row


def _make_mix_policy(policy_name: str, cores: int):
    """The LLC policy for a ``cores``-way shared LLC: a name or an instance.

    The OPTgen-trained policies observe per-set access interleavings
    from all cores, so their occupancy window (a per-set time span) must
    scale with the core count — exactly as their hardware budget scales
    with the shared LLC's size.  Those two need an instance to carry
    ``window_factor``; every other policy goes by registry name, so it
    takes its fast kernel when it has one.
    """
    if policy_name in ("hawkeye", "glider") and cores > 1:
        return make_policy(policy_name, window_factor=8 * cores)
    return policy_name


def _weighted_ipc(
    cache: ArtifactCache,
    mix: WorkloadMix,
    policy_name: str,
    quota: int,
    single_ipcs: dict[str, float],
    traces: list[Trace],
    streams: list[LLCStream],
) -> float:
    cores = len(traces)
    system = MultiCoreSystem(
        traces,
        cache.config.hierarchy(cores=cores),
        _make_mix_policy(policy_name, cores),
        streams=streams,
    )
    result = system.run(quota_accesses=quota)
    weighted = 0.0
    for core, benchmark in enumerate(mix.benchmarks):
        weighted += result.per_core_ipc[core] / max(1e-9, single_ipcs[benchmark])
    return weighted


def _single_ipc(
    benchmark: str, *, cache: ArtifactCache, cores: int
) -> tuple[str, float]:
    """One benchmark alone on the shared-size cache (pool-worker safe).

    The L1/L2 do not scale with the core count, so the benchmark's
    cached single-core stream already holds the right service levels.
    """
    system = SingleCoreSystem(
        cache.config.hierarchy(cores=cores), "lru", stream=cache.llc_stream(benchmark)
    )
    return benchmark, system.run(cache.trace(benchmark)).ipc


def _mix_task(
    name: str,
    *,
    cache: ArtifactCache,
    mixes: dict[str, WorkloadMix],
    policies: tuple[str, ...],
    quota: int,
    single_ipcs: dict[str, float],
) -> MixResult:
    """One S-curve point: a mix under LRU and every contender.

    The cores' private L1/L2 do not depend on the LLC policy, so the mix
    is filtered once and every policy's system steps the same streams.
    """
    mix = mixes[name]
    traces = [cache.trace(b) for b in mix.benchmarks]
    streams = core_streams(traces, cache.config.hierarchy(cores=len(traces)), quota)
    lru_weighted = _weighted_ipc(cache, mix, "lru", quota, single_ipcs, traces, streams)
    speedups: dict[str, float] = {}
    for policy in policies:
        weighted = _weighted_ipc(
            cache, mix, policy, quota, single_ipcs, traces, streams
        )
        speedups[policy] = 100.0 * (weighted / max(1e-9, lru_weighted) - 1.0)
    return MixResult(mix=mix, weighted_speedup_percent=speedups)


def weighted_speedup_sweep(
    config: ExperimentConfig = DEFAULT,
    num_mixes: int = 12,
    cores: int = 4,
    policies: tuple[str, ...] = CONTENDERS,
    quota: int | None = None,
    cache: ArtifactCache | None = None,
    seed: int = 42,
    run: RunContext | None = None,
) -> list[MixResult]:
    """Reproduce Figure 13 (sorted per-policy, it forms the S-curves).

    Mixes are mutually independent once the single-core reference IPCs
    exist, so ``run`` executes first the reference runs, then the mixes
    (see :func:`repro.eval.missrate.miss_rate_reduction`).
    """
    cache = cache or ArtifactCache(config)
    run = run or RunContext()
    mixes = {mix.name: mix for mix in make_mixes(num_mixes, cores=cores, seed=seed)}
    quota = quota or max(10_000, config.trace_length // 4)
    # Single-core reference IPCs: each benchmark alone on the shared cache
    # (paper: "its IPC when executing in isolation on the same cache").
    needed = sorted({b for mix in mixes.values() for b in mix.benchmarks})
    single_ipcs = dict(
        run.map(
            functools.partial(_single_ipc, cache=cache, cores=cores),
            needed,
            label=None,
        )
    )
    compute = functools.partial(
        _mix_task, cache=cache, mixes=mixes, policies=policies, quota=quota,
        single_ipcs=single_ipcs,
    )
    return run.map(compute, mixes, label="mixes")


def summarize_mixes(results: list[MixResult]) -> dict[str, float]:
    """Average weighted speedup per policy (the numbers quoted in the text)."""
    if not results:
        return {}
    policies = list(results[0].weighted_speedup_percent)
    return {
        policy: arithmetic_mean(
            [r.weighted_speedup_percent[policy] for r in results]
        )
        for policy in policies
    }
