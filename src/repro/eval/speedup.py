"""Figure 12: single-core speedup over LRU (full timing simulation)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..cpu.system import SingleCoreSystem
from ..perf.parallel import RunContext
from ..traces.suite import suite_group
from .missrate import CONTENDERS
from .runner import DEFAULT, ArtifactCache, ExperimentConfig
from .tables import arithmetic_mean, geometric_mean


@dataclass
class SpeedupResult:
    """Per-benchmark IPC for every policy, with LRU as the baseline."""

    benchmark: str
    group: str
    lru_ipc: float
    ipcs: dict[str, float]

    def speedup_percent(self, policy: str) -> float:
        if self.lru_ipc <= 0:
            return 0.0
        return 100.0 * (self.ipcs[policy] / self.lru_ipc - 1.0)

    def as_row(self) -> dict:
        row = {"benchmark": self.benchmark, "group": self.group}
        for policy in self.ipcs:
            row[policy] = self.speedup_percent(policy)
        return row


def _speedup_benchmark(
    benchmark: str, *, cache: ArtifactCache, policies: tuple[str, ...]
) -> SpeedupResult:
    """One Figure 12 row (module-level so it pickles into pool workers).

    Each timing run filters the trace itself, since the timing pass
    needs every access's service level, and replays the LLC stream on
    the policy's kernel: policies go by registry name, so the learned
    ones (Hawkeye, SHiP++, Glider) take their fast kernels.
    """
    config = cache.config
    trace = cache.trace(benchmark)
    lru = SingleCoreSystem(config.hierarchy(), "lru").run(trace)
    ipcs: dict[str, float] = {}
    for policy in policies:
        result = SingleCoreSystem(config.hierarchy(), policy).run(trace)
        ipcs[policy] = result.ipc
    try:
        group = suite_group(benchmark)
    except KeyError:
        group = "other"
    return SpeedupResult(benchmark=benchmark, group=group, lru_ipc=lru.ipc, ipcs=ipcs)


def single_core_speedup(
    config: ExperimentConfig = DEFAULT,
    benchmarks: tuple[str, ...] | None = None,
    policies: tuple[str, ...] = CONTENDERS,
    cache: ArtifactCache | None = None,
    run: RunContext | None = None,
) -> list[SpeedupResult]:
    """Reproduce Figure 12: full-hierarchy timing runs per policy.

    ``run`` executes the per-benchmark grid (see
    :func:`repro.eval.missrate.miss_rate_reduction`); traces are
    regenerated deterministically in each worker.
    """
    cache = cache or ArtifactCache(config)
    compute = functools.partial(_speedup_benchmark, cache=cache, policies=policies)
    run = run or RunContext()
    return run.map(compute, benchmarks or config.suite, SpeedupResult)


def summarize_speedups(results: list[SpeedupResult]) -> list[dict]:
    """Group-average speedup rows (SPEC17 / SPEC06 / GAP / All)."""
    policies = list(results[0].ipcs) if results else []
    rows: list[dict] = []
    groups = sorted({r.group for r in results}) + ["ALL"]
    for group in groups:
        member = [r for r in results if group == "ALL" or r.group == group]
        if not member:
            continue
        row: dict = {"group": group, "n": len(member)}
        for policy in policies:
            # Geometric mean of the ratios, reported as a percentage gain.
            ratios = [1.0 + r.speedup_percent(policy) / 100.0 for r in member]
            row[policy] = 100.0 * (geometric_mean(ratios) - 1.0)
        rows.append(row)
    return rows
