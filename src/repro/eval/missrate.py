"""Figure 11: single-core LLC miss-rate reduction over LRU.

For every suite benchmark, the recorded LLC stream is replayed against
LRU, Hawkeye, MPPPB, SHiP++ and Glider (plus optionally MIN), and the
reduction in demand miss rate relative to LRU is reported — the paper's
headline single-core metric (Glider 8.9% vs Hawkeye 7.1%, MPPPB 6.5%,
SHiP++ 7.5% on their traces).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..cache.hierarchy import simulate_llc
from ..perf.parallel import RunContext
from ..policies.belady_policy import BeladyPolicy
from ..traces.suite import suite_group
from .runner import DEFAULT, ArtifactCache, ExperimentConfig
from .tables import arithmetic_mean

#: The Figure 11 contender set (LRU is the baseline, MIN the bound).
CONTENDERS = ("hawkeye", "mpppb", "ship++", "glider")


@dataclass
class MissRateResult:
    """Per-benchmark miss rates and reductions over LRU."""

    benchmark: str
    group: str
    lru_miss_rate: float
    miss_rates: dict[str, float]
    belady_miss_rate: float | None = None
    # Total (demand + writeback) hits — the quantity MIN provably
    # maximises; demand-only rates can be traded against writeback hits.
    total_hits: dict[str, int] = field(default_factory=dict)
    belady_total_hits: int | None = None

    def reduction(self, policy: str) -> float:
        """Relative miss reduction over LRU, in percent."""
        if self.lru_miss_rate <= 0:
            return 0.0
        return 100.0 * (self.lru_miss_rate - self.miss_rates[policy]) / self.lru_miss_rate

    def as_row(self) -> dict:
        row = {"benchmark": self.benchmark, "group": self.group}
        for policy in self.miss_rates:
            row[policy] = self.reduction(policy)
        return row


def _missrate_benchmark(
    benchmark: str,
    *,
    cache: ArtifactCache,
    policies: tuple[str, ...],
    include_belady: bool,
) -> MissRateResult:
    """One Figure 11 row (module-level so a ``functools.partial`` of it
    pickles into process-pool workers)."""
    hierarchy = cache.config.hierarchy()
    stream = cache.llc_stream(benchmark)
    # Policies go in by registry *name*: name dispatch is what unlocks
    # the learned-policy fast kernels (instances always take the
    # reference engine so trained state stays inspectable).  Unknown
    # names still raise UnknownPolicyError from the reference resolver.
    lru_stats = simulate_llc(stream, "lru", hierarchy)
    rates: dict[str, float] = {}
    hits: dict[str, int] = {"lru": lru_stats.hits}
    for policy in policies:
        stats = simulate_llc(stream, policy, hierarchy)
        rates[policy] = stats.demand_miss_rate
        hits[policy] = stats.hits
    belady_rate = None
    belady_hits = None
    if include_belady:
        stats = simulate_llc(stream, BeladyPolicy.from_stream(stream), hierarchy)
        belady_rate = stats.demand_miss_rate
        belady_hits = stats.hits
    try:
        group = suite_group(benchmark)
    except KeyError:
        group = "other"
    return MissRateResult(
        benchmark=benchmark,
        group=group,
        lru_miss_rate=lru_stats.demand_miss_rate,
        miss_rates=rates,
        belady_miss_rate=belady_rate,
        total_hits=hits,
        belady_total_hits=belady_hits,
    )


def miss_rate_reduction(
    config: ExperimentConfig = DEFAULT,
    benchmarks: tuple[str, ...] | None = None,
    policies: tuple[str, ...] = CONTENDERS,
    include_belady: bool = False,
    cache: ArtifactCache | None = None,
    run: RunContext | None = None,
) -> list[MissRateResult]:
    """Reproduce Figure 11 rows, one per benchmark.

    ``run`` executes the per-benchmark grid (default: in-process, in
    order).  Its pool runs are bit-identical to the sequential run
    (workers rebuild state deterministically from the config); give
    ``cache`` an on-disk store so the stream filter runs once per
    benchmark rather than once per worker touching it.  Under robust
    settings a benchmark that still fails is recorded on ``run.report``
    and the returned list holds the completed subset.
    """
    cache = cache or ArtifactCache(config)
    compute = functools.partial(
        _missrate_benchmark, cache=cache, policies=policies,
        include_belady=include_belady,
    )
    run = run or RunContext()
    return run.map(compute, benchmarks or config.suite, MissRateResult)


def summarize_by_group(results: list[MissRateResult]) -> list[dict]:
    """The SPEC17/SPEC06/GAP/ALL average bars at the right of Figure 11."""
    policies = list(results[0].miss_rates) if results else []
    rows: list[dict] = []
    groups = sorted({r.group for r in results}) + ["ALL"]
    for group in groups:
        member = [r for r in results if group == "ALL" or r.group == group]
        if not member:
            continue
        row: dict = {"group": group, "n": len(member)}
        for policy in policies:
            row[policy] = arithmetic_mean([r.reduction(policy) for r in member])
        rows.append(row)
    return rows
