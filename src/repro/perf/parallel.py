"""Parallel experiment-matrix runner (``repro.perf.parallel``).

The paper's evaluation is a (benchmark x policy) grid — 33 workloads
by 6+ policies in Sections 5.2-5.4 — and every cell is independent
once the per-benchmark LLC stream exists.  This module fans that grid
out across a :class:`~concurrent.futures.ProcessPoolExecutor`:

* :func:`parallel_map` — order-preserving process-pool map behind the
  per-benchmark experiment drivers (``--jobs N`` on the eval CLI).
  ``jobs <= 1`` degrades to a plain loop, so sequential and parallel
  runs share one code path and produce bit-identical results.  The pool
  is run by a :class:`~repro.robust.supervise.TaskSupervisor`: tasks
  are submitted individually, watched (deadline + heartbeat), re-queued
  when a worker dies, and degraded to in-process execution after
  repeated pool breakage — ``BrokenProcessPool`` never escapes to the
  caller; a task that ultimately fails raises
  :class:`~repro.robust.supervise.SupervisedTaskError` instead.
* :class:`RunContext` — the one way the figure drivers (fig9-fig13)
  execute their per-benchmark grids: jobs, pool supervision, crash
  journal, progress and, optionally, the robust suite settings (retry,
  resume manifest, deadline, fault plan).  Without robust settings its
  ``map`` *is* :func:`parallel_map`.
* :func:`run_matrix` — explicit grid runner returning an
  :class:`ExperimentMatrix` of :class:`~repro.cache.stats.CacheStats`
  per cell, at ``"benchmark"`` granularity (one task per benchmark,
  stream computed once, every policy replayed on it) or ``"cell"``
  granularity (one task per grid cell).  Every benchmark's LLC stream
  is materialized *once, in the parent* into the shared
  :class:`~repro.robust.store.ArtifactStore` (an ephemeral one is
  created when the caller passes none) before any task is dispatched,
  so workers load streams instead of regenerating trace + filter per
  task; a per-worker warm cache then reuses the deserialized stream
  across matrix cells that land on the same worker.
* :func:`task_seed` — deterministic per-task seed derivation, so a
  task's stochastic components depend only on its (benchmark, policy,
  base-seed) identity, never on scheduling order or worker identity.

Determinism: every worker rebuilds its state from the picklable task
description (config + names + seeds); nothing is inherited from parent
mutable state.  A parallel run therefore yields exactly the results of
the sequential run, in the same order.
"""

from __future__ import annotations

import hashlib
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..cache.stats import CacheStats
from ..obs.progress import ProgressReporter
from ..robust.suite import RobustSuiteRunner, SuiteReport
from ..robust.supervise import (
    CrashJournal,
    SupervisedTaskError,
    SuperviseConfig,
    TaskSupervisor,
)

__all__ = ["ExperimentMatrix", "RunContext", "parallel_map", "run_matrix", "task_seed"]


def task_seed(*parts, base: int = 0) -> int:
    """Derive a deterministic 63-bit seed from task identity.

    ``task_seed("mcf", "brrip", base=config.seed)`` is a pure function
    of its arguments — stable across processes, Python hash
    randomisation, and scheduling order.
    """
    payload = "\x1f".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(payload).digest()
    return (int.from_bytes(digest[:8], "little") ^ base) & (2**63 - 1)


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int = 1,
    *,
    supervise: SuperviseConfig | None = None,
    journal: CrashJournal | str | None = None,
    task_ids: Sequence[str] | None = None,
    progress: Callable | None = None,
) -> list:
    """Map ``fn`` over ``items``, preserving order.

    With ``jobs > 1``, runs on a supervised process pool — ``fn`` and
    every item must be picklable (use a module-level function or a
    ``functools.partial`` of one).  A worker that dies or hangs is
    killed and its task re-queued on a fresh pool (degrading to
    in-process execution after repeated breakage), so infrastructure
    failures cost a retry, not the run; a task that ultimately fails
    raises :class:`~repro.robust.supervise.SupervisedTaskError` carrying
    the structured :class:`~repro.robust.supervise.TaskOutcome`.  With
    ``jobs <= 1`` it is a plain loop with identical result semantics
    (original exceptions propagate directly).

    ``progress`` is an optional callable invoked once per finished item
    (with the task id or :class:`~repro.robust.supervise.TaskOutcome`) —
    e.g. a :class:`repro.obs.progress.ProgressReporter`.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results = []
        for index, item in enumerate(items):
            results.append(fn(item))
            if progress is not None:
                progress(task_ids[index] if task_ids else None)
        return results
    supervisor = TaskSupervisor(supervise, journal=journal, progress=progress)
    outcomes = supervisor.map(fn, items, jobs=jobs, task_ids=task_ids)
    results = []
    for outcome in outcomes:
        if not outcome.ok:
            raise SupervisedTaskError(outcome)
        results.append(outcome.result)
    return results


@dataclass
class RunContext:
    """How a figure driver executes its grid of per-benchmark tasks.

    Built once (the eval CLI builds it from its flags) and passed to the
    grid drivers, each of which makes one :meth:`map` call through it.
    ``jobs``, ``supervise`` and ``journal`` configure the supervised pool
    (see :func:`parallel_map`); ``progress`` prints live per-task
    progress on stderr.  ``suite`` carries the robust settings — a
    :class:`~repro.robust.suite.RobustSuiteRunner` with its retry
    policy, resume manifest, deadline budget, fault plan and repro
    command — under which a failing task is retried and then recorded
    on :attr:`report` instead of raising.
    """

    jobs: int = 1
    supervise: SuperviseConfig | None = None
    journal: CrashJournal | str | Path | None = None
    progress: bool = False
    suite: RobustSuiteRunner | None = None

    @property
    def report(self) -> SuiteReport | None:
        """The robust suite's report for the last :meth:`map`, if any."""
        return self.suite.last_report if self.suite is not None else None

    def map(
        self,
        compute: Callable[[str], Any],
        ids: Iterable[str],
        result_type: type | None = None,
        *,
        label: str | None = "benchmarks",
    ) -> list:
        """``[compute(i) for i in ids]``, executed under this context.

        Without ``suite`` this is :func:`parallel_map`: a task that
        fails raises.  With it, the completed results come back in
        ``ids`` order (failed ids are absent, recorded on
        :attr:`report`), and ``result_type`` — a flat dataclass — turns
        the resume manifest's JSON payloads back into results.
        ``label`` names the tasks in progress lines (``None``: no
        progress for this call).
        """
        ids = list(ids)
        progress = None
        if self.progress and label:
            progress = ProgressReporter(len(ids), label=label)
        if self.suite is None:
            return parallel_map(
                compute, ids, self.jobs, supervise=self.supervise,
                journal=self.journal, task_ids=ids, progress=progress,
            )
        self.suite.progress = progress
        codec = {}
        if result_type is not None:
            codec = dict(
                serialize=asdict, deserialize=lambda payload: result_type(**payload)
            )
        report = self.suite.run(ids, compute, jobs=self.jobs, **codec)
        return report.results(ids)


# -- the (benchmark x policy) grid -------------------------------------------


@dataclass
class ExperimentMatrix:
    """Replay stats for every (benchmark, policy) cell of a grid."""

    benchmarks: tuple[str, ...]
    policies: tuple[str, ...]
    cells: dict[tuple[str, str], CacheStats] = field(default_factory=dict)

    def stats(self, benchmark: str, policy: str) -> CacheStats:
        return self.cells[(benchmark, policy)]

    def demand_miss_rates(self) -> dict[tuple[str, str], float]:
        return {key: s.demand_miss_rate for key, s in self.cells.items()}


#: Per-worker warm cache of deserialized LLC streams, reused across
#: matrix tasks that land on the same worker process (keyed by
#: benchmark + config digest, capped so long grids stay bounded).
_WARM_STREAMS: OrderedDict = OrderedDict()
_WARM_STREAMS_CAP = 8


def _warm_llc_stream(benchmark: str, config, store):
    from ..eval.runner import ArtifactCache

    key = (benchmark, config.digest())
    stream = _WARM_STREAMS.get(key)
    if stream is not None:
        _WARM_STREAMS.move_to_end(key)
        return stream
    stream = ArtifactCache(config, store=store).llc_stream(benchmark)
    _WARM_STREAMS[key] = stream
    if len(_WARM_STREAMS) > _WARM_STREAMS_CAP:
        _WARM_STREAMS.popitem(last=False)
    return stream


def _matrix_benchmark_task(args) -> tuple[str, dict[str, CacheStats]]:
    """One benchmark's stream, replayed under each of ``policies`` (all of
    them at ``"benchmark"`` granularity, one at ``"cell"`` granularity)."""
    benchmark, policies, config, store, engine = args
    from ..cache.fastsim import replay
    from ..policies.belady_policy import BeladyPolicy

    stream = _warm_llc_stream(benchmark, config, store)
    hierarchy = config.hierarchy()
    out: dict[str, CacheStats] = {}
    for policy in policies:
        spec = BeladyPolicy.from_stream(stream) if policy == "belady" else policy
        out[policy] = replay(stream, spec, hierarchy, engine=engine)
    return benchmark, out


def run_matrix(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    config=None,
    *,
    jobs: int = 1,
    store=None,
    engine: str = "auto",
    granularity: str = "benchmark",
    supervise: SuperviseConfig | None = None,
    journal: CrashJournal | str | None = None,
    progress: Callable | None = None,
) -> ExperimentMatrix:
    """Replay the full (benchmark x policy) grid, optionally in parallel.

    ``policies`` are registry names plus the pseudo-policy ``"belady"``
    (the offline MIN bound, built from each benchmark's own stream).
    ``store`` is an :class:`~repro.robust.store.ArtifactStore` (or
    path) shared by the workers; when none is given an ephemeral one is
    created for the run (and removed afterwards).  Either way every
    benchmark's LLC stream is materialized into it once, in the parent,
    before any task is dispatched — workers only ever *load* streams,
    and per-cell tasks never recompute trace + filter, so ``"cell"``
    granularity is safe without a caller-provided store.
    ``supervise``/``journal`` configure the pool supervisor (see
    :func:`parallel_map`).
    """
    from ..eval.runner import DEFAULT, ArtifactCache
    from ..robust.store import ArtifactStore

    config = config or DEFAULT
    benchmarks = tuple(benchmarks)
    policies = tuple(policies)
    if granularity not in ("benchmark", "cell"):
        raise ValueError(f"unknown granularity {granularity!r}")
    ephemeral = None
    if store is None:
        ephemeral = tempfile.TemporaryDirectory(prefix="repro-matrix-store-")
        store = ArtifactStore(ephemeral.name)
    try:
        # Shared once-per-benchmark materialization: fill the store in
        # the parent so per-task work in the workers is pure replay.
        parent_cache = ArtifactCache(config, store=store)
        for benchmark in benchmarks:
            parent_cache.llc_stream(benchmark)
        # Ship the store by path: workers rebuild their own handle, so
        # no lock/stats state is pickled across the pool boundary.
        store_ref = str(parent_cache.store.root)
        if granularity == "benchmark":
            tasks = [(b, policies, config, store_ref, engine) for b in benchmarks]
            ids = [f"{b}" for b in benchmarks]
        else:
            tasks = [
                (b, (p,), config, store_ref, engine)
                for b in benchmarks
                for p in policies
            ]
            ids = [f"{b}/{p}" for b in benchmarks for p in policies]
        matrix = ExperimentMatrix(benchmarks=benchmarks, policies=policies)
        rows = parallel_map(
            _matrix_benchmark_task, tasks, jobs=jobs, supervise=supervise,
            journal=journal, task_ids=ids, progress=progress,
        )
        for benchmark, stats_by_policy in rows:
            for policy, stats in stats_by_policy.items():
                matrix.cells[(benchmark, policy)] = stats
        return matrix
    finally:
        if ephemeral is not None:
            ephemeral.cleanup()
