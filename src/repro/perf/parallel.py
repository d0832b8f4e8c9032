"""Parallel experiment-grid runner (``repro.perf.parallel``).

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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..obs.progress import ProgressReporter

if TYPE_CHECKING:
    from ..robust.suite import RobustSuiteRunner, SuiteReport
    from ..robust.supervise import CrashJournal, SuperviseConfig

__all__ = ["RunContext", "parallel_map", "task_seed"]


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
    # The pool machinery loads with the pool: a jobs=1 run never imports it.
    from ..robust.supervise import SupervisedTaskError, TaskSupervisor

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
