"""Graceful suite degradation: retry, record, continue, resume.

A suite run maps a per-benchmark compute function over many benchmarks.
Without protection, one failing benchmark aborts the whole run and
throws away everything already computed.  :class:`RobustSuiteRunner`
instead:

* retries each benchmark under a seeded :class:`~repro.robust.retry.RetryPolicy`
  (honouring an optional suite-wide :class:`~repro.robust.retry.DeadlineBudget`);
* converts a benchmark that still fails into a structured
  :class:`BenchmarkFailure` and moves on, so the suite completes with
  partial aggregates;
* checkpoints every completed benchmark's result into an atomic JSON
  *resume manifest*, so a second invocation skips finished work and
  recomputes only what failed (or was never reached).

Benchmarks run under a :class:`~repro.robust.supervise.TaskSupervisor`
(in-process for ``jobs <= 1``).  With ``jobs > 1`` workers are watched
(per-task deadlines plus heartbeats), a broken pool is recycled and its
survivors re-queued, poison benchmarks are quarantined, repeated
breakage degrades the remainder to in-process sequential execution, and
every failure lands in a crash journal next to the resume manifest — so
a SIGKILLed or hung worker costs one benchmark, never the suite.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from ..obs import trace as obs_trace
from ..traces.io import atomic_write_text
from .faults import BenchmarkFaultPlan
from .retry import DeadlineBudget, Retrier, RetryPolicy
from .supervise import (
    TAXONOMY_DEADLINE,
    CrashJournal,
    SuperviseConfig,
    TaskOutcome,
    TaskSupervisor,
)

__all__ = ["BenchmarkFailure", "RobustSuiteRunner", "SuiteReport"]

_MANIFEST_VERSION = 1

#: BenchmarkFailure.error_type used for supervisor taxonomy classes that
#: carry no Python exception of their own.
_TAXONOMY_ERROR_TYPES = {
    "timeout": "TaskTimeout",
    "worker-crash": "WorkerCrashed",
    "poison": "PoisonTask",
    "deadline": "DeadlineExceeded",
}


@dataclass
class BenchmarkFailure:
    """A benchmark that failed after exhausting its retries."""

    benchmark: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""

    def as_row(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "error": self.error_type,
            "attempts": self.attempts,
            "message": self.message,
        }


@dataclass
class SuiteReport:
    """Outcome of one (possibly partial) suite run."""

    completed: dict[str, Any] = field(default_factory=dict)
    failures: list[BenchmarkFailure] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    deadline_hit: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def results(self, benchmarks: Sequence[str]) -> list:
        """Completed results in suite order (failures simply absent)."""
        return [self.completed[b] for b in benchmarks if b in self.completed]

    def failed_benchmarks(self) -> list[str]:
        return [f.benchmark for f in self.failures]

    def summary(self) -> str:
        parts = [f"{len(self.completed)} completed"]
        if self.resumed:
            parts.append(f"{len(self.resumed)} resumed from manifest")
        if self.failures:
            parts.append(
                f"{len(self.failures)} FAILED ({', '.join(self.failed_benchmarks())})"
            )
        if self.deadline_hit:
            parts.append("deadline exhausted")
        return "; ".join(parts)


def _benchmark_worker(args) -> tuple[str, str, Any, int]:
    """One benchmark's attempts, in a pool worker or in-process
    (module-level so it pickles).  Returns (benchmark, "ok"|"fail",
    payload, attempts) where the failure payload is an ``asdict``'d
    BenchmarkFailure.  In-process runs also pass the suite's deadline
    budget and sleep, so a budget that expires mid-retry stops at once;
    pool workers get neither (they do not pickle)."""
    compute, benchmark, retry_policy, fault_plan, budget, sleep = args
    retrier = Retrier(retry_policy, sleep=sleep or time.sleep, budget=budget)
    try:
        result = None
        for attempt in retrier:
            with attempt:
                if fault_plan is not None:
                    fault_plan.maybe_fail(benchmark)
                result = compute(benchmark)
        return benchmark, "ok", result, retrier.attempts_made
    except Exception as error:  # noqa: BLE001 — degrade, don't abort
        failure = BenchmarkFailure(
            benchmark=benchmark,
            error_type=type(error).__name__,
            message=str(error),
            attempts=retrier.attempts_made,
            traceback=traceback.format_exc(),
        )
        return benchmark, "fail", asdict(failure), retrier.attempts_made


class RobustSuiteRunner:
    """Run per-benchmark work with retries, failure capture, and resume.

    Args:
        retry_policy: Per-benchmark retry behaviour (attempts, backoff).
        manifest_path: Where to checkpoint progress.  When the file
            already exists, benchmarks recorded as done are *not*
            recomputed — their results are deserialised from it.
        budget: Optional suite-wide deadline; once exhausted, remaining
            benchmarks are recorded as deadline failures without running.
        fault_plan: Injected failures (tests / chaos drills).
        sleep: Injectable retry-backoff sleep for deterministic tests
            (in-process runs only).
        supervise: Pool-supervision knobs for ``jobs > 1`` (per-task
            deadline, pool-restart budget, degradation); defaults to
            :class:`~repro.robust.supervise.SuperviseConfig`'s defaults.
        journal_path: Crash-journal JSONL location.  Defaults to
            ``<manifest>.journal.jsonl`` next to the resume manifest
            (no journal when there is no manifest either).
        repro_command: ``"...{task}..."`` template stamped into journal
            entries so every failure carries a reproduction command.
    """

    def __init__(
        self,
        retry_policy: RetryPolicy | None = None,
        manifest_path: str | Path | None = None,
        budget: DeadlineBudget | None = None,
        fault_plan: BenchmarkFaultPlan | None = None,
        sleep: Callable[[float], None] | None = None,
        supervise: SuperviseConfig | None = None,
        journal_path: str | Path | None = None,
        repro_command: str | Callable[[str], str] | None = None,
        progress: Callable[[Any], None] | None = None,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.budget = budget
        self.fault_plan = fault_plan
        self._sleep = sleep if sleep is not None else time.sleep
        self.supervise = supervise or SuperviseConfig()
        if journal_path is None and self.manifest_path is not None:
            journal_path = self.manifest_path.with_name(
                self.manifest_path.stem + ".journal.jsonl"
            )
        self.journal = CrashJournal(journal_path) if journal_path else None
        self.repro_command = repro_command
        self.progress = progress
        self.last_report: SuiteReport | None = None

    # -- manifest ------------------------------------------------------------
    def _load_manifest(self) -> dict:
        if self.manifest_path is None or not self.manifest_path.exists():
            return {"version": _MANIFEST_VERSION, "done": {}, "failed": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            # A corrupt manifest only costs recomputation, never wrong data.
            return {"version": _MANIFEST_VERSION, "done": {}, "failed": {}}
        if manifest.get("version") != _MANIFEST_VERSION:
            return {"version": _MANIFEST_VERSION, "done": {}, "failed": {}}
        manifest.setdefault("done", {})
        manifest.setdefault("failed", {})
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        if self.manifest_path is not None:
            run_id = obs_trace.current_run_id()
            if run_id is not None:
                # Correlates the manifest with this run's metrics
                # snapshot, trace log, and crash journal entries.
                manifest["run_id"] = run_id
            atomic_write_text(self.manifest_path, json.dumps(manifest, indent=1))

    # -- execution -----------------------------------------------------------
    def run(
        self,
        benchmarks: Sequence[str],
        compute: Callable[[str], Any],
        serialize: Callable[[Any], Any] | None = None,
        deserialize: Callable[[Any], Any] | None = None,
        jobs: int = 1,
    ) -> SuiteReport:
        """Map ``compute`` over ``benchmarks`` with full fault handling.

        ``serialize``/``deserialize`` convert results to/from the
        JSON-safe payloads checkpointed in the manifest; without them,
        results are stored as-is (they must then be JSON-serialisable
        for the manifest to be written).

        Every benchmark runs under a :class:`TaskSupervisor` —
        in-process for ``jobs <= 1``, on a supervised process pool
        otherwise (``compute`` must then be picklable: a module-level
        function or a partial of one).  Retries run where the benchmark
        runs; a benchmark that raises, dies, hangs past its deadline, or
        breaks the pool becomes a structured :class:`BenchmarkFailure`
        (journaled) instead of aborting the suite.  The deadline budget
        is enforced before each benchmark starts; work already running
        when it expires completes and is kept.  The manifest is
        checkpointed in the parent as each outcome lands, and the report
        is assembled in suite order, so a parallel run is
        indistinguishable from a sequential one.
        """
        serialize = serialize or (lambda result: result)
        deserialize = deserialize or (lambda payload: payload)
        manifest = self._load_manifest()
        report = SuiteReport()
        pending: list[str] = []
        for benchmark in benchmarks:
            if benchmark in manifest["done"]:
                report.completed[benchmark] = deserialize(manifest["done"][benchmark])
                report.resumed.append(benchmark)
            else:
                pending.append(benchmark)
        outcomes_by_benchmark: dict[str, tuple[str, Any]] = {}

        def on_outcome(outcome: TaskOutcome) -> None:
            """Checkpoint each outcome into the manifest as it lands."""
            status, payload = self._unpack_outcome(outcome)
            outcomes_by_benchmark[outcome.task_id] = (status, payload)
            if status == "ok":
                manifest["done"][outcome.task_id] = serialize(payload)
                manifest["failed"].pop(outcome.task_id, None)
            else:
                manifest["failed"][outcome.task_id] = payload
            self._save_manifest(manifest)

        if pending:
            budget, sleep = (self.budget, self._sleep) if jobs <= 1 else (None, None)
            supervisor = TaskSupervisor(
                self.supervise,
                journal=self.journal,
                repro_command=self.repro_command,
                progress=self.progress,
            )
            supervisor.map(
                _benchmark_worker,
                [
                    (compute, b, self.retry_policy, self.fault_plan, budget, sleep)
                    for b in pending
                ],
                jobs=jobs,
                task_ids=pending,
                budget=self.budget,
                on_outcome=on_outcome,
            )
        for benchmark in benchmarks:  # suite order, whatever the completion order
            if benchmark not in outcomes_by_benchmark:
                continue
            status, payload = outcomes_by_benchmark[benchmark]
            if status == "ok":
                report.completed[benchmark] = payload
            else:
                failure = BenchmarkFailure(**payload)
                report.failures.append(failure)
                if failure.error_type == "DeadlineExceeded":
                    report.deadline_hit = True
        self.last_report = report
        return report

    def _unpack_outcome(self, outcome: TaskOutcome) -> tuple[str, Any]:
        """Map a supervisor outcome onto the worker's (status, payload)
        protocol: ``("ok", result)`` or ``("fail", BenchmarkFailure dict)``."""
        if outcome.ok:
            # The worker shim ran _benchmark_worker to completion;
            # its own retry loop already folded compute errors into a
            # BenchmarkFailure payload.
            benchmark, status, payload, _attempts = outcome.result
            if status != "ok" and self.journal is not None:
                self.journal.append(
                    event="task-failed",
                    task=benchmark,
                    taxonomy="compute-error",
                    error_type=payload.get("error_type", ""),
                    message=payload.get("message", ""),
                    submissions=outcome.submissions,
                )
            return status, payload
        # The supervisor itself failed the task: crashed/hung/poison
        # worker, unpicklable compute, or an exhausted suite budget.
        error_type = outcome.error_type or _TAXONOMY_ERROR_TYPES.get(
            outcome.taxonomy or "", "TaskFailed"
        )
        attempts = 0 if outcome.taxonomy == TAXONOMY_DEADLINE else outcome.submissions
        failure = BenchmarkFailure(
            benchmark=outcome.task_id,
            error_type=error_type,
            message=outcome.message,
            attempts=attempts,
            traceback=outcome.traceback,
        )
        return "fail", asdict(failure)
