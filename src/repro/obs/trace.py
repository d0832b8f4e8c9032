"""Span tracing with a per-run correlation id (``repro.obs.trace``).

A :class:`TraceLog` appends one JSON object per line to an event log —
the same append-only discipline as the crash journal it sits next to —
and every event carries the run's ``run_id`` so metrics snapshots,
resume manifests, crash journals, and traces from one invocation can be
joined after the fact.

Events use the Chrome trace-event vocabulary directly (``"X"`` complete
events with microsecond ``ts``/``dur``, ``"i"`` instants), so
:func:`export_chrome` only has to wrap the lines in a ``traceEvents``
array for ``chrome://tracing`` / Perfetto flamegraph viewing.

Like metrics, tracing is opt-in: the module-level :func:`span` /
:func:`event` helpers are no-ops until a tracer is installed with
:func:`install`, and cost one global load + truth test when idle.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "TraceLog",
    "current_run_id",
    "event",
    "export_chrome",
    "get_tracer",
    "install",
    "new_run_id",
    "read_events",
    "set_run_id",
    "span",
    "uninstall",
]

#: The process's run correlation id.  Stamped into metrics snapshots,
#: trace events, resume manifests, and crash journal entries.
_RUN_ID: str | None = None


def new_run_id() -> str:
    """A fresh 12-hex-digit correlation id."""
    return os.urandom(6).hex()


def set_run_id(run_id: str | None) -> None:
    global _RUN_ID
    _RUN_ID = run_id


def current_run_id(create: bool = False) -> str | None:
    """The process run id; with ``create=True``, mint one if unset."""
    global _RUN_ID
    if _RUN_ID is None and create:
        _RUN_ID = new_run_id()
    return _RUN_ID


class TraceLog:
    """Append-only JSONL trace writer bound to one run id."""

    def __init__(self, path: str | os.PathLike, run_id: str | None = None) -> None:
        self.path = Path(path)
        self.run_id = run_id or current_run_id(create=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Time a scope; emits one Chrome ``"X"`` complete event."""
        start_us = time.time() * 1e6
        t0 = time.perf_counter()
        error: str | None = None
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            dur_us = (time.perf_counter() - t0) * 1e6
            if error is not None:
                args = {**args, "error": error}
            self._emit(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur_us,
                    "pid": os.getpid(),
                    "tid": threading.get_ident() % 100_000,
                    "run_id": self.run_id,
                    "args": args,
                }
            )

    def complete(self, name: str, start_us: float, dur_us: float, **args: Any) -> None:
        """Emit an after-the-fact ``"X"`` complete event.

        For spans whose start was recorded elsewhere (e.g. a request
        dispatched in one thread and resolved in another): ``start_us``
        is an epoch-microsecond wall timestamp, matching :meth:`span`.
        """
        self._emit(
            {
                "name": name,
                "ph": "X",
                "ts": start_us,
                "dur": dur_us,
                "pid": os.getpid(),
                "tid": threading.get_ident() % 100_000,
                "run_id": self.run_id,
                "args": args,
            }
        )

    def event(self, name: str, **args: Any) -> None:
        """Emit an instant event (a point in time, not a duration)."""
        self._emit(
            {
                "name": name,
                "ph": "i",
                "ts": time.time() * 1e6,
                "s": "p",
                "pid": os.getpid(),
                "tid": threading.get_ident() % 100_000,
                "run_id": self.run_id,
                "args": args,
            }
        )

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "TraceLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Process-global tracer used by the module-level helpers (None = off).
_TRACER: TraceLog | None = None


def install(tracer: TraceLog) -> TraceLog:
    """Make ``tracer`` the process-global tracer for :func:`span`."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = None


def get_tracer() -> TraceLog | None:
    return _TRACER


def span(name: str, **args: Any):
    """Span on the installed tracer, or a free no-op context when off."""
    if _TRACER is None:
        return nullcontext()
    return _TRACER.span(name, **args)


def event(name: str, **args: Any) -> None:
    if _TRACER is not None:
        _TRACER.event(name, **args)


def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL trace, skipping torn (crash-truncated) lines."""
    events: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
    except FileNotFoundError:
        pass
    return events


def export_chrome(jsonl_path, out_path: str | os.PathLike) -> int:
    """Convert JSONL trace(s) into one ``chrome://tracing`` JSON file.

    ``jsonl_path`` may be a single path or a sequence of paths; events
    from every file are merged into one timeline, sorted by timestamp.
    Each process writes its own trace file with a distinct ``pid``, so
    merging the server's and the shard workers' logs yields a single
    cross-process view in which request spans nest under the worker
    spans that executed them.  Returns the number of events exported.
    """
    from ..traces.io import atomic_replace

    if isinstance(jsonl_path, (str, os.PathLike)):
        paths = [jsonl_path]
    else:
        paths = list(jsonl_path)
    events: list[dict] = []
    for path in paths:
        events.extend(read_events(path))
    events.sort(key=lambda ev: ev.get("ts", 0))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_replace(out_path) as tmp:
        tmp.write_text(json.dumps(payload), encoding="utf-8")
    return len(events)
