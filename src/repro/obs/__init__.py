"""Observability: metrics, tracing, and run introspection.

``repro.obs`` is a *leaf* package — at import time it pulls in nothing
from the rest of ``repro`` so every other layer (cache, core, ml,
robust, perf, eval) can depend on it without cycles (``insight`` and
``report`` defer their cache/traces imports to call time).  Collection
is opt-in and the disabled fast path costs one module-attribute check
per instrumentation site.

Typical wiring (what ``python -m repro.eval`` does under
``--metrics-out`` / ``--trace-out``)::

    from repro import obs

    obs.metrics.enable()
    obs.trace.install(obs.trace.TraceLog("run.trace.jsonl"))
    ... run experiments ...
    snapshot = obs.metrics.registry().snapshot(
        run_id=obs.trace.current_run_id()
    )
    obs.metrics.save_snapshot("metrics.json", snapshot)
"""

from importlib import import_module

from . import insight, instrument, metrics, progress, trace


def __getattr__(name: str):
    """Load :mod:`~repro.obs.report` (HTML rendering) on first use."""
    if name == "report":
        return import_module(f"{__name__}.report")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = ["insight", "instrument", "metrics", "progress", "report", "trace"]
