"""Process-local metrics registry (``repro.obs.metrics``).

The registry holds three metric kinds — monotonic :class:`Counter`\\ s,
last-value :class:`Gauge`\\ s, and bucketed :class:`Histogram`\\ s — keyed
by name plus an optional label set, and turns them into *snapshots*:
plain JSON-serialisable dicts with a schema tag and the run's
correlation id.  Snapshots can be merged (multi-process runs), diffed
(two runs, or reference engine vs fastsim), validated, and exported as
JSON or the Prometheus textfile format.

Performance contract: collection is **off by default** and every
instrumentation site checks the module-level :data:`ENABLED` flag before
doing *any* work — no metric object is allocated, no label dict built,
no string formatted.  The helpers :func:`counter` / :func:`gauge` /
:func:`histogram` return a shared no-op sink when collection is
disabled, so call sites can be written unconditionally without paying
for observability they did not turn on.  Hot kernels (the fastsim
replay loops) are instrumented only at call boundaries, never
per-access.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import re
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "collecting",
    "counter",
    "diff_snapshots",
    "disable",
    "enable",
    "gauge",
    "histogram",
    "histogram_quantiles",
    "live_prometheus",
    "load_snapshot",
    "merge_snapshots",
    "registry",
    "save_snapshot",
    "to_prometheus",
    "validate_snapshot",
]

#: Schema tag stamped into (and required of) every metrics snapshot.
METRICS_SCHEMA = "repro.obs.metrics/v1"

#: Module-level collection flag.  Instrumentation sites check this
#: *before* building labels or touching the registry, so a disabled run
#: pays one attribute load per site and nothing else.
ENABLED = False

#: Default histogram bucket upper bounds (powers of two; +Inf implicit).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(2.0**i for i in range(0, 16))


def _metric_key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of the key encoding: ``"n{a=1,b=x}"`` -> ``("n", {...})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing integer counter.

    Mutations take a per-metric lock: ``+=`` on an attribute is a
    read-modify-write that can lose increments when threads interleave
    (the serve stack increments from listener and worker threads).
    """

    __slots__ = ("key", "value", "_lock")
    kind = "counter"

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    # Counters accept the other sinks' verbs so a call site can switch
    # metric kinds without breaking the disabled-path null object.
    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Last-written value (queue depth, learning rate, throughput)."""

    __slots__ = ("key", "value", "_lock")
    kind = "gauge"

    def __init__(self, key: str) -> None:
        self.key = key
        self.value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if self.value is None or value > self.value:
                self.value = value

    def as_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; values above the last bound
    land in the implicit ``+Inf`` bucket.  Bucket counts are
    *non-cumulative* in snapshots (easier to merge and diff); the
    Prometheus exporter accumulates them on the way out.
    """

    __slots__ = (
        "key", "buckets", "counts", "count", "total", "vmin", "vmax", "_lock"
    )
    kind = "histogram"

    def __init__(self, key: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.key = key
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, n: int = 1) -> None:
        value = float(value)
        with self._lock:
            self.count += n
            self.total += value * n
            if self.vmin is None or value < self.vmin:
                self.vmin = value
            if self.vmax is None or value > self.vmax:
                self.vmax = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += n
                    return
            self.counts[-1] += n

    def as_dict(self) -> dict:
        with self._lock:
            buckets = {str(b): c for b, c in zip(self.buckets, self.counts)}
            buckets["+Inf"] = self.counts[-1]
            return {
                "type": self.kind,
                "count": self.count,
                "sum": self.total,
                "min": self.vmin,
                "max": self.vmax,
                "buckets": buckets,
            }


class _NullSink:
    """Shared no-op metric returned while collection is disabled."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float, n: int = 1) -> None:
        pass


_NULL = _NullSink()


class MetricsRegistry:
    """Name+labels -> metric map with snapshot/merge/diff plumbing."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Guards metric *creation* and snapshot iteration.  Two threads
        # racing _get for a new key must agree on one metric object, or
        # each keeps its own and one side's increments vanish.
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Mapping[str, Any], **kwargs):
        key = _metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(key, **kwargs)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def snapshot(
        self, run_id: str | None = None, meta: Mapping[str, Any] | None = None
    ) -> dict:
        """Freeze the registry into a schema-tagged, JSON-safe dict.

        Safe against concurrent writers: the key list is copied under
        the registry lock and each metric serialises itself under its
        own lock, so a snapshot taken mid-write sees a consistent value
        for every metric (never a torn histogram).
        """
        with self._lock:
            items = sorted(self._metrics.items())
        return {
            "schema": METRICS_SCHEMA,
            "run_id": run_id,
            "created_unix": time.time(),
            "meta": dict(meta or {}),
            "metrics": {key: metric.as_dict() for key, metric in items},
        }


#: The process-global default registry used by the module helpers.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def enable() -> None:
    """Turn metric collection on (for the module helpers)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    global ENABLED
    ENABLED = False


@contextmanager
def collecting(clear: bool = True):
    """Enable collection for a scope; yields the global registry."""
    if clear:
        _REGISTRY.clear()
    enable()
    try:
        yield _REGISTRY
    finally:
        disable()


def counter(name: str, **labels: Any):
    """Global-registry counter, or the shared no-op sink when disabled."""
    if not ENABLED:
        return _NULL
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any):
    if not ENABLED:
        return _NULL
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: Any):
    if not ENABLED:
        return _NULL
    return _REGISTRY.histogram(name, buckets=buckets, **labels)


# -- snapshot algebra ----------------------------------------------------------


def validate_snapshot(snapshot: Any) -> list[str]:
    """Structural check of a metrics snapshot; returns problems found."""
    problems: list[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != METRICS_SCHEMA:
        problems.append(f"schema != {METRICS_SCHEMA!r}")
    run_id = snapshot.get("run_id")
    if run_id is not None and not isinstance(run_id, str):
        problems.append("run_id must be a string or null")
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["missing 'metrics' object"]
    for key, entry in metrics.items():
        if not isinstance(entry, dict):
            problems.append(f"{key}: entry is not an object")
            continue
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            if "value" not in entry:
                problems.append(f"{key}: missing value")
            elif kind == "counter" and not isinstance(entry["value"], int):
                problems.append(f"{key}: counter value is not an integer")
        elif kind == "histogram":
            for field in ("count", "sum", "buckets"):
                if field not in entry:
                    problems.append(f"{key}: missing {field}")
        else:
            problems.append(f"{key}: unknown metric type {kind!r}")
    return problems


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge several snapshots: counters/histograms add, gauges take the
    last non-null value.  Mismatched types for one key raise."""
    snapshots = list(snapshots)
    merged: dict[str, dict] = {}
    run_id = None
    for snap in snapshots:
        run_id = snap.get("run_id") or run_id
        for key, entry in snap.get("metrics", {}).items():
            have = merged.get(key)
            if have is None:
                merged[key] = json.loads(json.dumps(entry))  # deep copy
                continue
            if have["type"] != entry["type"]:
                raise ValueError(
                    f"cannot merge {key!r}: {have['type']} vs {entry['type']}"
                )
            if entry["type"] == "counter":
                have["value"] += entry["value"]
            elif entry["type"] == "gauge":
                if entry["value"] is not None:
                    have["value"] = entry["value"]
            else:
                have["count"] += entry["count"]
                have["sum"] += entry["sum"]
                for bound in ("min", "max"):
                    vals = [v for v in (have[bound], entry[bound]) if v is not None]
                    if vals:
                        have[bound] = (min if bound == "min" else max)(vals)
                for b, c in entry["buckets"].items():
                    have["buckets"][b] = have["buckets"].get(b, 0) + c
    return {
        "schema": METRICS_SCHEMA,
        "run_id": run_id,
        "created_unix": time.time(),
        "meta": {"merged_from": len(snapshots)},
        "metrics": dict(sorted(merged.items())),
    }


def _scalar(entry: Any) -> float | None:
    """The comparable scalar of a metric entry (histograms: the count).

    Defensive against malformed entries (hand-edited snapshots, older
    schemas): anything without a usable scalar compares as None rather
    than raising, so ``obs diff`` can still render the rest.
    """
    if not isinstance(entry, dict):
        return None
    if entry.get("type") in ("counter", "gauge"):
        value = entry.get("value")
    else:
        value = entry.get("count")
    return value if isinstance(value, (int, float)) else None


def histogram_quantiles(
    entry: Mapping[str, Any], qs: Sequence[float] = (0.5, 0.9, 0.99)
) -> list[float | None]:
    """Quantile estimates from a snapshot histogram entry.

    Linear interpolation inside the (non-cumulative) bucket containing
    each quantile, using the previous bucket's upper bound as the lower
    edge; the open ``+Inf`` bucket and the first bucket's lower edge are
    pinned to the recorded ``max`` / ``min``, and every estimate is
    clamped to ``[min, max]``.  Returns one value per requested
    quantile, or None when the histogram is empty.
    """
    count = entry.get("count") or 0
    raw = entry.get("buckets") or {}
    if count <= 0 or not raw:
        return [None] * len(qs)
    bounds: list[tuple[float, int]] = []
    for bound, c in raw.items():
        upper = math.inf if str(bound) in ("+Inf", "inf", "Inf") else float(bound)
        bounds.append((upper, int(c)))
    bounds.sort(key=lambda item: item[0])
    vmin = entry.get("min")
    vmax = entry.get("max")
    results: list[float | None] = []
    for q in qs:
        target = max(0.0, min(1.0, float(q))) * count
        cumulative = 0
        lo = vmin if vmin is not None else 0.0
        value: float | None = None
        for upper, c in bounds:
            hi = upper
            if math.isinf(hi):
                hi = vmax if vmax is not None else lo
            if c > 0 and cumulative + c >= target:
                frac = (target - cumulative) / c
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                break
            cumulative += c
            lo = hi
        if value is None:
            value = vmax if vmax is not None else lo
        if value is not None:
            if vmin is not None:
                value = max(vmin, value)
            if vmax is not None:
                value = min(vmax, value)
        results.append(value)
    return results


def diff_snapshots(
    a: dict, b: dict, only: Sequence[str] | None = None
) -> list[dict]:
    """Per-metric delta rows between two snapshots (``b`` minus ``a``).

    ``only`` is an optional list of ``fnmatch`` patterns over metric
    keys.  Each row carries the two scalar values, the absolute delta,
    the percentage change relative to ``a`` (None when undefined —
    missing metric or zero baseline), and a ``status``: ``"added"``
    (present only in ``b``), ``"removed"`` (only in ``a``), or
    ``"changed"``/``"same"``.  One-sided metrics are reported, never an
    error — comparing runs with different instrumentation is routine.
    """
    keys = sorted(set(a.get("metrics", {})) | set(b.get("metrics", {})))
    if only:
        keys = [k for k in keys if any(fnmatch.fnmatch(k, pat) for pat in only)]
    rows: list[dict] = []
    for key in keys:
        ea = a.get("metrics", {}).get(key)
        eb = b.get("metrics", {}).get(key)
        va = _scalar(ea) if ea is not None else None
        vb = _scalar(eb) if eb is not None else None
        delta = vb - va if va is not None and vb is not None else None
        pct = None
        if delta is not None and va:
            pct = 100.0 * delta / abs(va)
        if ea is None and eb is not None:
            status = "added"
        elif eb is None and ea is not None:
            status = "removed"
        elif delta:
            status = "changed"
        else:
            status = "same"
        rows.append(
            {
                "metric": key,
                "a": va,
                "b": vb,
                "delta": delta,
                "pct": pct,
                "status": status,
            }
        )
    return rows


# -- export --------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return _PROM_BAD.sub("_", f"repro_{name}")


def _prom_labels(labels: Mapping[str, str], extra: str | None = None) -> str:
    parts = [f'{_PROM_BAD.sub("_", k)}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus textfile exposition format."""
    lines: list[str] = []
    typed: set[str] = set()
    for key, entry in snapshot.get("metrics", {}).items():
        name, labels = split_key(key)
        pname = _prom_name(name)
        kind = entry["type"]
        if pname not in typed:
            lines.append(f"# TYPE {pname} {kind if kind != 'histogram' else 'histogram'}")
            typed.add(pname)
        if kind in ("counter", "gauge"):
            value = entry["value"]
            if value is None:
                value = math.nan
            lines.append(f"{pname}{_prom_labels(labels)} {value}")
        else:
            cumulative = 0
            for bound, count in entry["buckets"].items():
                cumulative += count
                le = 'le="' + str(bound) + '"'
                lines.append(f"{pname}_bucket{_prom_labels(labels, le)} {cumulative}")
            lines.append(f"{pname}_sum{_prom_labels(labels)} {entry['sum']}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def live_prometheus(run_id: str | None = None) -> str:
    """Render the *live* global registry in Prometheus exposition format.

    This is the scrape path of long-running processes (the prediction
    server's ``/metrics`` endpoint): it snapshots the current registry
    state on every call, so a scraper always sees up-to-date counters
    without the process having to write textfiles.
    """
    return to_prometheus(_REGISTRY.snapshot(run_id=run_id))


def save_snapshot(path: str | os.PathLike, snapshot: dict) -> None:
    """Atomically write a snapshot (``*.prom`` -> Prometheus, else JSON)."""
    from ..traces.io import atomic_replace

    path = os.fspath(path)
    if path.endswith(".prom"):
        payload = to_prometheus(snapshot)
    else:
        payload = json.dumps(snapshot, indent=1, sort_keys=False)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with atomic_replace(path) as tmp:
        tmp.write_text(payload, encoding="utf-8")


def load_snapshot(path: str | os.PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
