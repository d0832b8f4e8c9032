"""Sampled decision telemetry: online prediction quality vs Belady.

The conformance fuzzer can check a policy's *decisions* offline, but
nothing in the repo observed prediction *quality* while a replay or the
``repro.serve`` daemon was running.  This module closes that gap with a
process-global :class:`DecisionRecorder` behind the same
zero-cost-when-disabled contract as :mod:`repro.obs.metrics`:

* **Decision events** — the reference policies and the
  :mod:`repro.cache.fastpolicies` kernels call
  :func:`get_recorder` once per replay/feed and, only when a recorder is
  installed, report each sampled-set demand access (with the prediction
  the policy just made: friendly/averse, ISVM margin, Hawkeye counter)
  and each eviction (victim line, predicted-friendly bit, RRPV).
* **Deferred ground truth** — the recorder owns its own rolling OPTgen
  window (the same :class:`~repro.cache.fastpolicies._FlatOptGenSampler`
  machinery the kernels train with, over the same 64 sampled sets), so
  every recorded prediction is scored once its reuse resolves, *exactly*
  as the paper labels training data.  Live accuracy / precision /
  coverage gauges follow with no second simulation.
* **Model drift** — the fast kernels report model-state signals (ISVM
  weight norm, SHCT/counter-table saturation, DRRIP PSEL) once per
  ``feed``; the reference policies report decisions, not model state.
  The recorder tracks deltas between consecutive reports as
  histograms, plus the per-PC prediction-flip rate.
* **Worst decisions** — when a line the policy evicted later resolves
  as OPT-friendly (Belady would have kept it), the join of the eviction
  record and the scoring event is kept in a bounded table: the concrete
  accesses where the policy lost capacity to a wrong prediction.

Everything the recorder accumulates is exportable as a JSON artifact
(``repro.obs.insight/v1``) consumed by ``obs report``, and publishable
into the :mod:`repro.obs.metrics` registry (``insight.*`` keys, with
optional constant labels such as ``shard=N`` for the serving stack).

Disabled-path contract: when no recorder is installed the *only* cost
to the hot simulation loops is one module-function call per kernel
coroutine (one per feed, one per run of steps) and one ``is not None``
test per sampled access / eviction — never a dict
lookup or attribute chase per access.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from . import metrics as obs_metrics

__all__ = [
    "INSIGHT_SCHEMA",
    "DecisionRecorder",
    "active",
    "disable",
    "enable",
    "get_recorder",
    "load_artifact",
    "save_artifact",
    "validate_artifact",
]

#: Schema identifier stamped into every insight artifact.
INSIGHT_SCHEMA = "repro.obs.insight/v1"

#: The process-global recorder (None = disabled, the default).
_RECORDER: "DecisionRecorder | None" = None


class DecisionRecorder:
    """Scores sampled replacement decisions against a rolling OPTgen.

    One recorder serves one LLC geometry (``num_sets`` x
    ``associativity``); engines verify the geometry with
    :meth:`matches` before reporting so a stale recorder can never
    corrupt itself with mismatched set indices.
    """

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        *,
        num_sampled_sets: int = 64,
        window_factor: int = 8,
        tracker_ways: int | None = None,
        sample_period: int = 32,
        max_worst: int = 50,
        max_events: int = 512,
        series_points: int = 512,
        labels: dict[str, Any] | None = None,
    ) -> None:
        # Deferred import: fastpolicies imports this module for its
        # hook checks, so the sampler class must resolve lazily.
        from ..cache.fastpolicies import _FlatOptGenSampler

        self.num_sets = num_sets
        self.associativity = associativity
        self.sample_period = max(1, sample_period)
        self.max_worst = max_worst
        self.max_events = max_events
        self.series_points = max(16, series_points)
        self.labels = dict(labels or {})
        self._sampler = _FlatOptGenSampler(
            num_sets, associativity, num_sampled_sets, window_factor, tracker_ways
        )
        self._sampled = self._sampler.sampled
        # Bound the eviction join index: generous relative to what the
        # OPTgen window can still resolve, tiny relative to a trace.
        self._evicted_cap = max(
            4096, 4 * self._sampler.window * len(self._sampled)
        )
        self.seq = 0
        self.sampled_accesses = 0
        self.evictions = 0
        self.sampled_evictions = 0
        self.scored = 0
        self.correct = 0
        self.tp = self.fp = self.fn = self.tn = 0
        self.flips = 0
        self.flip_checks = 0
        self.worst_total = 0
        self._last_pred: dict[int, bool] = {}
        self._evicted: dict[int, tuple] = {}
        self._heatmap: dict[int, list[int]] = {}
        # accesses/evictions/scored/mispredicted per sampled set
        self._series: list[tuple[int, float]] = []
        self._series_every = 64
        self._worst: list[dict] = []
        self._events: list[dict] = []
        self._model: dict[str, dict[str, float]] = {}
        self._drift: dict[str, dict[str, list]] = {}
        self._drift_points = 0

    # -- engine-facing hooks -------------------------------------------------
    def matches(self, num_sets: int, associativity: int) -> bool:
        """True when this recorder was built for the given geometry."""
        return self.num_sets == num_sets and self.associativity == associativity

    def on_demand_access(
        self,
        line: int,
        pc: int,
        predicted_friendly: bool,
        *,
        margin: float | None = None,
        counter: int | None = None,
    ) -> None:
        """One demand access: record the live prediction, feed OPTgen.

        Only sampled-set accesses are processed (unsampled lines return
        immediately), so engines may pre-filter with their own sampled
        flags or call unconditionally — the stats are identical.
        """
        set_index = line % self.num_sets
        if set_index not in self._sampled:
            return
        self.seq += 1
        self.sampled_accesses += 1
        predicted_friendly = bool(predicted_friendly)
        last = self._last_pred.get(pc)
        if last is not None:
            self.flip_checks += 1
            if last != predicted_friendly:
                self.flips += 1
        self._last_pred[pc] = predicted_friendly
        cell = self._heatmap.get(set_index)
        if cell is None:
            cell = self._heatmap[set_index] = [0, 0, 0, 0]
        cell[0] += 1
        signal = margin if margin is not None else counter
        context = (predicted_friendly, self.seq, pc, line, signal)
        for _tok, ctx, label in self._sampler.access(line, pc, context):
            self._score(ctx, label)

    def on_eviction(
        self,
        line: int,
        *,
        predicted_friendly: bool | None = None,
        rrpv: int | None = None,
    ) -> None:
        """One eviction decision (any set; join state kept for sampled)."""
        self.evictions += 1
        set_index = line % self.num_sets
        if set_index not in self._sampled:
            return
        self.seq += 1
        self.sampled_evictions += 1
        cell = self._heatmap.get(set_index)
        if cell is None:
            cell = self._heatmap[set_index] = [0, 0, 0, 0]
        cell[1] += 1
        evicted = self._evicted
        evicted[line] = (self.seq, predicted_friendly, rrpv)
        if len(evicted) > self._evicted_cap:
            # Drop the oldest half by eviction seq; amortized O(1).
            cut = sorted(e[0] for e in evicted.values())[len(evicted) // 2]
            for key in [l for l, e in evicted.items() if e[0] < cut]:
                del evicted[key]
        if self.sampled_evictions % self.sample_period == 0:
            self._log_event(
                {
                    "kind": "eviction",
                    "seq": self.seq,
                    "line": line,
                    "set": set_index,
                    "predicted_friendly": predicted_friendly,
                    "rrpv": rrpv,
                }
            )

    def record_model_state(self, policy: str, **signals: float) -> None:
        """Boundary report of model-state signals; tracks drift deltas.

        Call at feed()/chunk boundaries, never per access.  Each signal
        is compared against its previous value for the same policy; the
        absolute delta feeds an ``insight.drift.<signal>`` histogram
        (when metrics are enabled) and a bounded in-recorder series for
        the HTML report.
        """
        previous = self._model.setdefault(policy, {})
        series = self._drift.setdefault(policy, {})
        for name, value in signals.items():
            value = float(value)
            prev = previous.get(name)
            previous[name] = value
            points = series.setdefault(name, [])
            points.append([self.seq, value])
            if len(points) > self.series_points:
                del points[::2]
            self._drift_points += 1
            if obs_metrics.ENABLED:
                obs_metrics.gauge(
                    f"insight.model.{name}", policy=policy, **self.labels
                ).set(value)
                if prev is not None:
                    obs_metrics.histogram(
                        f"insight.drift.{name}",
                        buckets=_DRIFT_BUCKETS,
                        policy=policy,
                        **self.labels,
                    ).observe(abs(value - prev))

    # -- scoring -------------------------------------------------------------
    def _score(self, ctx: tuple, label: bool) -> None:
        predicted, seq0, pc, line, signal = ctx
        self.scored += 1
        if predicted == label:
            self.correct += 1
        if predicted:
            if label:
                self.tp += 1
            else:
                self.fp += 1
        elif label:
            self.fn += 1
        else:
            self.tn += 1
        set_index = line % self.num_sets
        cell = self._heatmap.get(set_index)
        if cell is None:
            cell = self._heatmap[set_index] = [0, 0, 0, 0]
        cell[2] += 1
        if predicted != label:
            cell[3] += 1
        evicted = self._evicted.get(line)
        if label and evicted is not None and evicted[0] >= seq0:
            # OPT would have kept this line; the policy evicted it
            # before its (window-resolved) reuse arrived.
            self.worst_total += 1
            if len(self._worst) < self.max_worst:
                self._worst.append(
                    {
                        "line": line,
                        "set": set_index,
                        "pc": pc,
                        "predicted_friendly": predicted,
                        "signal": signal,
                        "inserted_seq": seq0,
                        "evicted_seq": evicted[0],
                        "resolved_seq": self.seq,
                        "victim_predicted_friendly": evicted[1],
                        "victim_rrpv": evicted[2],
                    }
                )
        if self.scored % self._series_every == 0:
            self._series.append((self.seq, self.correct / self.scored))
            if len(self._series) > self.series_points:
                del self._series[::2]
                self._series_every *= 2

    def _log_event(self, event: dict) -> None:
        if len(self._events) >= self.max_events:
            del self._events[:: 2]
        self._events.append(event)

    # -- summaries -----------------------------------------------------------
    @property
    def accuracy(self) -> float:
        """Fraction of resolved sampled decisions predicted correctly."""
        return self.correct / max(1, self.scored)

    @property
    def precision(self) -> float:
        """Of friendly predictions, the fraction OPT confirms."""
        return self.tp / max(1, self.tp + self.fp)

    @property
    def coverage(self) -> float:
        """Fraction of sampled accesses whose ground truth has resolved."""
        return self.scored / max(1, self.sampled_accesses)

    @property
    def flip_rate(self) -> float:
        """Per-PC prediction flips per repeated sampled prediction."""
        return self.flips / max(1, self.flip_checks)

    def summary(self) -> dict:
        return {
            "sampled_accesses": self.sampled_accesses,
            "scored": self.scored,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "coverage": self.coverage,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "flips": self.flips,
            "flip_checks": self.flip_checks,
            "flip_rate": self.flip_rate,
            "evictions": self.evictions,
            "sampled_evictions": self.sampled_evictions,
            "worst_decisions": self.worst_total,
            "model": {p: dict(v) for p, v in self._model.items()},
        }

    def publish(self) -> None:
        """Mirror the live quality gauges into the obs metrics registry."""
        if not obs_metrics.ENABLED:
            return
        labels = self.labels
        obs_metrics.gauge("insight.accuracy", **labels).set(self.accuracy)
        obs_metrics.gauge("insight.precision", **labels).set(self.precision)
        obs_metrics.gauge("insight.coverage", **labels).set(self.coverage)
        obs_metrics.gauge("insight.flip_rate", **labels).set(self.flip_rate)
        obs_metrics.gauge("insight.scored", **labels).set(self.scored)
        obs_metrics.gauge("insight.sampled_accesses", **labels).set(
            self.sampled_accesses
        )
        obs_metrics.gauge("insight.evictions", **labels).set(self.evictions)
        obs_metrics.gauge("insight.worst_decisions", **labels).set(
            self.worst_total
        )

    def to_artifact(self, *, run_id: str | None = None) -> dict:
        """JSON-safe dump of everything the HTML report renders."""
        from .trace import current_run_id

        return {
            "schema": INSIGHT_SCHEMA,
            "run_id": run_id or current_run_id(),
            "geometry": {
                "num_sets": self.num_sets,
                "associativity": self.associativity,
                "sampled_sets": sorted(self._sampled),
            },
            "labels": dict(self.labels),
            "summary": self.summary(),
            "accuracy_series": [[s, a] for s, a in self._series],
            "heatmap": {
                str(s): {
                    "accesses": c[0],
                    "evictions": c[1],
                    "scored": c[2],
                    "mispredicted": c[3],
                }
                for s, c in sorted(self._heatmap.items())
            },
            "worst": list(self._worst),
            "drift": {
                policy: {name: list(points) for name, points in sig.items()}
                for policy, sig in self._drift.items()
            },
            "events": list(self._events),
        }


#: Drift histogram buckets: deltas span saturating-counter steps (~1)
#: through full ISVM weight-norm swings (thousands).
_DRIFT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)


# -- module-level switch ------------------------------------------------------


def enable(config=None, **kwargs) -> DecisionRecorder:
    """Install a process-global recorder for the given LLC geometry.

    ``config`` follows :func:`repro.cache.fastsim.replay`: a
    :class:`~repro.cache.config.HierarchyConfig`, a single LLC
    :class:`~repro.cache.config.CacheConfig`, or None for the default
    scaled hierarchy.  Remaining keyword arguments go to
    :class:`DecisionRecorder`.
    """
    global _RECORDER
    from ..cache.fastsim import _llc_config

    llc = _llc_config(config)
    _RECORDER = DecisionRecorder(llc.num_sets, llc.associativity, **kwargs)
    return _RECORDER


def disable() -> DecisionRecorder | None:
    """Remove the global recorder; returns it for a final harvest."""
    global _RECORDER
    recorder, _RECORDER = _RECORDER, None
    return recorder


def get_recorder() -> DecisionRecorder | None:
    """The installed recorder, or None (the common, zero-cost case)."""
    return _RECORDER


def active() -> bool:
    return _RECORDER is not None


# -- artifact I/O -------------------------------------------------------------


def save_artifact(path: str | Path, artifact: dict) -> None:
    """Atomically write an insight artifact next to metrics/trace files."""
    from ..traces.io import atomic_write_text

    atomic_write_text(Path(path), json.dumps(artifact, indent=1))


def load_artifact(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_artifact(payload: Any) -> list[str]:
    """Structural check of an insight artifact; returns problems found."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["artifact is not an object"]
    if payload.get("schema") != INSIGHT_SCHEMA:
        problems.append(f"schema != {INSIGHT_SCHEMA}")
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing summary")
    else:
        for field in ("sampled_accesses", "scored", "accuracy"):
            if field not in summary:
                problems.append(f"summary missing {field!r}")
    for field in ("accuracy_series", "worst"):
        if not isinstance(payload.get(field), list):
            problems.append(f"{field} is not a list")
    for field in ("heatmap", "drift"):
        if not isinstance(payload.get(field), dict):
            problems.append(f"{field} is not an object")
    return problems
