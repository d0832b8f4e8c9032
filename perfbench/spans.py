"""The traced run: spans around each layer's public entry points.

:class:`LayerTracer` wraps, from outside the program, the coarse calls
into each layer: at most one call per (benchmark, policy) pass, never
one per access.  Spans stay in memory and are written out at the end as
JSONL Chrome trace events, the format ``python -m repro.eval obs
chrome`` reads.

The program's own instrumentation stays off: this module never installs
``repro.obs.trace``'s tracer nor enables ``repro.obs.metrics``, and the
wrappers return exactly what they wrap.  An entry point that a refactor
removed is skipped, so its layer reads 0 instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.cache import fastsim
from repro.policies.belady_policy import BeladyPolicy


class LayerTracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self, max_ipc: int) -> None:
        self.max_ipc = max_ipc
        self.run_id = os.urandom(6).hex()
        self.events: list[dict] = []
        self.counts: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.violations: list[str] = []
        self.skipped: list[str] = []
        self._stack: list[list[float]] = []  # [child seconds] per open span
        self._restore: list[tuple[object, str, object]] = []
        self._tid = threading.get_ident() % 100_000

    # -- recording ---------------------------------------------------------

    def reset_pass(self) -> None:
        """Start a fresh per-pass tally (spans already recorded are kept)."""
        self.counts = {}
        self.self_s = {}
        self.violations = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str, layer: str | None, **args):
        """Time a scope.  ``layer`` None marks a container span (the pass
        itself) whose time is not attributed to any layer."""
        start_us = time.time() * 1e6
        self._stack.append([0.0])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            children = self._stack.pop()[0]
            if self._stack:
                self._stack[-1][0] += dur
            if layer is not None:
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - children
                if len(self._stack) <= 1:
                    self.add("covered_s", dur)
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": start_us,
                    "dur": dur * 1e6,
                    "pid": os.getpid(),
                    "tid": self._tid,
                    "run_id": self.run_id,
                    "args": {"layer": layer, **args},
                }
            )

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name: str, owner_path: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        *parents, attr = owner_path.split(".")
        owner = module
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.skipped.append(f"{module_name}.{owner_path}")
            return
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def install(self) -> None:
        """Wrap every layer entry point at the site the drivers call it."""
        if self._restore:
            return
        self._patch("repro.eval.runner", "get_trace", self._wrap_get_trace)
        self._patch("repro.eval.runner", "filter_to_llc_stream", self._wrap_filter)
        self._patch("repro.cache.fastsim", "replay", self._wrap_replay)
        self._patch(
            "repro.policies.belady_policy", "BeladyPolicy.from_stream", self._wrap_belady
        )
        self._patch("repro.eval.runner", "label_trace", self._wrap_label)
        self._patch("repro.eval.accuracy", "train_linear_model", self._wrap_linear)
        self._patch("repro.eval.accuracy", "train_lstm", self._wrap_lstm)
        self._patch("repro.cpu.system", "SingleCoreSystem.run", self._wrap_single)
        self._patch("repro.cpu.system", "MultiCoreSystem.run", self._wrap_multi)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrappers (one per entry point) -------------------------------------

    def _wrap_get_trace(self, original):
        def get_trace(name, *args, **kwargs):
            with self.span("traces.get_trace", "traces", benchmark=name):
                return original(name, *args, **kwargs)

        return get_trace

    def _wrap_filter(self, original):
        def filter_to_llc_stream(trace, *args, **kwargs):
            with self.span("cache.filter", "cache", benchmark=trace.name):
                stream = original(trace, *args, **kwargs)
            self.add("cache.filter_calls", 1)
            self.add("cache.trace_accesses", len(trace))
            self.add("cache.llc_accesses", len(stream))
            return stream

        return filter_to_llc_stream

    def _wrap_replay(self, original):
        def replay(stream, policy, config=None, engine="auto", *args, **kwargs):
            accesses = len(stream)
            if isinstance(policy, BeladyPolicy):
                name, layer, engine_used = "optgen.belady", "optgen", "reference"
            else:
                fast = engine != "reference" and fastsim.fast_path_kernel(policy)
                engine_used = "fast" if fast else "reference"
                name, layer = f"replay.{engine_used}", "replay"
            policy_name = policy if isinstance(policy, str) else type(policy).__name__
            with self.span(
                name, layer, benchmark=stream.name, policy=policy_name,
                engine=engine_used, accesses=accesses,
            ):
                stats = original(stream, policy, config, engine, *args, **kwargs)
            if layer == "replay":
                self.add("replay.calls", 1)
                self.add("replay.accesses", accesses)
                self.add(f"replay.{engine_used}_accesses", accesses)
            self.add("cache.llc_demand_misses", stats.demand_misses)
            return stats

        return replay

    def _wrap_belady(self, original):
        build = original.__func__

        def from_stream(cls, stream):
            with self.span("optgen.belady", "optgen", benchmark=stream.name):
                return build(cls, stream)

        return classmethod(from_stream)

    def _wrap_label(self, original):
        def label_trace(trace, *args, **kwargs):
            with self.span("optgen.label", "optgen", benchmark=trace.name):
                return original(trace, *args, **kwargs)

        return label_trace

    def _wrap_linear(self, original):
        def train_linear_model(model, labelled, *args, **kwargs):
            with self.span(
                "ml.linear", "ml", benchmark=labelled.name,
                model=getattr(model, "name", type(model).__name__),
            ):
                return original(model, labelled, *args, **kwargs)

        return train_linear_model

    def _wrap_lstm(self, original):
        def train_lstm(labelled, *args, **kwargs):
            with self.span("ml.lstm", "ml", benchmark=labelled.name):
                model, result = original(labelled, *args, **kwargs)
            self.add("ml.lstm_epochs", len(result.epoch_accuracies))
            return model, result

        return train_lstm

    def _wrap_single(self, original):
        def run(system, trace):
            with self.span("cpu.single", "cpu", benchmark=trace.name):
                result = original(system, trace)
            self.add("cpu.single_accesses", len(trace))
            self._record_system(result, [result.ipc])
            return result

        return run

    def _wrap_multi(self, original):
        def run(system, quota_accesses):
            with self.span("cpu.multi", "cpu", quota=quota_accesses):
                result = original(system, quota_accesses)
            self.add("cpu.multi_accesses", quota_accesses * len(result.per_core_ipc))
            self._record_system(result, list(result.per_core_ipc.values()))
            return result

        return run

    def _record_system(self, result, ipcs: list[float]) -> None:
        self.add("cpu.cycles", result.cycles)
        self.add("cache.llc_demand_misses", result.llc_demand_misses)
        for ipc in ipcs:
            if not 0.0 < ipc <= self.max_ipc:
                self.violations.append(
                    f"{result.name}: ipc {ipc!r} outside (0, {self.max_ipc}]"
                )
