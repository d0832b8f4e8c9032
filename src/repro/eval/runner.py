"""Shared experiment configuration and cached intermediate artefacts.

Every table/figure experiment draws from the same pipeline:

    trace -> (L1/L2 filter) -> LLC stream -> {policy replay | Belady labels}

Streams, labelled traces and policy replays are cached per (benchmark,
config) so a full benchmark run touches each expensive stage once.
Replays are kept in memory only.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..cache.config import HierarchyConfig, scaled_hierarchy
from ..cache.hierarchy import LLCStream, filter_to_llc_stream, simulate_llc
from ..cache.stats import CacheStats
from ..cpu.system import quota_view
from ..ml.dataset import LabelledTrace, label_trace
from ..ml.model import LSTMConfig
from ..policies.registry import make_policy
from ..traces.suite import FULL_SUITE, OFFLINE_BENCHMARKS, get_trace
from ..traces.trace import Trace

if TYPE_CHECKING:
    from ..robust.store import ArtifactStore


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments (laptop-scale defaults).

    The paper runs 1B-instruction SimPoints on a full-size hierarchy; we
    run ~10^5-access synthetic traces on the scaled hierarchy.  All
    relative comparisons (the shape of each figure) are preserved; see
    EXPERIMENTS.md for the absolute-number deltas.
    """

    trace_length: int = 100_000
    seed: int = 0
    # Table 1 scaled 32x down (64 KB LLC): small enough that every
    # capacity-driven pattern in a ~10^5-access trace cycles many times,
    # giving MIN real headroom over LRU (the regime the paper studies).
    hierarchy_scale: int = 32
    offline_benchmarks: tuple[str, ...] = OFFLINE_BENCHMARKS
    suite: tuple[str, ...] = FULL_SUITE
    # Offline-model knobs (scaled from Table 5 for runtime; the paper's
    # values are embedding=hidden=128, 15+ epochs).
    lstm_embedding: int = 32
    lstm_hidden: int = 32
    lstm_history: int = 30
    lstm_epochs: int = 8
    lstm_batch: int = 32

    def hierarchy(self, cores: int = 1) -> HierarchyConfig:
        return scaled_hierarchy(cores=cores, scale=self.hierarchy_scale)

    def lstm_config(self, vocab_size: int, **overrides) -> LSTMConfig:
        values = dict(
            vocab_size=vocab_size,
            embedding_dim=self.lstm_embedding,
            hidden_dim=self.lstm_hidden,
            history=self.lstm_history,
            batch_size=self.lstm_batch,
            seed=self.seed,
        )
        values.update(overrides)
        return LSTMConfig(**values)

    def with_length(self, trace_length: int) -> "ExperimentConfig":
        return replace(self, trace_length=trace_length)

    def digest(self) -> str:
        """Stable fingerprint of every knob, for artifact-store keys.

        Two configs share a digest iff they produce identical traces,
        streams, and labels — so a disk-cached artifact is only ever
        reused under the exact configuration that built it.
        """
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


#: A fast configuration for unit tests and quick benchmark smoke runs.
QUICK = ExperimentConfig(
    trace_length=30_000,
    lstm_embedding=24,
    lstm_hidden=24,
    lstm_history=20,
    lstm_epochs=5,
)

#: The default used by the `benchmarks/` harness.
DEFAULT = ExperimentConfig()


# -- artifact (de)serialisation for the disk store ---------------------------


def _stream_to_arrays(stream: LLCStream) -> tuple[dict, dict]:
    arrays = {
        "pcs": stream.pcs,
        "addresses": stream.addresses,
        "kinds": stream.kinds,
        "cores": stream.cores,
        "levels": stream.levels,
    }
    meta = {
        "name": stream.name,
        "line_size": stream.line_size,
        "source_accesses": stream.source_accesses,
        "source_instructions": stream.source_instructions,
        "l1_hits": stream.l1_hits,
        "l2_hits": stream.l2_hits,
        "metadata": stream.metadata,
    }
    return arrays, meta


def _stream_from_arrays(arrays: dict, meta: dict) -> LLCStream | None:
    """Rebuild a stored stream; None (a miss, so the caller regenerates)
    for an entry written before streams carried ``levels``."""
    if "levels" not in arrays:
        return None
    return LLCStream(
        name=meta["name"],
        pcs=arrays["pcs"],
        addresses=arrays["addresses"],
        kinds=arrays["kinds"],
        cores=arrays["cores"],
        line_size=int(meta["line_size"]),
        source_accesses=int(meta["source_accesses"]),
        source_instructions=int(meta["source_instructions"]),
        l1_hits=int(meta["l1_hits"]),
        l2_hits=int(meta["l2_hits"]),
        metadata=meta.get("metadata", {}),
        levels=arrays["levels"],
    )


def _labelled_to_arrays(labelled: LabelledTrace) -> tuple[dict, dict]:
    arrays = {
        "pcs": labelled.pcs,
        "labels": labelled.labels,
        "vocabulary": labelled.vocabulary,
    }
    return arrays, {"name": labelled.name, "metadata": labelled.metadata}


def _labelled_from_arrays(arrays: dict, meta: dict) -> LabelledTrace:
    return LabelledTrace(
        name=meta["name"],
        pcs=arrays["pcs"].astype(np.int32),
        labels=arrays["labels"].astype(bool),
        vocabulary=arrays["vocabulary"],
        metadata=meta.get("metadata", {}),
    )


def _stream_head(stream: LLCStream, head: Trace) -> LLCStream:
    """The part of ``stream`` that the first ``len(head)`` source
    accesses produced, ``head`` being that prefix of the filtered trace.

    A filter emits each LLC demand request followed at once by the
    writeback of the dirty L2 line it displaced, if any, so the part
    ends just before the first demand request beyond the prefix's.
    """
    levels = stream.levels[: len(head)]
    demands = np.flatnonzero(stream.kinds != LLCStream.KIND_WRITEBACK)
    kept = int(np.count_nonzero(levels == LLCStream.LEVEL_LLC))
    cut = int(demands[kept]) if kept < len(demands) else len(stream)
    return replace(
        stream,
        pcs=stream.pcs[:cut],
        addresses=stream.addresses[:cut],
        kinds=stream.kinds[:cut],
        cores=stream.cores[:cut],
        source_accesses=head.num_accesses,
        source_instructions=head.num_instructions,
        l1_hits=int(np.count_nonzero(levels == LLCStream.LEVEL_L1)),
        l2_hits=int(np.count_nonzero(levels == LLCStream.LEVEL_L2)),
        metadata=dict(stream.metadata),
        levels=levels,
    )


@dataclass(frozen=True)
class LLCReplay:
    """What one policy's replay of a benchmark's LLC stream leaves behind:
    its stats, and the online predictor accuracy of a policy that trains
    as it goes (None for the others)."""

    stats: CacheStats
    online_accuracy: float | None


class ArtifactCache:
    """Two-tier cache of traces, LLC streams, Belady labels and replays.

    Tier 1 is the original per-process dict; tier 2 (optional) is a
    crash-safe, checksummed :class:`~repro.robust.store.ArtifactStore`
    on disk, keyed by ``(benchmark, stage, config.digest())``.  With a
    store attached, a rerun — or a resumed run after a crash — reloads
    streams and labels instead of recomputing them; corrupt entries are
    quarantined by the store and regenerated transparently here.
    Policy replays (:meth:`replay`) live in tier 1 only.
    """

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT,
        store: ArtifactStore | str | None = None,
    ) -> None:
        self.config = config
        if isinstance(store, (str, Path)):
            from ..robust.store import ArtifactStore

            store = ArtifactStore(store)
        self.store = store
        self._streams: dict[str, LLCStream] = {}
        self._labelled: dict[str, LabelledTrace] = {}
        self._replays: dict[tuple[str, str], LLCReplay] = {}
        self._quota_streams: dict[tuple, LLCStream] = {}

    def __getstate__(self) -> dict:
        # A pool worker gets (config, store root) and starts with an empty
        # in-memory tier: streams travel through the disk store, if any.
        root = self.store.root if self.store is not None else None
        return {"config": self.config, "store": root}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["config"], store=state["store"])

    def trace(self, benchmark: str) -> Trace:
        return get_trace(
            benchmark,
            length=self.config.trace_length,
            llc_lines=self.config.hierarchy().llc.num_lines,
            seed=self.config.seed,
        )

    def llc_stream(self, benchmark: str) -> LLCStream:
        stream = self._held_stream(benchmark)
        if stream is not None:
            return stream
        if self.store is None:
            stream = filter_to_llc_stream(
                self.trace(benchmark), self.config.hierarchy()
            )
        else:
            digest = self.config.digest()
            # Cross-process dedup: when another worker is already filtering
            # this stream, wait for its artifact instead of recomputing.
            with self.store.single_flight(benchmark, "llc_stream", digest) as owner:
                if not owner:
                    stream = self._stored_stream(benchmark, digest)
                    if stream is not None:
                        return stream
                stream = filter_to_llc_stream(
                    self.trace(benchmark), self.config.hierarchy()
                )
                arrays, meta = _stream_to_arrays(stream)
                self.store.put(benchmark, "llc_stream", digest, arrays, meta)
        self._streams[benchmark] = stream
        return stream

    def _held_stream(self, benchmark: str) -> LLCStream | None:
        """The benchmark's stream if memory or the store already holds it."""
        if benchmark in self._streams:
            return self._streams[benchmark]
        if self.store is not None:
            return self._stored_stream(benchmark, self.config.digest())
        return None

    def _stored_stream(self, benchmark: str, digest: str) -> LLCStream | None:
        cached = self.store.get(benchmark, "llc_stream", digest)
        stream = _stream_from_arrays(*cached) if cached is not None else None
        if stream is not None:
            self._streams[benchmark] = stream
        return stream

    def quota_stream(
        self, benchmark: str, quota: int, hierarchy: HierarchyConfig
    ) -> LLCStream:
        """The benchmark's :func:`~repro.cpu.system.quota_view` filtered by
        ``hierarchy``'s L1/L2, un-offset (see
        :func:`~repro.cpu.system.core_stream`).

        Cut from the benchmark's whole-trace stream when this cache holds
        it (in memory or in the store), the L1/L2 are this config's and
        the quota fits in the trace: a filter's output on a prefix is a
        prefix of its output.  Otherwise the quota view is filtered once
        per ``(benchmark, quota, L1, L2)`` and kept in memory, so a pool
        worker never filters a whole trace to take a prefix of it.
        """
        trace = self.trace(benchmark)
        own = self.config.hierarchy()
        if quota <= len(trace) and (hierarchy.l1, hierarchy.l2) == (own.l1, own.l2):
            stream = self._held_stream(benchmark)
            if stream is not None:
                return _stream_head(stream, trace[:quota])
        key = (benchmark, quota, hierarchy.l1, hierarchy.l2)
        if key not in self._quota_streams:
            self._quota_streams[key] = filter_to_llc_stream(
                quota_view(trace, quota), hierarchy
            )
        return self._quota_streams[key]

    def labelled(self, benchmark: str) -> LabelledTrace:
        """Belady-labelled LLC stream of a benchmark (offline training data)."""
        if benchmark in self._labelled:
            return self._labelled[benchmark]
        digest = self.config.digest()
        if self.store is not None:
            cached = self.store.get(benchmark, "labelled", digest)
            if cached is not None:
                self._labelled[benchmark] = _labelled_from_arrays(*cached)
                return self._labelled[benchmark]
            with self.store.single_flight(benchmark, "labelled", digest) as owner:
                if not owner:
                    cached = self.store.get(benchmark, "labelled", digest)
                    if cached is not None:
                        self._labelled[benchmark] = _labelled_from_arrays(*cached)
                        return self._labelled[benchmark]
                labelled = self._label(benchmark)
                arrays, meta = _labelled_to_arrays(labelled)
                self.store.put(benchmark, "labelled", digest, arrays, meta)
            self._labelled[benchmark] = labelled
            return labelled
        labelled = self._label(benchmark)
        self._labelled[benchmark] = labelled
        return labelled

    def replay(self, benchmark: str, policy_name: str) -> LLCReplay:
        """A fresh ``policy_name`` instance replayed on the benchmark's LLC
        stream, once per cache: Figures 10 and 11 share the run.  Only the
        stats and online accuracy are kept, never the trained instance;
        callers must not mutate the returned stats."""
        key = (benchmark, policy_name)
        if key not in self._replays:
            policy = make_policy(policy_name)
            stats = simulate_llc(
                self.llc_stream(benchmark), policy, self.config.hierarchy()
            )
            self._replays[key] = LLCReplay(
                stats, getattr(policy, "online_accuracy", None)
            )
        return self._replays[key]

    def _label(self, benchmark: str) -> LabelledTrace:
        stream = self.llc_stream(benchmark)
        hierarchy = self.config.hierarchy()
        llc_trace = stream.to_trace()
        # Deep-copy the stream metadata: merging shared references here
        # would alias mutable values (arrays, lists) between the cached
        # stream and every labelled trace derived from it, so mutating
        # one artifact's metadata would silently corrupt the others.
        llc_trace.metadata.update(copy.deepcopy(stream.metadata))
        labelled = label_trace(
            llc_trace, hierarchy.llc.num_sets, hierarchy.llc.associativity
        )
        labelled.metadata.update(copy.deepcopy(stream.metadata))
        return labelled

    def clear(self) -> None:
        """Drop the in-memory tier (the disk store, if any, is kept)."""
        self._streams.clear()
        self._labelled.clear()
        self._replays.clear()
        self._quota_streams.clear()
