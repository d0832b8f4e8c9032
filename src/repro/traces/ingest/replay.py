"""Checkpointed, resumable streaming replay of external traces.

:func:`stream_replay` pipes an adapter's bounded record chunks through
the chunk-feedable L1/L2 filter
(:class:`repro.cache.fastsim.StreamingLLCFilter`) into a chunk-feedable
replay kernel (:func:`repro.cache.fastsim.make_stream_kernel`) — the
full trace is never materialized, so peak memory is O(chunk), not
O(trace).

Checkpointing: every ``checkpoint_every`` parsed records (rounded up to
the next chunk boundary) the engine state — replay kernel (including
policy/OPTgen/ISVM state and RNG buffers), filter tables, ingest
counters and the record cursor — is pickled into the checksummed
:class:`repro.robust.store.ArtifactStore` under a stable key, with
atomic replacement, so a SIGKILL at any instant leaves either the old
or the new checkpoint intact, never a torn one.

Resume (``resume=True``): the latest checkpoint is loaded, the adapter
re-parses (cheaply, without simulating) up to the saved cursor with
journaling suppressed — ranges before the cursor were journaled by the
original run; ranges after it may be journaled again if the original
run got past the checkpoint before dying (standard at-least-once
journaling past the last checkpoint).  Parsing is deterministic, so the
re-parse regenerates ingest stats identical to an uninterrupted run's,
and because chunk boundaries are deterministic for a given
``chunk_records``, the resumed run feeds byte-identical chunks and
produces **bit-exact** cache stats and state digests versus an
uninterrupted run (chaos-tested in ``tests/traces/test_ingest_resume.py``).
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ...cache.fastsim import StreamingLLCFilter, make_stream_kernel
from ...cache.hierarchy import HierarchyConfig
from ...cache.stats import CacheStats
from ...obs import insight as obs_insight
from ...obs import metrics as obs_metrics
from .adapters import IngestStats, open_adapter

__all__ = ["CHECKPOINT_SCHEMA", "StreamReplayResult", "stream_replay"]

#: Bumped whenever a pickled kernel's layout changes, so a checkpoint
#: from an older layout is ignored (the replay restarts) instead of
#: resuming into mismatched state.  v2: the Hawkeye/Glider samplers
#: count OPT hits and store each sampled access's prediction.  v3:
#: SRRIP and BRRIP run on the DRRIP kernel.  v4: the L1/L2 filter's sets
#: and the LRU/MRU kernel's sets are recency-ordered dicts.  v5: MPPPB
#: and Perceptron share one predictor class (reference-engine replays
#: pickle the policy).  v6: Hawkeye and Glider share one policy class
#: (plain sampled contexts, RRPVs under ``rrip.RRPV_KEY``).
CHECKPOINT_SCHEMA = "repro.traces.ingest/checkpoint-v6"

_CKPT_STAGE = "ingest-checkpoint"

#: Buckets for the checkpoint-latency histogram (seconds).
_CKPT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


@dataclass
class StreamReplayResult:
    """Everything a caller (or the CLI) needs from one streamed replay."""

    path: str
    format: str
    policy: str
    stats: CacheStats
    ingest: IngestStats
    records: int
    llc_accesses: int
    l1_hits: int
    l2_hits: int
    checkpoints_written: int
    resumed_from: int | None
    state_digest: str

    def as_dict(self) -> dict:
        return {
            "schema": "repro.traces.ingest/replay-v1",
            "path": self.path,
            "format": self.format,
            "policy": self.policy,
            "records": self.records,
            "llc_accesses": self.llc_accesses,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "demand_hits": self.stats.demand_hits,
            "demand_misses": self.stats.demand_misses,
            "writeback_hits": self.stats.writeback_hits,
            "writeback_misses": self.stats.writeback_misses,
            "evictions": self.stats.evictions,
            "dirty_evictions": self.stats.dirty_evictions,
            "miss_rate": self.stats.demand_miss_rate,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
            "state_digest": self.state_digest,
            "ingest": self.ingest.as_dict(),
        }


def _default_run_key(path, policy, on_error: str) -> str:
    pname = policy if isinstance(policy, str) else type(policy).__name__
    return f"{Path(path).name}--{pname}--{on_error}"


def _state_digest(kernel, filt) -> str:
    return hashlib.sha256(pickle.dumps((kernel, filt))).hexdigest()[:16]


def _save_checkpoint(store, run_key, cursor, kernel, filt, llc_accesses):
    blob = pickle.dumps(
        {
            "cursor": cursor,
            "kernel": kernel,
            "filter": filt,
            "llc_accesses": llc_accesses,
        }
    )
    store.put(
        run_key,
        _CKPT_STAGE,
        "latest",
        {"state": np.frombuffer(blob, dtype=np.uint8)},
        metadata={"schema": CHECKPOINT_SCHEMA, "cursor": cursor},
    )


def _decode_checkpoint(arrays, metadata):
    # Checked before unpickling: an older layout may name classes that
    # no longer exist.
    if metadata.get("schema") != CHECKPOINT_SCHEMA:
        return None
    return pickle.loads(arrays["state"].tobytes())


def stream_replay(
    path,
    policy,
    *,
    format: str = "auto",
    config=None,
    engine: str = "auto",
    on_error: str = "strict",
    chunk_records: int = 1 << 16,
    checkpoint_every: int = 0,
    store=None,
    run_key: str | None = None,
    resume: bool = False,
    journal=None,
    faults=None,
    max_address_bits: int = 52,
) -> StreamReplayResult:
    """Replay an external trace file against a policy, streaming.

    ``checkpoint_every`` > 0 enables checkpointing (requires ``store``,
    a :class:`repro.robust.store.ArtifactStore`); ``resume=True`` picks
    up from the latest checkpoint under ``run_key`` (defaults to a key
    derived from filename, policy and error mode — override when
    replaying the same file under several configurations).  Resume
    requires the same ``chunk_records`` as the original run; a cursor
    that does not land on a chunk boundary raises ``ValueError``.
    """
    if checkpoint_every and store is None:
        raise ValueError("checkpoint_every requires an ArtifactStore (store=)")
    if resume and store is None:
        raise ValueError("resume=True requires an ArtifactStore (store=)")
    run_key = run_key or _default_run_key(path, policy, on_error)
    pname = policy if isinstance(policy, str) else getattr(
        policy, "name", type(policy).__name__
    )

    adapter = open_adapter(
        path,
        format=format,
        on_error=on_error,
        chunk_records=chunk_records,
        journal=journal,
        faults=faults,
        max_address_bits=max_address_bits,
    )

    cursor = 0
    resumed_from = None
    llc_accesses = 0
    kernel = filt = None
    if resume:
        state = store.get(run_key, _CKPT_STAGE, "latest", decode=_decode_checkpoint)
        if state is not None:
            cursor = state["cursor"]
            resumed_from = cursor
            kernel = state["kernel"]
            filt = state["filter"]
            llc_accesses = state["llc_accesses"]
    if kernel is None:
        kernel = make_stream_kernel(policy, config, engine=engine)
        filt = StreamingLLCFilter(
            config if isinstance(config, HierarchyConfig) else None,
            name=Path(path).name,
        )

    # Re-parsing the skipped prefix must not re-journal ranges the
    # original run already journaled; the ingest *counters* are left to
    # accumulate over the whole re-parse — parsing is deterministic, so
    # they end up identical to an uninterrupted run's.
    saved_journal = adapter.journal
    skipping = cursor > 0
    if skipping:
        adapter.journal = None

    records = 0
    last_checkpoint = cursor
    checkpoints_written = 0

    for chunk in adapter.chunks():
        records = chunk.start_record + len(chunk)
        if skipping:
            if records < cursor:
                continue
            if records > cursor:
                raise ValueError(
                    f"checkpoint cursor {cursor} does not align with chunk "
                    f"boundary {chunk.start_record}..{records}; resume with "
                    f"the original chunk_records"
                )
            skipping = False
            adapter.journal = saved_journal
            continue

        llc_chunk = filt.feed(chunk.pcs, chunk.addresses, chunk.is_write)
        if len(llc_chunk):
            kernel.feed(llc_chunk)
            llc_accesses += len(llc_chunk)

        if checkpoint_every and records - last_checkpoint >= checkpoint_every:
            t0 = time.perf_counter()
            _save_checkpoint(store, run_key, records, kernel, filt, llc_accesses)
            elapsed = time.perf_counter() - t0
            last_checkpoint = records
            checkpoints_written += 1
            if obs_metrics.ENABLED:
                obs_metrics.histogram(
                    "ingest.checkpoint.seconds", buckets=_CKPT_BUCKETS
                ).observe(elapsed)
                obs_metrics.counter("ingest.checkpoints").inc()

    if skipping:
        adapter.journal = saved_journal
        raise ValueError(
            f"checkpoint cursor {cursor} is beyond the end of {path} "
            f"({records} records parsed); wrong run_key or input changed"
        )

    stats = kernel.finish()
    # Decision telemetry: the chunk-feedable kernels report into an
    # installed insight recorder access-by-access; after the stream is
    # exhausted, mirror the recorder's quality gauges into the metrics
    # registry so ingest snapshots carry them.
    recorder = obs_insight.get_recorder()
    if recorder is not None:
        recorder.publish()
    return StreamReplayResult(
        path=str(path),
        format=adapter.format,
        policy=str(pname),
        stats=stats,
        ingest=adapter.stats,
        records=records,
        llc_accesses=llc_accesses,
        l1_hits=filt.l1_hits,
        l2_hits=filt.l2_hits,
        checkpoints_written=checkpoints_written,
        resumed_from=resumed_from,
        state_digest=_state_digest(kernel, filt),
    )
