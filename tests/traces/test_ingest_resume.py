"""Checkpointed resumable replay: bit-exactness under SIGKILL chaos.

A worker process replays the checked-in ChampSim fixture with
checkpointing and SIGKILLs *itself* immediately after the Nth
checkpoint lands (a genuine uncatchable kill — no cleanup handlers
run).  The parent then resumes from the store and asserts the final
miss counts and the engine-state digest are bit-identical to an
uninterrupted run.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cache import fastsim
from repro.core import glider
from repro.optgen.sampler import _SampledLineInfo
from repro.policies import mpppb
from repro.robust.store import ArtifactStore
from repro.traces.ingest import stream_replay

REPO = Path(__file__).resolve().parents[2]
FIXTURE = REPO / "tests" / "fixtures" / "ingest" / "clean.champsim.gz"

CHUNK = 200
EVERY = 500  # checkpoints land at records 600, 1200, 1800, 2400, 3000

WORKER = textwrap.dedent(
    """
    import os, signal, sys
    from repro.robust.store import ArtifactStore
    from repro.traces.ingest import stream_replay

    path, policy, store_dir, kill_after = sys.argv[1:]

    class KillingStore(ArtifactStore):
        puts = 0
        def put(self, *args, **kwargs):
            out = super().put(*args, **kwargs)
            KillingStore.puts += 1
            if KillingStore.puts == int(kill_after):
                os.kill(os.getpid(), signal.SIGKILL)
            return out

    stream_replay(
        path, policy, chunk_records={chunk}, checkpoint_every={every},
        store=KillingStore(store_dir),
    )
    """
).format(chunk=CHUNK, every=EVERY)


def _run_worker(policy, store_dir, kill_after):
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(FIXTURE), policy,
         str(store_dir), str(kill_after)],
        # Keep the caller's environment (PYTHONDONTWRITEBYTECODE included):
        # only the import path is the worker's own.
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        timeout=300,
    )
    return proc


@pytest.mark.parametrize(
    "policy, kill_after",
    [("lru", 1), ("glider", 1), ("glider", 3)],
)
def test_sigkill_then_resume_is_bit_exact(tmp_path, policy, kill_after):
    full = stream_replay(
        FIXTURE, policy, chunk_records=CHUNK, checkpoint_every=EVERY,
        store=ArtifactStore(tmp_path / "full"),
    )

    chaos_dir = tmp_path / "chaos"
    proc = _run_worker(policy, chaos_dir, kill_after)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    resumed = stream_replay(
        FIXTURE, policy, chunk_records=CHUNK, checkpoint_every=EVERY,
        store=ArtifactStore(chaos_dir), resume=True,
    )
    assert resumed.resumed_from == kill_after * 600
    assert resumed.state_digest == full.state_digest
    assert resumed.stats == full.stats
    assert resumed.ingest.as_dict() == full.ingest.as_dict()
    assert resumed.records == full.records == 3000
    assert resumed.llc_accesses == full.llc_accesses


def test_resume_without_checkpoint_runs_fresh(tmp_path):
    result = stream_replay(
        FIXTURE, "lru", chunk_records=CHUNK,
        store=ArtifactStore(tmp_path / "empty"), resume=True,
    )
    assert result.resumed_from is None
    assert result.records == 3000


def test_resume_with_wrong_chunking_is_rejected(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    # checkpoint_every=700 -> last checkpoint at record 2400 (mid-trace);
    # a cursor at EOF would align with any chunking's final boundary.
    stream_replay(
        FIXTURE, "lru", chunk_records=CHUNK, checkpoint_every=700, store=store
    )
    with pytest.raises(ValueError, match="does not align"):
        stream_replay(
            FIXTURE, "lru", chunk_records=CHUNK - 7, store=store, resume=True
        )


def test_checkpoint_requires_store():
    with pytest.raises(ValueError, match="requires an ArtifactStore"):
        stream_replay(FIXTURE, "lru", checkpoint_every=100)
    with pytest.raises(ValueError, match="requires an ArtifactStore"):
        stream_replay(FIXTURE, "lru", resume=True)


def test_resume_past_end_detects_input_change(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    stream_replay(
        FIXTURE, "lru", chunk_records=CHUNK, checkpoint_every=EVERY, store=store
    )
    # Same run key, much shorter file: the cursor lies beyond its end.
    short = tmp_path / "short.champsim.gz"
    import gzip, io

    payload = gzip.decompress(FIXTURE.read_bytes())[: 24 * 400]
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(payload)
    short.write_bytes(buf.getvalue())
    with pytest.raises(ValueError, match="beyond the end"):
        stream_replay(
            short, "lru", chunk_records=CHUNK, store=store, resume=True,
            run_key="clean.champsim.gz--lru--strict",
        )


def test_stale_schema_checkpoint_reads_as_none(tmp_path, monkeypatch):
    """A checkpoint written under an older schema, whose pickle names a
    kernel class that no longer exists, must read as "no checkpoint":
    the schema is checked before the blob is unpickled."""

    class _RetiredKernel:
        pass

    _RetiredKernel.__module__ = fastsim.__name__
    _RetiredKernel.__qualname__ = _RetiredKernel.__name__ = "_RetiredKernel"
    monkeypatch.setattr(fastsim, "_RetiredKernel", _RetiredKernel, raising=False)
    old_schema = "repro.traces.ingest/checkpoint-v2"
    blob = pickle.dumps(
        {"schema": old_schema, "cursor": 600, "kernel": _RetiredKernel(),
         "filter": None, "llc_accesses": 0}
    )
    monkeypatch.undo()
    assert not hasattr(fastsim, "_RetiredKernel")

    store = ArtifactStore(tmp_path / "store")
    store.put(
        "clean.champsim.gz--srrip--strict",
        "ingest-checkpoint",
        "latest",
        {"state": np.frombuffer(blob, dtype=np.uint8)},
        metadata={"schema": old_schema, "cursor": 600},
    )
    resumed = stream_replay(
        FIXTURE, "srrip", chunk_records=CHUNK, checkpoint_every=700,
        store=store, resume=True,
    )
    full = stream_replay(
        FIXTURE, "srrip", chunk_records=CHUNK, checkpoint_every=700,
        store=ArtifactStore(tmp_path / "full"),
    )
    assert resumed.resumed_from is None
    assert resumed.stats == full.stats
    assert resumed.state_digest == full.state_digest
    assert resumed.records == full.records == 3000


def _v3_layout_blob(monkeypatch):
    """The filter's per-way tag, touch and fill tables; the LRU kernel's
    touch table and counter."""
    config = None
    filt = fastsim.StreamingLLCFilter(config, name=FIXTURE.name)
    kernel = fastsim.make_stream_kernel("lru", config)
    l1, l2 = filt.config.l1, filt.config.l2
    filt.__dict__ = {
        "config": filt.config, "name": filt.name, "shift": filt.shift,
        "l1_tags": [[-1] * l1.associativity for _ in range(l1.num_sets)],
        "l1_touch": [[0] * l1.associativity for _ in range(l1.num_sets)],
        "l1_fill": [0] * l1.num_sets,
        "l2_tags": [[-1] * l2.associativity for _ in range(l2.num_sets)],
        "l2_touch": [[0] * l2.associativity for _ in range(l2.num_sets)],
        "l2_dirty": [[False] * l2.associativity for _ in range(l2.num_sets)],
        "l2_pc": [[0] * l2.associativity for _ in range(l2.num_sets)],
        "l2_core": [[0] * l2.associativity for _ in range(l2.num_sets)],
        "l2_fill": [0] * l2.num_sets,
        "c1": 0, "c2": 0, "l1_hits": 0, "l2_hits": 0, "accesses_seen": 600,
    }
    llc = kernel.config
    kernel.tag_t = [[-1] * llc.associativity for _ in range(llc.num_sets)]
    kernel.touch_t = [[0] * llc.associativity for _ in range(llc.num_sets)]
    kernel.fill_count = [0] * llc.num_sets
    kernel.counter = 0
    return "lru", pickle.dumps(
        {"cursor": 600, "kernel": kernel, "filter": filt, "llc_accesses": 0}
    )


def _v4_layout_blob(monkeypatch):
    """A reference-engine MPPPB replay whose policy holds the retired
    ``MultiperspectivePredictor`` (MPPPB now runs on the shared
    hashed-perceptron predictor)."""

    class MultiperspectivePredictor:
        pass

    MultiperspectivePredictor.__module__ = mpppb.__name__
    MultiperspectivePredictor.__qualname__ = "MultiperspectivePredictor"
    monkeypatch.setattr(
        mpppb, "MultiperspectivePredictor", MultiperspectivePredictor, raising=False
    )
    kernel = fastsim.make_stream_kernel("mpppb", None, engine="reference")
    kernel.llc.policy.predictor = MultiperspectivePredictor()
    blob = pickle.dumps(
        {"cursor": 600, "kernel": kernel,
         "filter": fastsim.StreamingLLCFilter(None, name=FIXTURE.name),
         "llc_accesses": 0}
    )
    monkeypatch.undo()
    return "mpppb", blob


def _v5_layout_blob(monkeypatch):
    """A reference-engine Glider replay whose sampler holds the retired
    ``_SampledContext`` (Hawkeye and Glider now store a plain
    ``(context, predicted_friendly)`` pair) and whose lines keep their
    RRPVs under the retired ``glider_rrpv`` key."""

    class _SampledContext:
        pass

    _SampledContext.__module__ = glider.__name__
    _SampledContext.__qualname__ = "_SampledContext"
    monkeypatch.setattr(glider, "_SampledContext", _SampledContext, raising=False)
    kernel = fastsim.make_stream_kernel("glider", None, engine="reference")
    sampler = kernel.llc.policy.sampler
    sampled_set = min(sampler.sampled_sets)
    sampler._lines[sampled_set][sampled_set] = _SampledLineInfo(
        pc=0, context=_SampledContext(), time=0
    )
    kernel.llc.sets[sampled_set][0].policy_state = {"glider_rrpv": 7}
    blob = pickle.dumps(
        {"cursor": 600, "kernel": kernel,
         "filter": fastsim.StreamingLLCFilter(None, name=FIXTURE.name),
         "llc_accesses": 0}
    )
    monkeypatch.undo()
    return "glider", blob


def _assert_old_layout_reads_as_none(tmp_path, monkeypatch, old_schema, layout):
    """A checkpoint pickled with an older layout must read as "no
    checkpoint", not resume into objects whose loops (or whose
    unpickling) would fail with an ``AttributeError``."""
    policy, blob = layout(monkeypatch)
    store = ArtifactStore(tmp_path / "store")
    store.put(
        f"clean.champsim.gz--{policy}--strict",
        "ingest-checkpoint",
        "latest",
        {"state": np.frombuffer(blob, dtype=np.uint8)},
        metadata={"schema": old_schema, "cursor": 600},
    )
    engine = "auto" if policy == "lru" else "reference"
    resumed = stream_replay(
        FIXTURE, policy, engine=engine, chunk_records=CHUNK, store=store,
        resume=True,
    )
    full = stream_replay(FIXTURE, policy, engine=engine, chunk_records=CHUNK)
    assert resumed.resumed_from is None
    assert resumed.stats == full.stats
    assert resumed.state_digest == full.state_digest
    assert resumed.records == full.records == 3000


def test_v3_layout_checkpoint_reads_as_none(tmp_path, monkeypatch):
    _assert_old_layout_reads_as_none(
        tmp_path, monkeypatch, "repro.traces.ingest/checkpoint-v3", _v3_layout_blob
    )


def test_v4_layout_checkpoint_reads_as_none(tmp_path, monkeypatch):
    _assert_old_layout_reads_as_none(
        tmp_path, monkeypatch, "repro.traces.ingest/checkpoint-v4", _v4_layout_blob
    )


def test_v5_layout_checkpoint_reads_as_none(tmp_path, monkeypatch):
    _assert_old_layout_reads_as_none(
        tmp_path, monkeypatch, "repro.traces.ingest/checkpoint-v5", _v5_layout_blob
    )
