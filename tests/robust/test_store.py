"""Crash-safe artifact store: atomicity, checksums, quarantine."""

import json

import numpy as np
import pytest

from repro.robust.store import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def _arrays():
    return {"pcs": np.arange(10, dtype=np.uint64), "labels": np.ones(10, dtype=bool)}


def test_put_get_round_trip(store):
    store.put("mcf", "llc_stream", "abc", _arrays(), {"note": "hello", "k": 3})
    loaded = store.get("mcf", "llc_stream", "abc")
    assert loaded is not None
    arrays, metadata = loaded
    assert np.array_equal(arrays["pcs"], np.arange(10))
    assert metadata == {"note": "hello", "k": 3}
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_metadata_round_trips_ndarrays(store):
    meta = {"vocab": np.array([1, 2, 3], dtype=np.uint64), "nested": {"x": [1, 2]}}
    store.put("b", "s", "d", _arrays(), meta)
    _, loaded = store.get("b", "s", "d")
    assert isinstance(loaded["vocab"], np.ndarray)
    assert np.array_equal(loaded["vocab"], meta["vocab"])
    assert loaded["nested"] == {"x": [1, 2]}


def test_miss_on_absent_key(store):
    assert store.get("nope", "llc_stream", "abc") is None
    assert store.stats.misses == 1


def test_corrupted_payload_is_quarantined_not_loaded(store):
    path = store.put("mcf", "labelled", "abc", _arrays(), {})
    # Flip bytes in the middle of the payload (torn write / bit rot).
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    assert store.get("mcf", "labelled", "abc") is None
    assert store.stats.quarantined == 1
    quarantine = store.root / ArtifactStore.QUARANTINE_DIR
    assert any(quarantine.glob("*.npz"))
    # The entry is gone from the main store: a rerun recomputes it.
    assert not path.exists()


def test_truncated_payload_is_quarantined(store):
    path = store.put("mcf", "labelled", "abc", _arrays(), {})
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert store.get("mcf", "labelled", "abc") is None
    assert store.stats.quarantined == 1


def test_kill_between_payload_and_sidecar_reads_as_miss(store):
    """A crash after the payload rename but before the sidecar lands."""
    path = store.put("mcf", "llc_stream", "abc", _arrays(), {})
    sidecar = path.with_suffix(".json")
    sidecar.unlink()
    assert store.get("mcf", "llc_stream", "abc") is None
    assert not path.exists()  # quarantined, never half-trusted


def test_kill_mid_write_leaves_no_visible_entry(store, tmp_path):
    """A temp file abandoned mid-write must not be loadable as an entry."""
    # Simulate the crash: a stale temp file exists but no rename happened.
    stale = store.root / ".mcf__llc_stream__abc.npz.deadbeef.tmp"
    stale.write_bytes(b"partial garbage")
    assert store.get("mcf", "llc_stream", "abc") is None
    # And a later successful write replaces atomically despite the debris.
    store.put("mcf", "llc_stream", "abc", _arrays(), {})
    assert store.get("mcf", "llc_stream", "abc") is not None


def test_unreadable_sidecar_is_quarantined(store):
    path = store.put("b", "s", "d", _arrays(), {})
    path.with_suffix(".json").write_text("{ not json")
    assert store.get("b", "s", "d") is None
    assert store.stats.quarantined == 1


def test_checksum_recorded_in_sidecar(store):
    path = store.put("b", "s", "d", _arrays(), {})
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar["benchmark"] == "b"
    assert len(sidecar["sha256"]) == 64


def test_keys_with_unsafe_characters(store):
    store.put("603.bwaves/x", "llc stream", "a:b", _arrays(), {})
    assert store.get("603.bwaves/x", "llc stream", "a:b") is not None


def test_clear_removes_everything(store):
    store.put("a", "s", "d", _arrays(), {})
    store.put("b", "s", "d", _arrays(), {})
    assert store.clear() >= 4  # 2 payloads + 2 sidecars
    assert store.get("a", "s", "d") is None


def test_entry_the_decoder_rejects_counts_as_a_miss(store):
    store.put("mcf", "llc_stream", "abc", _arrays(), {"layout": 1})
    assert store.get("mcf", "llc_stream", "abc", decode=lambda a, m: None) is None
    assert (store.stats.hits, store.stats.misses) == (0, 1)
    decoded = store.get("mcf", "llc_stream", "abc", decode=lambda a, m: m["layout"])
    assert decoded == 1
    assert (store.stats.hits, store.stats.misses) == (1, 1)
