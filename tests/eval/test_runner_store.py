"""Disk-backed ArtifactCache: resume without recompute, no aliasing."""

import pickle
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import repro.eval.runner as runner_module
from repro.eval.runner import QUICK, ArtifactCache, ExperimentConfig
from repro.robust.store import ArtifactStore

CFG = QUICK.with_length(6_000)


def test_config_digest_is_stable_and_sensitive():
    assert CFG.digest() == CFG.digest()
    assert CFG.digest() != CFG.with_length(7_000).digest()
    assert QUICK.digest() != ExperimentConfig().digest()


def test_store_round_trips_stream_and_labels(tmp_path):
    first = ArtifactCache(CFG, store=tmp_path / "store")
    stream = first.llc_stream("mcf")
    labelled = first.labelled("mcf")

    second = ArtifactCache(CFG, store=tmp_path / "store")
    stream2 = second.llc_stream("mcf")
    labelled2 = second.labelled("mcf")
    assert np.array_equal(stream.pcs, stream2.pcs)
    assert np.array_equal(stream.kinds, stream2.kinds)
    assert stream.l1_hits == stream2.l1_hits
    assert np.array_equal(stream.levels, stream2.levels)
    assert np.array_equal(labelled.labels, labelled2.labels)
    assert np.array_equal(labelled.vocabulary, labelled2.vocabulary)
    assert second.store.stats.hits == 2


def test_second_run_does_not_recompute(tmp_path, monkeypatch):
    store = tmp_path / "store"
    ArtifactCache(CFG, store=store).labelled("mcf")

    def explode(*args, **kwargs):
        raise AssertionError("llc filtering ran despite a warm disk store")

    monkeypatch.setattr(runner_module, "filter_to_llc_stream", explode)
    monkeypatch.setattr(runner_module, "label_trace", explode)
    resumed = ArtifactCache(CFG, store=store)
    assert len(resumed.llc_stream("mcf")) > 0
    assert len(resumed.labelled("mcf")) > 0


def test_stream_entry_without_levels_regenerates(tmp_path):
    """An entry stored before streams carried service levels is a miss:
    the stream is refiltered (levels included) and the entry rewritten."""
    store = ArtifactStore(tmp_path / "store")
    original = ArtifactCache(CFG).llc_stream("mcf")
    arrays, meta = runner_module._encode(original)
    del arrays["levels"]
    store.put("mcf", "llc_stream", CFG.digest(), arrays, meta)

    regenerated = ArtifactCache(CFG, store=store).llc_stream("mcf")
    assert np.array_equal(regenerated.levels, original.levels)
    assert "levels" in store.get("mcf", "llc_stream", CFG.digest())[0]


def test_labelled_entry_missing_a_field_regenerates(tmp_path):
    """A labelled entry that lacks a field is a miss too: the stream is
    relabelled and the entry rewritten, rather than the run crashing."""
    store = ArtifactStore(tmp_path / "store")
    original = ArtifactCache(CFG).labelled("mcf")
    arrays = {"pcs": original.pcs, "labels": original.labels}
    meta = {"name": original.name, "metadata": original.metadata}
    store.put("mcf", "labelled", CFG.digest(), arrays, meta)

    regenerated = ArtifactCache(CFG, store=store).labelled("mcf")
    assert np.array_equal(regenerated.vocabulary, original.vocabulary)
    assert np.array_equal(regenerated.labels, original.labels)
    assert "vocabulary" in store.get("mcf", "labelled", CFG.digest())[0]


@pytest.mark.parametrize("owner_stored", [True, False], ids=["stored", "missing"])
@pytest.mark.parametrize(
    "stage, compute",
    [("llc_stream", "filter_to_llc_stream"), ("labelled", "label_trace")],
)
def test_single_flight_follower_rereads_then_computes_once(
    tmp_path, monkeypatch, stage, compute, owner_stored
):
    """A process that waited behind another's fill lock takes the entry
    the owner stored without computing anything; when the owner left
    nothing, it computes the artifact once and stores it itself."""
    expected = getattr(ArtifactCache(CFG), stage)("mcf")
    store = ArtifactStore(tmp_path / "store")

    @contextmanager
    def follow(benchmark, flight_stage, digest):
        if owner_stored:
            store.put(benchmark, stage, digest, *runner_module._encode(expected))
        yield False

    calls = Counter()

    def counting(name):
        inner = getattr(runner_module, name)

        def run(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return run

    monkeypatch.setattr(store, "single_flight", follow)
    for name in ("filter_to_llc_stream", "label_trace"):
        monkeypatch.setattr(runner_module, name, counting(name))
    artifact = getattr(ArtifactCache(CFG, store=store), stage)("mcf")

    assert np.array_equal(artifact.pcs, expected.pcs)
    if owner_stored:
        assert not calls and store.stats.writes == 1  # the owner's put only
    else:
        assert calls[compute] == 1
        assert store.has("mcf", stage, CFG.digest())


def test_corrupt_store_entry_regenerates_transparently(tmp_path):
    store_dir = tmp_path / "store"
    first = ArtifactCache(CFG, store=store_dir)
    original = first.llc_stream("mcf")
    # Corrupt every payload on disk.
    for payload in store_dir.glob("*.npz"):
        payload.write_bytes(b"garbage " * 16)
    second = ArtifactCache(CFG, store=store_dir)
    regenerated = second.llc_stream("mcf")
    assert np.array_equal(original.pcs, regenerated.pcs)
    assert second.store.stats.quarantined >= 1


def test_different_config_does_not_reuse_artifacts(tmp_path):
    store = tmp_path / "store"
    a = ArtifactCache(CFG, store=store)
    a.llc_stream("mcf")
    b = ArtifactCache(CFG.with_length(5_000), store=store)
    b.llc_stream("mcf")
    assert b.store.stats.hits == 0  # digest differs: no cross-config reuse


def test_labelled_metadata_is_not_aliased():
    cache = ArtifactCache(CFG)
    stream = cache.llc_stream("mcf")
    stream.metadata["shared_list"] = [1, 2, 3]
    labelled = cache.labelled("mcf")
    assert labelled.metadata["shared_list"] == [1, 2, 3]
    # Mutating the labelled artifact's metadata must not leak back into
    # the cached stream (the aliasing bug this test pins down).
    labelled.metadata["shared_list"].append(99)
    assert stream.metadata["shared_list"] == [1, 2, 3]


def test_store_accepts_prebuilt_instance(tmp_path):
    store = ArtifactStore(tmp_path / "s")
    cache = ArtifactCache(CFG, store=store)
    assert cache.store is store


def test_cache_clear_keeps_disk_tier(tmp_path):
    cache = ArtifactCache(CFG, store=tmp_path / "store")
    cache.llc_stream("mcf")
    cache.clear()
    assert cache.store.has("mcf", "llc_stream", CFG.digest())


def test_pickle_ships_config_and_store_root_only(tmp_path):
    cache = ArtifactCache(CFG, store=tmp_path / "store")
    stream = cache.llc_stream("mcf")
    cache.labelled("mcf")
    cache.replay("mcf", "lru")
    cache.quota_stream("mcf", CFG.trace_length + 1, CFG.hierarchy())
    stages = {key[0] for key in cache._memo}
    assert stages == {"llc_stream", "labelled", "replay", "quota_stream"}
    payload = pickle.dumps(cache)
    # Pool tasks carry the cache; every in-memory artifact must stay behind.
    assert len(payload) < 1024
    clone = pickle.loads(payload)
    assert clone.config == CFG
    assert clone.store.root == cache.store.root
    assert not clone._memo
    assert np.array_equal(clone.llc_stream("mcf").pcs, stream.pcs)
    assert clone.store.stats.hits == 1  # read back from disk, not recomputed


def test_pickle_without_store_stays_store_less():
    clone = pickle.loads(pickle.dumps(ArtifactCache(CFG)))
    assert clone.store is None and clone.config == CFG
