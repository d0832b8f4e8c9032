"""Every snapshot/export writer goes through ``traces.io.atomic_replace``:
a write that fails at the final rename leaves the old file as it was
and no temp file behind."""

import json
import os

import pytest

from repro.obs.metrics import save_snapshot
from repro.obs.trace import export_chrome
from repro.serve.snapshot import SnapshotStore


def _chrome(path, tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps({"name": "x", "ph": "X", "ts": 1, "dur": 1}) + "\n")
    export_chrome(events, path)


WRITERS = {
    "metrics-json": ("m.json", lambda path, _: save_snapshot(path, {"counters": {}})),
    "metrics-prom": ("m.prom", lambda path, _: save_snapshot(path, {"counters": {}})),
    "chrome": ("t.chrome.json", _chrome),
    "serve-snapshot": ("shard.pkl", lambda path, _: SnapshotStore(path).save({"x": 1})),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_rename_leaves_no_temp_file(name, tmp_path, monkeypatch):
    filename, write = WRITERS[name]
    out = tmp_path / "out"
    out.mkdir()
    target = out / filename
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write(target, tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [filename]
    assert target.read_bytes() == b"old"
