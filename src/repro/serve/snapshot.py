"""Shard-state snapshots (``repro.serve.snapshot``).

A restarted shard should not come back amnesiac: Hawkeye/Glider spend
the whole run training per-PC state, and a cold restart would serve
noticeably worse decisions until re-warmed.  Shard workers therefore
pickle their engine (policy + cache) periodically; after a crash the
replacement worker loads the latest snapshot and resumes from there,
losing at most one snapshot interval of training.

Writes are crash-safe (:func:`~repro.traces.io.atomic_replace`: temp
file + fsync + ``os.replace``, the ArtifactStore discipline) and loads
are corruption-tolerant: a torn or unpicklable snapshot is quarantined
to ``<path>.corrupt`` and the worker cold-starts instead of
crash-looping on its own state.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any

from ..traces.io import atomic_replace

__all__ = ["SnapshotStore"]


class SnapshotStore:
    """Atomic pickle snapshots for one shard, newest-wins."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.saves = 0
        self.loads = 0
        self.corrupt = 0

    def save(self, state: Any, meta: dict | None = None) -> None:
        """Atomically persist ``state`` (plus a small metadata header)."""
        payload = {
            "meta": {"saved_unix": time.time(), **(meta or {})},
            "state": state,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_replace(self.path) as tmp, open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.saves += 1

    def load(self) -> tuple[Any, dict] | None:
        """The newest ``(state, meta)``, or None (missing / corrupt)."""
        if not self.path.exists():
            return None
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
            state = payload["state"]
            meta = payload.get("meta", {})
        except Exception:  # noqa: BLE001 — torn write, stale class, bad pickle
            self.corrupt += 1
            self._quarantine()
            return None
        self.loads += 1
        return state, meta

    def _quarantine(self) -> None:
        try:
            os.replace(self.path, self.path.with_name(self.path.name + ".corrupt"))
        except OSError:
            pass  # already gone, or unwritable dir: cold start either way
