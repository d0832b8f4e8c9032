"""Crash-safe, disk-backed artifact store for pipeline intermediates.

Layout: one ``.npz`` payload per artifact plus a ``.json`` sidecar
holding the payload's SHA-256.  Writes go temp-then-rename (via
:func:`repro.traces.io.atomic_replace`), payload first and sidecar
last, so a run killed mid-write leaves either nothing visible or a
payload without a sidecar — both of which read as a miss, never as a
corrupt artifact silently loaded.  A payload whose checksum no longer
matches its sidecar (torn disk, truncation, bit rot) is moved into a
``quarantine/`` subdirectory and reported as a miss so the caller
regenerates it.

Keys are ``(benchmark, stage, digest)`` where ``digest`` fingerprints
the producing configuration (see ``ExperimentConfig.digest()``).
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..traces.io import atomic_replace, atomic_write_text

__all__ = ["ArtifactStore", "StoreStats"]

_KEY_SAFE = re.compile(r"[^A-Za-z0-9_.+-]")


def _sanitize(part: str) -> str:
    return _KEY_SAFE.sub("-", part)


def _checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _encode_metadata(metadata: dict) -> str:
    """JSON-encode a metadata dict, round-tripping ndarray values."""

    def default(value):
        if isinstance(value, np.ndarray):
            return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
        if isinstance(value, np.generic):
            return value.item()
        raise TypeError(f"unserialisable metadata value of type {type(value)!r}")

    return json.dumps(metadata, default=default)


def _decode_metadata(text: str) -> dict:
    def hook(obj):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return obj

    return json.loads(text, object_hook=hook)


@dataclass
class StoreStats:
    """Hit/miss/quarantine telemetry for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    quarantined: int = 0
    #: single-flight: locks acquired as the computing owner / waits spent
    #: behind another process's in-flight computation.
    flights_led: int = 0
    flights_followed: int = 0


@dataclass
class _Entry:
    payload: Path
    sidecar: Path


class ArtifactStore:
    """Checksummed key-value store of NumPy-array bundles on disk."""

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------------
    def _entry(self, benchmark: str, stage: str, digest: str) -> _Entry:
        stem = f"{_sanitize(benchmark)}__{_sanitize(stage)}__{_sanitize(digest)}"
        return _Entry(
            payload=self.root / f"{stem}.npz", sidecar=self.root / f"{stem}.json"
        )

    # -- write ---------------------------------------------------------------
    def put(
        self,
        benchmark: str,
        stage: str,
        digest: str,
        arrays: dict[str, np.ndarray],
        metadata: dict | None = None,
    ) -> Path:
        """Atomically persist an artifact; returns the payload path."""
        entry = self._entry(benchmark, stage, digest)
        buffer = _io.BytesIO()
        payload = dict(arrays)
        payload["__metadata__"] = np.array(_encode_metadata(metadata or {}))
        np.savez_compressed(buffer, **payload)
        with atomic_replace(entry.payload) as tmp:
            tmp.write_bytes(buffer.getvalue())
        atomic_write_text(
            entry.sidecar,
            json.dumps(
                {
                    "benchmark": benchmark,
                    "stage": stage,
                    "digest": digest,
                    "sha256": _checksum(entry.payload),
                }
            ),
        )
        self.stats.writes += 1
        return entry.payload

    # -- read ----------------------------------------------------------------
    def get(self, benchmark: str, stage: str, digest: str, decode=None):
        """Load an artifact's ``(arrays, metadata)``, or None on
        miss/corruption (after quarantine).  With ``decode``, return
        ``decode(arrays, metadata)``: a None from it rejects an intact
        entry the caller cannot use (an older layout) as a miss."""
        entry = self._entry(benchmark, stage, digest)
        if not entry.payload.exists():
            self.stats.misses += 1
            return None
        if not entry.sidecar.exists():
            # Crash between payload and sidecar: incomplete, regenerate.
            self._quarantine(entry, reason="missing sidecar")
            self.stats.misses += 1
            return None
        try:
            sidecar = json.loads(entry.sidecar.read_text())
            expected = sidecar["sha256"]
        except (json.JSONDecodeError, KeyError, OSError):
            self._quarantine(entry, reason="unreadable sidecar")
            self.stats.misses += 1
            return None
        if _checksum(entry.payload) != expected:
            self._quarantine(entry, reason="checksum mismatch")
            self.stats.misses += 1
            return None
        try:
            with np.load(entry.payload, allow_pickle=False) as data:
                arrays = {k: data[k] for k in data.files if k != "__metadata__"}
                metadata = _decode_metadata(str(data["__metadata__"]))
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            self._quarantine(entry, reason="undecodable payload")
            self.stats.misses += 1
            return None
        value = (arrays, metadata) if decode is None else decode(arrays, metadata)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def has(self, benchmark: str, stage: str, digest: str) -> bool:
        entry = self._entry(benchmark, stage, digest)
        return entry.payload.exists() and entry.sidecar.exists()

    # -- single-flight -------------------------------------------------------
    def _lock_path(self, benchmark: str, stage: str, digest: str) -> Path:
        entry = self._entry(benchmark, stage, digest)
        return entry.payload.parent / (entry.payload.stem + ".lock")

    @staticmethod
    def _lock_is_stale(lock: Path, stale_after: float) -> bool:
        """A lock whose owner died, or that outlived ``stale_after``."""
        try:
            content = lock.read_text().split()
            pid = int(content[0])
            age = time.time() - lock.stat().st_mtime
        except (OSError, ValueError, IndexError):
            # Vanished (owner finished) or unreadable: treat as released.
            return True
        if age > stale_after:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            pass  # alive, owned by someone else
        return False

    @contextmanager
    def single_flight(
        self,
        benchmark: str,
        stage: str,
        digest: str,
        timeout: float = 60.0,
        poll_interval: float = 0.05,
        stale_after: float = 300.0,
    ) -> Iterator[bool]:
        """Best-effort cross-process dedup of one artifact computation.

        Yields True when this process holds the fill lock (caller
        computes and :meth:`put`s while inside the ``with`` block), and
        False after waiting for another process's in-flight computation
        — the caller then re-:meth:`get`s, and *recomputes anyway* on a
        miss.  That fallback makes the guard best-effort: a stale lock
        (dead owner PID, or older than ``stale_after`` seconds) or a
        wait past ``timeout`` costs a duplicate computation, never a
        deadlock or a lost result.  Correctness under duplicates is
        already guaranteed by the store's atomic same-content writes;
        this lock only removes the wasted work.
        """
        lock = self._lock_path(benchmark, stage, digest)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            fd = None
        if fd is not None:
            self.stats.flights_led += 1
            try:
                os.write(fd, f"{os.getpid()} {time.time():.3f}\n".encode())
                os.close(fd)
                yield True
            finally:
                lock.unlink(missing_ok=True)
            return
        self.stats.flights_followed += 1
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.has(benchmark, stage, digest):
                break
            if self._lock_is_stale(lock, stale_after):
                break
            time.sleep(poll_interval)
        yield False

    # -- maintenance ---------------------------------------------------------
    def _quarantine(self, entry: _Entry, reason: str) -> None:
        quarantine = self.root / self.QUARANTINE_DIR
        quarantine.mkdir(exist_ok=True)
        for path in (entry.payload, entry.sidecar):
            if path.exists():
                path.replace(quarantine / path.name)
        (quarantine / f"{entry.payload.stem}.reason").write_text(reason + "\n")
        self.stats.quarantined += 1

    def clear(self) -> int:
        """Delete every stored artifact (quarantine included); returns count."""
        removed = 0
        for path in self.root.rglob("*"):
            if path.is_file():
                path.unlink()
                removed += 1
        return removed
