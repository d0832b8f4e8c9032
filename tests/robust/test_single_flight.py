"""Cross-process single-flight guard on the artifact store.

The guard is best-effort by design: it must never deadlock or lose a
result — a broken lock only ever costs a duplicate computation.  The
two-process test exercises the real contention path (two workers racing
for the same artifact key through a ProcessPoolExecutor).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.robust.store import ArtifactStore

KEY = ("mcf", "llc_stream", "deadbeef0000")


def _flight_worker(args) -> tuple[str, bool]:
    """Race for the artifact: the owner computes (slowly), the follower
    waits and must find the owner's artifact already on disk.  Both
    workers meet at ``start`` first, so a worker process that starts
    late cannot find the lock already released and lead a second time."""
    root, delay, start = args
    store = ArtifactStore(root)
    start.wait(timeout=60)
    with store.single_flight(*KEY, poll_interval=0.01) as owner:
        if owner:
            time.sleep(delay)
            store.put(*KEY, {"x": np.arange(4)}, {"who": os.getpid()})
            return "led", True
    return "followed", store.get(*KEY) is not None


def test_two_processes_one_computes_one_follows(tmp_path):
    root = str(tmp_path / "store")
    ArtifactStore(root)  # create the directory before the race
    with multiprocessing.Manager() as manager:
        start = manager.Barrier(2)
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(
                pool.map(_flight_worker, [(root, 0.3, start), (root, 0.3, start)])
            )
    roles = sorted(role for role, _ in results)
    assert roles == ["followed", "led"]
    assert all(found for _, found in results)
    # The winner's artifact is on disk exactly once and the lock is gone.
    store = ArtifactStore(root)
    assert store.get(*KEY) is not None
    assert not store._lock_path(*KEY).exists()


def test_owner_releases_lock_even_on_error(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    try:
        with store.single_flight(*KEY) as owner:
            assert owner
            raise RuntimeError("compute blew up")
    except RuntimeError:
        pass
    assert not store._lock_path(*KEY).exists()
    # The key is immediately claimable again.
    with store.single_flight(*KEY) as owner:
        assert owner
    assert store.stats.flights_led == 2


def test_stale_lock_of_dead_process_is_ignored(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    lock = store._lock_path(*KEY)
    # A plausible-but-dead PID: fork a child and let it exit.
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    lock.write_text(f"{pid} {time.time():.3f}\n")
    start = time.monotonic()
    with store.single_flight(*KEY, timeout=30.0, poll_interval=0.01) as owner:
        assert owner is False  # follower role, but returns immediately
    assert time.monotonic() - start < 5.0
    assert store.stats.flights_followed == 1


def test_ancient_lock_is_stale_regardless_of_pid(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    lock = store._lock_path(*KEY)
    lock.write_text(f"{os.getpid()} 0.0\n")
    old = time.time() - 10_000
    os.utime(lock, (old, old))
    assert ArtifactStore._lock_is_stale(lock, stale_after=300.0)


def test_follower_times_out_to_duplicate_compute(tmp_path):
    """A live-but-stuck owner must not block the follower forever."""
    store = ArtifactStore(tmp_path / "store")
    lock = store._lock_path(*KEY)
    lock.write_text(f"{os.getpid()} {time.time():.3f}\n")  # "stuck" owner: us
    start = time.monotonic()
    with store.single_flight(*KEY, timeout=0.2, poll_interval=0.02) as owner:
        assert owner is False
    assert 0.15 < time.monotonic() - start < 5.0
    lock.unlink()
