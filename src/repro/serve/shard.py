"""Shard worker processes (``repro.serve.shard``).

The service models one logical LLC partitioned by set index: shard
``k`` owns every set with ``set_index % num_shards == k``, so all
accesses to a set are serialized through one worker and the per-set
policy state is exactly what a monolithic simulation would produce.
Each worker holds a full-geometry :class:`~repro.cache.cache.
SetAssociativeCache` plus its policy instance (memory is dominated by
the sets actually touched) and processes request batches pulled from a
bounded queue.

Robustness hooks, shared with the batch pipeline
(:mod:`repro.robust.supervise`):

* the worker starts a heartbeat thread via :func:`repro.robust.
  supervise.start_heartbeat` — the parent watchdog SIGKILLs a shard
  whose heartbeat file stops changing (wedged, SIGSTOPped);
* per-request deadlines are enforced *inside* the worker too: a request
  that expired while queued gets a typed ``timeout`` response instead
  of burning compute, and a batch that exceeds its processing budget
  times out its remaining members (bounded worker iteration latency);
* a request whose computation raises produces a typed ``internal``
  error response — the worker never dies on a policy bug;
* the engine is pickled to a :class:`~repro.serve.snapshot.
  SnapshotStore` every ``snapshot_every`` requests, so a restarted
  shard re-warms from the latest snapshot instead of serving cold.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time
from typing import Any

from ..cache.block import AccessType, CacheRequest
from ..cache.cache import SetAssociativeCache
from ..cache.config import CacheConfig
from ..policies.registry import make_policy
from ..robust.supervise import heartbeat_path, kill_process, start_heartbeat
from .protocol import ERR_INTERNAL, ERR_TIMEOUT, error_response, ok_response
from .snapshot import SnapshotStore

__all__ = ["ShardEngine", "ShardHandle", "shard_worker_main"]


class ShardEngine:
    """Policy + cache pair computing decisions for one shard's sets."""

    def __init__(
        self, shard_id: int, policy: str, policy_kwargs: dict, cache: CacheConfig
    ) -> None:
        self.shard_id = shard_id
        self.policy_name = policy
        self.policy = make_policy(policy, **(policy_kwargs or {}))
        self.cache = SetAssociativeCache(cache, self.policy)
        self.accesses = 0

    def _prediction(self, pc: int, core: int, address: int) -> dict | None:
        try:
            return self.policy.prediction(pc, core, address)
        except Exception:  # noqa: BLE001 — prediction is best-effort extra
            return None

    # -- request handling -----------------------------------------------------

    def handle(self, msg: dict) -> dict:
        """Compute the wire response for one routed request message."""
        kind = msg["kind"]
        pc, address, core = msg["pc"], msg["address"], msg.get("core", 0)
        if kind == "predict":
            return ok_response(
                msg["id"],
                "predict",
                shard=self.shard_id,
                prediction=self._prediction(pc, core, address),
                cached=self.cache.probe(address),
            )
        request = CacheRequest(
            pc=pc,
            address=address,
            access_type=AccessType.STORE if msg.get("write") else AccessType.LOAD,
            core=core,
            access_index=self.accesses,
        )
        self.accesses += 1
        result = self.cache.access(request)
        evicted = None
        if result.evicted_tag >= 0:
            evicted = {
                "address": self.cache.line_address(
                    self.cache.set_index(address), result.evicted_tag
                ),
                "dirty": result.evicted_dirty,
                "pc": result.evicted_pc,
            }
        return ok_response(
            msg["id"],
            "access",
            shard=self.shard_id,
            hit=result.hit,
            way=result.way,
            bypassed=result.bypassed,
            evicted=evicted,
            prediction=self._prediction(pc, core, address),
        )


def _drain_batch(in_q, first: Any, batch_max: int) -> tuple[list[dict], bool]:
    """Pull up to ``batch_max`` queued messages; True if a sentinel arrived."""
    batch = [first]
    while len(batch) < batch_max:
        try:
            item = in_q.get_nowait()
        except queue_mod.Empty:
            break
        if item is None:
            return batch, True
        batch.append(item)
    return batch, False


def shard_worker_main(
    shard_id: int,
    policy: str,
    policy_kwargs: dict,
    cache_params: dict,
    in_q,
    out_q,
    run_dir: str,
    heartbeat_interval: float,
    snapshot_path: str | None,
    snapshot_every: int,
    batch_max: int,
    batch_budget_s: float | None,
    chaos_delay_s: float = 0.0,
    trace_path: str | None = None,
    run_id: str | None = None,
    insight_path: str | None = None,
) -> None:
    """Entry point of one shard worker process.

    ``chaos_delay_s`` is a fault-injection knob in the spirit of
    :mod:`repro.robust.faults`: it inserts an artificial per-request
    compute delay so chaos tests can provoke queue-full storms and
    deadline expiries at low, deterministic request rates.

    ``trace_path`` enables span tracing: every handled request becomes a
    ``shard.request`` span, and at drain a ``shard.worker`` span covering
    the worker's whole lifetime is emitted so the request spans nest
    under it in a merged chrome trace.  All spans carry the *server's*
    ``run_id``, making the per-process JSONL files joinable.

    ``insight_path`` enables a per-shard decision recorder (labelled
    ``shard=<id>``): the reference policy hooks report into it, the
    worker ships rolling summaries to the parent as ``insight`` control
    messages (for live per-shard ``/metrics`` gauges), and the full
    artifact is written at drain.
    """
    start_heartbeat(run_dir, heartbeat_interval)
    tracer = None
    worker_start_us = 0.0
    if trace_path:
        from ..obs.trace import TraceLog

        tracer = TraceLog(trace_path, run_id=run_id)
        worker_start_us = time.time() * 1e6
    recorder = None
    if insight_path:
        from ..obs import insight as obs_insight

        recorder = obs_insight.enable(
            CacheConfig(**cache_params), labels={"shard": shard_id}
        )

    def publish_insight() -> None:
        if recorder is None:
            return
        try:
            out_q.put(
                {"ctrl": "insight", "shard": shard_id, "summary": recorder.summary()}
            )
        except Exception:  # noqa: BLE001 — telemetry is best-effort
            pass

    store = SnapshotStore(snapshot_path) if snapshot_path else None
    engine: ShardEngine | None = None
    warm = False
    if store is not None:
        loaded = store.load()
        if loaded is not None:
            state, _meta = loaded
            if isinstance(state, ShardEngine) and state.policy_name == policy:
                engine = state
                warm = True
    if engine is None:
        engine = ShardEngine(shard_id, policy, policy_kwargs, CacheConfig(**cache_params))
    out_q.put(
        {
            "ctrl": "ready",
            "shard": shard_id,
            "pid": os.getpid(),
            "warm": warm,
            "accesses": engine.accesses,
        }
    )

    def save_snapshot() -> None:
        if store is None:
            return
        try:
            store.save(engine, meta={"shard": shard_id, "accesses": engine.accesses})
        except Exception:  # noqa: BLE001 — snapshots are best-effort
            pass

    since_snapshot = 0
    while True:
        try:
            item = in_q.get()
        except (EOFError, OSError):
            return  # parent went away; nothing left to serve
        draining = item is None
        batch: list[dict] = []
        if not draining:
            batch, draining = _drain_batch(in_q, item, batch_max)
        responses = []
        batch_deadline = (
            time.monotonic() + batch_budget_s if batch_budget_s else None
        )
        for msg in batch:
            now = time.monotonic()
            if msg["deadline"] and now > msg["deadline"]:
                response = error_response(
                    msg["id"],
                    ERR_TIMEOUT,
                    "deadline expired while queued at the shard",
                    shard=shard_id,
                    stage="queue",
                )
            elif batch_deadline is not None and now > batch_deadline:
                response = error_response(
                    msg["id"],
                    ERR_TIMEOUT,
                    f"shard batch budget ({batch_budget_s:.3f}s) exhausted",
                    shard=shard_id,
                    stage="batch",
                )
            else:
                if chaos_delay_s > 0:
                    time.sleep(chaos_delay_s)
                try:
                    if tracer is None:
                        response = engine.handle(msg)
                    else:
                        with tracer.span(
                            "shard.request",
                            rid=msg["rid"],
                            id=msg["id"],
                            kind=msg["kind"],
                            shard=shard_id,
                            trace=msg.get("trace"),
                        ):
                            response = engine.handle(msg)
                except Exception as error:  # noqa: BLE001 — typed, never fatal
                    response = error_response(
                        msg["id"],
                        ERR_INTERNAL,
                        f"{type(error).__name__}: {error}",
                        shard=shard_id,
                    )
            responses.append({"rid": msg["rid"], "response": response})
        if responses:
            out_q.put(("batch", responses))
        since_snapshot += len(batch)
        if snapshot_every and since_snapshot >= snapshot_every:
            save_snapshot()
            publish_insight()
            since_snapshot = 0
        if draining:
            save_snapshot()
            publish_insight()
            if recorder is not None:
                try:
                    from ..obs import insight as obs_insight

                    obs_insight.save_artifact(
                        insight_path, recorder.to_artifact(run_id=run_id)
                    )
                except Exception:  # noqa: BLE001 — telemetry is best-effort
                    pass
            if tracer is not None:
                # Lifetime span: request spans emitted above fall inside
                # this window, so they nest under the worker in chrome.
                tracer.complete(
                    "shard.worker",
                    worker_start_us,
                    time.time() * 1e6 - worker_start_us,
                    shard=shard_id,
                    pid=os.getpid(),
                    policy=policy,
                )
                tracer.close()
            out_q.put({"ctrl": "drained", "shard": shard_id, "pid": os.getpid()})
            return


class ShardHandle:
    """Parent-side handle: process, queues, heartbeat view, restarts.

    Each (re)start is a *generation*: fresh queues (a SIGKILLed worker
    can leave a queue's internal lock held, poisoning it for any
    successor) and a fresh collector thread keyed to the generation.
    """

    def __init__(
        self,
        shard_id: int,
        mp_context,
        *,
        policy: str,
        policy_kwargs: dict,
        cache_params: dict,
        run_dir: str,
        snapshot_path: str | None,
        queue_depth: int,
        heartbeat_interval: float,
        snapshot_every: int,
        batch_max: int,
        batch_budget_s: float | None,
        chaos_delay_s: float = 0.0,
        trace_path: str | None = None,
        run_id: str | None = None,
        insight_path: str | None = None,
    ) -> None:
        self.shard_id = shard_id
        self._ctx = mp_context
        self._kwargs = dict(
            policy=policy,
            policy_kwargs=policy_kwargs,
            cache_params=cache_params,
            run_dir=run_dir,
            heartbeat_interval=heartbeat_interval,
            snapshot_path=snapshot_path,
            snapshot_every=snapshot_every,
            batch_max=batch_max,
            batch_budget_s=batch_budget_s,
            chaos_delay_s=chaos_delay_s,
            trace_path=trace_path,
            run_id=run_id,
            insight_path=insight_path,
        )
        self.run_dir = run_dir
        self.queue_depth = queue_depth
        self.generation = 0
        self.restarts = -1  # first start() brings it to 0
        self.process = None
        self.in_q = None
        self.out_q = None
        self.ready = threading.Event()
        self.drained = threading.Event()
        self.started_at = 0.0
        self.warm_starts = 0
        self._hb_seen: tuple[float, float] | None = None

    def start(self) -> None:
        """Start the next generation.

        The new queues, events and process are published before
        ``restarts`` moves, so a poller that sees the new count never
        pairs it with the dead generation's set ``ready`` or old pid.
        """
        k = self._kwargs
        self.generation += 1
        self.in_q = self._ctx.Queue(maxsize=self.queue_depth)
        self.out_q = self._ctx.Queue()
        self.ready = threading.Event()
        self.drained = threading.Event()
        self._hb_seen = None
        self.started_at = time.monotonic()
        self.process = self._ctx.Process(
            target=shard_worker_main,
            name=f"serve-shard-{self.shard_id}",
            daemon=True,
            args=(
                self.shard_id,
                k["policy"],
                k["policy_kwargs"],
                k["cache_params"],
                self.in_q,
                self.out_q,
                k["run_dir"],
                k["heartbeat_interval"],
                k["snapshot_path"],
                k["snapshot_every"],
                k["batch_max"],
                k["batch_budget_s"],
                k["chaos_delay_s"],
                k["trace_path"],
                k["run_id"],
                k["insight_path"],
            ),
        )
        self.process.start()
        self.restarts += 1

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        if self.pid is not None:
            kill_process(self.pid)

    def heartbeat_stale(self, grace: float, now: float) -> bool:
        """True when the worker's heartbeat file stopped changing.

        Same observation discipline as the supervisor: staleness is
        measured from the last *observed* mtime change with the
        parent's monotonic clock, so wall-clock skew in the beat
        payload cannot trigger (or mask) a kill.
        """
        if not self.ready.is_set() or self.pid is None:
            return False
        try:
            mtime = heartbeat_path(self.run_dir, self.pid).stat().st_mtime
        except OSError:
            return now - self.started_at > grace
        if self._hb_seen is None or mtime != self._hb_seen[0]:
            self._hb_seen = (mtime, now)
            return False
        return now - self._hb_seen[1] > grace

    def enqueue(self, msg: dict) -> None:
        """Nonblocking put onto the bounded request queue (may raise Full)."""
        self.in_q.put_nowait(msg)
