"""Replacement-policy-as-a-service (``repro.serve``).

A long-running prediction daemon that serves per-access eviction /
insertion decisions and reuse predictions from any registry policy —
an online deployment of the Glider/Hawkeye implementations.

The data plane is newline-delimited JSON over TCP; requests are routed
by set index to supervised shard worker processes, each owning the
policy and cache state for its slice of the set space.  The robustness
layer is the point:

* :mod:`repro.serve.protocol` — the wire format and the typed failure
  taxonomy (every submitted request ends in exactly one of {decision,
  typed error}; there are no silent drops);
* :mod:`repro.serve.breaker` — a per-shard circuit breaker (open after
  K consecutive failures, half-open probe, jittered backoff cooldowns
  derived from :class:`repro.robust.retry.RetryPolicy`);
* :mod:`repro.serve.shard` — shard worker processes with heartbeat
  files (reusing the :mod:`repro.robust.supervise` hooks), bounded
  request queues, per-request and per-batch deadlines, and periodic
  state snapshots;
* :mod:`repro.serve.snapshot` — atomic, corruption-tolerant snapshot
  store used to re-warm restarted shards;
* :mod:`repro.serve.server` — the daemon: dispatcher, watchdog/restart
  loop, backpressure and load shedding, graceful SIGTERM drain, and a
  ``/healthz`` / ``/readyz`` / ``/metrics`` admin endpoint;
* :mod:`repro.serve.loadgen` — a load generator that replays
  :mod:`repro.traces` workloads at a target QPS with request-id
  accounting, producing ``BENCH_serve.json``;
* :mod:`repro.serve.cli` — ``python -m repro.eval serve run|load|bench``.
"""

from .breaker import BreakerOpen, CircuitBreaker
from .loadgen import LoadConfig, run_load, validate_bench_serve
from .protocol import (
    ERROR_TYPES,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .server import PredictionServer, ServeConfig
from .snapshot import SnapshotStore

__all__ = [
    "ERROR_TYPES",
    "BreakerOpen",
    "CircuitBreaker",
    "LoadConfig",
    "PredictionServer",
    "ProtocolError",
    "Request",
    "ServeConfig",
    "SnapshotStore",
    "error_response",
    "ok_response",
    "parse_request",
    "run_load",
    "validate_bench_serve",
]
