"""Fault tolerance for the experiment pipeline.

The evaluation pipeline (trace -> LLC stream -> Belady labels ->
train/replay) is long-running and numerically delicate; this package
makes it survive faults instead of aborting:

* :mod:`repro.robust.retry` — deterministic retry/backoff primitives and
  a per-suite deadline budget;
* :mod:`repro.robust.faults` — a seeded fault-injection harness (trace
  corruption, ISVM poisoning, NaN gradients) so robustness is testable;
* :mod:`repro.robust.guards` — numerical guards for LSTM training
  (divergence detection, learning-rate backoff, restore-from-checkpoint)
  and ISVM health checks;
* :mod:`repro.robust.store` — a crash-safe, checksummed, disk-backed
  artifact store with corrupt-entry quarantine;
* :mod:`repro.robust.suite` — graceful suite degradation: per-benchmark
  retry, structured failures, partial aggregates, and a resume manifest;
* :mod:`repro.robust.supervise` — supervised process-pool execution:
  worker watchdogs (deadlines + heartbeats), pool recycling on
  ``BrokenProcessPool``, poison-task quarantine, sequential
  degradation, and an append-only crash journal.

The package exports nothing: import the submodule you need, so that
(say) a figure run's training guards do not load the process pool.
"""
