"""Performance subsystem: the parallel grid runner and benchmarking.

Layer 2 of the fast-path work (Layer 1 is :mod:`repro.cache.fastsim`):

* :mod:`repro.perf.parallel` — :class:`~repro.perf.parallel.RunContext`
  fans a figure driver's per-benchmark grid out across worker processes
  with deterministic per-task seeding, on the supervised pool of
  :mod:`repro.robust.supervise` (watchdogs, pool recycling, graceful
  degradation).
* :mod:`repro.perf.bench` — the ``repro.eval bench`` subcommand: time
  the filter / replay / insight stages and record the perf trajectory
  in ``BENCH_sim.json``.

The package exports nothing: import the submodule you need.
"""
