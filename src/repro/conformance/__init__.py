"""Conformance subsystem: differential fuzzing, oracle cross-validation,
and the minimized regression corpus.

The two LLC engines (:mod:`repro.cache.cache` reference and
:mod:`repro.cache.fastsim` kernels) and the OPTgen oracle are only
trustworthy together: this package continuously proves they agree.

* :mod:`~repro.conformance.generators` — seeded adversarial stream
  generators (pointer-chase, scan, zipf, set-camp, thrash, mix).
* :mod:`~repro.conformance.differential` — per-case checks: engine
  parity, invariant-checked replay, Belady upper bound, OPTgen vs
  brute-force MIN.
* :mod:`~repro.conformance.invariants` — runtime invariant checkers
  (occupancy conservation, RRPV bounds, ISVM saturation, OPTgen
  occupancy vector, core/DRAM timing) attachable to any run.
* :mod:`~repro.conformance.single_core` — the per-access single-core
  timing oracle that the three-pass ``SingleCoreSystem`` must match.
* :mod:`~repro.conformance.multi_core` — the per-access multi-core
  timing oracle that the filter-once ``MultiCoreSystem`` must match.
* :mod:`~repro.conformance.shrink` — ddmin delta-debugging of failing
  traces to near-minimal repros.
* :mod:`~repro.conformance.corpus` — the checked-in regression corpus
  under ``tests/corpus/`` (ArtifactStore format).
* :mod:`~repro.conformance.fuzzer` — the time-budgeted fuzz loop with
  supervised parallel workers.
* :mod:`~repro.conformance.ingest_roundtrip` — external-trace adapter
  round-trip fidelity and streamed-vs-materialized replay differentials.
* :mod:`~repro.conformance.cli` — ``python -m repro.eval conformance``.
"""

from .differential import CaseResult, Divergence, cross_validate_optgen, run_case
from .fuzzer import FuzzConfig, FuzzReport, fuzz, parse_budget
from .generators import GENERATOR_FAMILIES, CaseSpec, generate_stream, spec_config
from .ingest_roundtrip import IngestRoundtripResult, run_roundtrip_case
from .invariants import (
    InvariantViolation,
    checked_multi_core,
    checked_replay,
    checked_single_core,
    run_all_checks,
)
from .multi_core import reference_multi_core
from .shrink import ShrinkResult, failure_predicate, shrink_stream, take
from .single_core import reference_single_core

__all__ = [
    "CaseResult",
    "CaseSpec",
    "Divergence",
    "FuzzConfig",
    "FuzzReport",
    "GENERATOR_FAMILIES",
    "IngestRoundtripResult",
    "InvariantViolation",
    "ShrinkResult",
    "checked_multi_core",
    "checked_replay",
    "checked_single_core",
    "cross_validate_optgen",
    "failure_predicate",
    "fuzz",
    "generate_stream",
    "parse_budget",
    "reference_multi_core",
    "reference_single_core",
    "run_all_checks",
    "run_case",
    "run_roundtrip_case",
    "shrink_stream",
    "spec_config",
    "take",
]
