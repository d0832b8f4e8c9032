"""Differential checks: engines vs each other, oracles vs brute force.

One fuzz *case* (a :class:`~repro.conformance.generators.CaseSpec`)
is pushed through every check relevant to each registry policy:

* **engine parity** — policies with a fast-path kernel replay on both
  engines under :func:`~repro.cache.fastsim.verify_parity`
  (access-by-access events plus final stats);
* **invariant-checked replay** — reference-only policies replay on the
  object engine with the :mod:`~repro.conformance.invariants` checkers
  attached (fast-path policies get the same checkers for free via the
  parity run's reference leg);
* **Belady upper bound** — every policy's total hit count must not
  exceed brute-force Belady MIN's on the same line sequence (MIN with
  bypass is optimal per set, so any policy exceeding it proves a
  simulator bug, not a clever policy);
* **MIN itself** — :class:`~repro.policies.belady_policy.BeladyPolicy`
  is built from the stream it replays, so it has no registry name and
  is checked once per case whatever the policy list: a fresh instance
  per engine, compared event by event, and the fast kernel's total hit
  count *equal* to the brute-force optimum (MIN attains it);
* **OPTgen cross-validation** — unbounded OPTgen must *equal* MIN's
  hit count exactly, the hardware-windowed variant must never exceed
  the unbounded one, and the occupancy vector must satisfy its
  structural invariants throughout the run.

Divergences are returned as data (never raised) so the fuzzer can
shrink and archive them; :func:`run_case` is a pure function of its
spec, safe to fan out across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cache.config import CacheConfig
from ..cache.fastsim import FAST_PATH_POLICIES, EngineParityError, replay, verify_parity
from ..optgen.belady import simulate_belady
from ..optgen.optgen import OptGen
from ..policies.belady_policy import BeladyPolicy
from ..policies.registry import policy_specs
from .generators import CaseSpec, generate_stream, spec_config
from .invariants import InvariantViolation, check_optgen_vector, checked_replay

__all__ = [
    "MIN_POLICY",
    "CaseResult",
    "Divergence",
    "belady_bound",
    "check_min",
    "cross_validate_optgen",
    "default_policies",
    "run_case",
]

#: Hawkeye's hardware occupancy-vector window, as a multiple of assoc.
OPTGEN_WINDOW_FACTOR = 8

#: The policy name MIN's divergences carry (not a registry name).
MIN_POLICY = BeladyPolicy.name


@dataclass(frozen=True)
class Divergence:
    """One conformance failure, with everything needed to reproduce it."""

    kind: str  # engine-parity | invariant | belady-bound | optgen-*
    policy: str | None
    spec: dict
    message: str
    index: int | None = None

    def as_row(self) -> dict:
        return {
            "kind": self.kind,
            "policy": self.policy or "-",
            "case": CaseSpec.from_dict(self.spec).name,
            "at": self.index if self.index is not None else "-",
            "message": self.message.splitlines()[0][:100],
        }


@dataclass
class CaseResult:
    """Outcome of all differential checks for one case."""

    spec: CaseSpec
    policies: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def default_policies() -> tuple[str, ...]:
    """Every registered policy, fast-path first, each class in registry
    order.

    Read from the registry at call time, so a policy added with
    :func:`~repro.policies.registry.register_policy` (whose spec never
    has a kernel) is fuzzed as reference-only without further wiring.
    """
    specs = policy_specs()
    return tuple(sorted(specs, key=lambda name: specs[name].kernel is None))


def cross_validate_optgen(
    lines: np.ndarray, num_sets: int, associativity: int
) -> list[str]:
    """OPTgen vs brute-force Belady MIN; returns failure messages.

    Checks, in order: exact (unbounded) OPTgen hit count equals MIN's;
    the hardware-windowed OPTgen never exceeds the exact count; the
    occupancy vectors obey their structural invariants after every
    access batch.
    """
    problems: list[str] = []
    lines = np.asarray(lines, dtype=np.int64)
    exact = OptGen(num_sets, associativity, window=None)
    window = OptGen(
        num_sets, associativity, window=OPTGEN_WINDOW_FACTOR * associativity
    )
    check_stride = max(1, len(lines) // 16)
    for i, line in enumerate(lines.tolist()):
        exact.access(line)
        window.access(line)
        if (i + 1) % check_stride == 0:
            try:
                check_optgen_vector(exact)
                check_optgen_vector(window)
            except InvariantViolation as violation:
                problems.append(f"optgen-invariant at access {i}: {violation}")
                return problems
    belady = simulate_belady(lines, num_sets, associativity)
    if exact.opt_hits != belady.num_hits:
        problems.append(
            f"optgen-exact: unbounded OPTgen counts {exact.opt_hits} hits "
            f"but brute-force Belady MIN counts {belady.num_hits} "
            f"on {len(lines)} accesses ({num_sets}x{associativity})"
        )
    if window.opt_hits > exact.opt_hits:
        problems.append(
            f"optgen-window: windowed OPTgen counts {window.opt_hits} hits, "
            f"exceeding the exact count {exact.opt_hits} — the window must "
            "only ever forfeit hits, never invent them"
        )
    return problems


def belady_bound(stream, config: CacheConfig) -> int:
    """MIN's hit count over the full access sequence (demand + writeback)."""
    lines = (stream.addresses // np.uint64(stream.line_size)).astype(np.int64)
    return simulate_belady(lines, config.num_sets, config.associativity).num_hits


def check_min(
    stream, config: CacheConfig, optimum: int | None = None
) -> list[tuple[str, str, int | None]]:
    """MIN's engine parity and optimality; ``(kind, message, index)``
    per failure.

    A fresh :class:`BeladyPolicy` per engine replays ``stream``; the
    two event streams and stats must be equal (else ``engine-parity``,
    naming the first divergent access), and the fast kernel's demand
    plus writeback hits must equal ``optimum`` (brute-force MIN's,
    computed when not given; else ``belady-bound``).
    """
    events: dict[str, list] = {}
    stats = {}
    for engine in ("reference", "fast"):
        events[engine] = []
        stats[engine] = replay(
            stream, BeladyPolicy.from_stream(stream), config,
            engine=engine, record=events[engine],
        )
    ref, fast = events["reference"], events["fast"]
    if ref != fast:
        index = next(
            (i for i, (r, f) in enumerate(zip(ref, fast)) if r != f),
            min(len(ref), len(fast)),
        )
        return [(
            "engine-parity",
            f"{MIN_POLICY}: engines diverge at access {index}: "
            f"reference={ref[index:index + 1]} fast={fast[index:index + 1]} "
            "(hit, bypassed, way, evicted_tag, evicted_dirty)",
            index,
        )]
    if stats["reference"] != stats["fast"]:
        return [(
            "engine-parity",
            f"{MIN_POLICY}: stats differ: {stats['reference']} vs {stats['fast']}",
            None,
        )]
    if optimum is None:
        optimum = belady_bound(stream, config)
    hits = stats["fast"].demand_hits + stats["fast"].writeback_hits
    if hits != optimum:
        return [(
            "belady-bound",
            f"{MIN_POLICY} counts {hits} hits but brute-force MIN's optimum "
            f"is {optimum} — MIN attains the optimum, so one of the two "
            "simulators is wrong",
            None,
        )]
    return []


def run_case(
    spec: CaseSpec,
    policies: tuple[str, ...] | None = None,
    invariant_every: int = 256,
) -> CaseResult:
    """Run every differential check for one fuzz case."""
    policies = tuple(policies) if policies else default_policies()
    result = CaseResult(spec=spec, policies=policies)
    stream = generate_stream(spec)
    config = spec_config(spec)
    fast_path = set(FAST_PATH_POLICIES)
    belady_hits: int | None = None

    for policy in policies:
        stats = None
        if policy in fast_path:
            result.checks += 1
            try:
                stats, _ = verify_parity(stream, policy, config)
            except EngineParityError as error:
                result.divergences.append(
                    Divergence(
                        kind="engine-parity",
                        policy=policy,
                        spec=spec.to_dict(),
                        message=str(error),
                        index=error.index,
                    )
                )
                continue
        else:
            result.checks += 1
            try:
                stats = checked_replay(
                    stream, policy, config, every=invariant_every
                )
            except InvariantViolation as violation:
                result.divergences.append(
                    Divergence(
                        kind="invariant",
                        policy=policy,
                        spec=spec.to_dict(),
                        message=f"{violation.invariant}: {violation}",
                    )
                )
                continue
        result.checks += 1
        if belady_hits is None:
            belady_hits = belady_bound(stream, config)
        total_hits = stats.demand_hits + stats.writeback_hits
        if total_hits > belady_hits:
            result.divergences.append(
                Divergence(
                    kind="belady-bound",
                    policy=policy,
                    spec=spec.to_dict(),
                    message=(
                        f"{policy} counts {total_hits} hits but Belady MIN's "
                        f"optimum is {belady_hits} — a replacement policy "
                        "cannot beat MIN, so the simulator is over-counting"
                    ),
                )
            )

    result.checks += 1
    if belady_hits is None:
        belady_hits = belady_bound(stream, config)
    for kind, message, index in check_min(stream, config, belady_hits):
        result.divergences.append(
            Divergence(
                kind=kind,
                policy=MIN_POLICY,
                spec=spec.to_dict(),
                message=message,
                index=index,
            )
        )

    result.checks += 1
    demand_lines = stream.to_trace().lines()
    for problem in cross_validate_optgen(
        demand_lines, spec.num_sets, spec.associativity
    ):
        kind = problem.split(":", 1)[0].split(" ", 1)[0]
        result.divergences.append(
            Divergence(kind=kind, policy=None, spec=spec.to_dict(), message=problem)
        )
    return result
