"""Delta-debugging shrinker: minimise a failing trace to a tiny repro.

A fuzz-found divergence on a 1200-access stream is unreadable; the same
divergence on 6 accesses is a bug report.  :func:`shrink_stream`
implements ddmin [Zeller & Hildebrandt 2002] over the access sequence:
repeatedly delete chunks (halving granularity down to single accesses)
while the caller's *predicate* — "does this substream still fail?" —
keeps returning True.  The result is 1-minimal: removing any single
remaining access makes the failure disappear.

Predicates receive a real :class:`~repro.cache.hierarchy.LLCStream`
(rebuilt by fancy-indexing the column arrays), so they can run the full
differential machinery — engine parity, invariant checkers, oracle
cross-validation — unchanged.  :func:`failure_predicate` builds the
matching predicate for any :class:`~repro.conformance.differential.Divergence`
kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..cache.config import CacheConfig
from ..cache.fastsim import EngineParityError, verify_parity
from ..cache.hierarchy import LLCStream
from .differential import MIN_POLICY, belady_bound, check_min, cross_validate_optgen
from .invariants import InvariantViolation, checked_replay

__all__ = ["ShrinkResult", "failure_predicate", "shrink_stream", "take"]


def take(stream: LLCStream, indices: Sequence[int]) -> LLCStream:
    """The substream keeping exactly ``indices`` (in original order)."""
    idx = np.asarray(list(indices), dtype=np.int64)
    return LLCStream(
        name=f"{stream.name}@shrunk",
        pcs=stream.pcs[idx],
        addresses=stream.addresses[idx],
        kinds=stream.kinds[idx],
        cores=stream.cores[idx],
        line_size=stream.line_size,
        source_accesses=len(idx),
        source_instructions=4 * len(idx),
        l1_hits=0,
        l2_hits=0,
        metadata=dict(stream.metadata),
    )


@dataclass
class ShrinkResult:
    """A minimised repro plus how much work it took to get there."""

    stream: LLCStream
    original_length: int
    predicate_calls: int

    @property
    def length(self) -> int:
        return len(self.stream)

    @property
    def reduction(self) -> float:
        return 1.0 - self.length / max(1, self.original_length)


def shrink_stream(
    stream: LLCStream,
    predicate: Callable[[LLCStream], bool],
    max_predicate_calls: int = 2000,
) -> ShrinkResult:
    """ddmin the stream to a (near-)1-minimal failing substream.

    ``predicate(substream)`` must return True while the failure still
    reproduces.  The input stream itself must fail (checked up front).
    ``max_predicate_calls`` bounds the work — when exhausted, the best
    substream found so far is returned (still failing, just possibly
    not 1-minimal).
    """
    calls = 0

    def failing(sub: LLCStream) -> bool:
        nonlocal calls
        calls += 1
        return predicate(sub)

    if not failing(stream):
        raise ValueError("shrink_stream: the input stream does not fail")

    kept = list(range(len(stream)))
    granularity = 2
    while len(kept) >= 2 and calls < max_predicate_calls:
        chunk = max(1, len(kept) // granularity)
        removed_any = False
        start = 0
        while start < len(kept) and calls < max_predicate_calls:
            candidate = kept[:start] + kept[start + chunk :]
            if candidate and failing(take(stream, candidate)):
                kept = candidate  # chunk was irrelevant: drop it for good
                removed_any = True
                # Same start now points at the next chunk.
            else:
                start += chunk
        if removed_any:
            granularity = max(2, granularity - 1)  # coarsen back a step
        elif chunk == 1:
            break  # 1-minimal: no single access can be removed
        else:
            granularity = min(len(kept), granularity * 2)
    return ShrinkResult(
        stream=take(stream, kept),
        original_length=len(stream),
        predicate_calls=calls,
    )


def failure_predicate(
    kind: str, policy: str | None, config: CacheConfig
) -> Callable[[LLCStream], bool]:
    """The "does this substream still fail?" check for a divergence kind."""
    if policy == MIN_POLICY and kind in ("engine-parity", "belady-bound"):

        def min_fails(sub: LLCStream) -> bool:
            return any(found == kind for found, _, _ in check_min(sub, config))

        return min_fails
    if kind == "engine-parity":
        if policy is None:
            raise ValueError("engine-parity predicate needs a policy name")

        def parity_fails(sub: LLCStream) -> bool:
            try:
                verify_parity(sub, policy, config)
            except EngineParityError:
                return True
            return False

        return parity_fails
    if kind == "invariant":
        if policy is None:
            raise ValueError("invariant predicate needs a policy name")

        def invariant_fails(sub: LLCStream) -> bool:
            try:
                checked_replay(sub, policy, config, every=64)
            except InvariantViolation:
                return True
            return False

        return invariant_fails
    if kind.startswith("optgen"):

        def optgen_fails(sub: LLCStream) -> bool:
            lines = sub.to_trace().lines()
            if len(lines) == 0:
                return False
            return bool(
                cross_validate_optgen(
                    lines, config.num_sets, config.associativity
                )
            )

        return optgen_fails
    if kind == "belady-bound":
        if policy is None:
            raise ValueError("belady-bound predicate needs a policy name")

        def bound_fails(sub: LLCStream) -> bool:
            stats = checked_replay(sub, policy, config, every=0)
            return stats.demand_hits + stats.writeback_hits > belady_bound(
                sub, config
            )

        return bound_fails
    raise ValueError(f"no shrink predicate for divergence kind {kind!r}")
