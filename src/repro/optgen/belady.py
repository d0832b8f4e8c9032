"""Exact Belady MIN simulation and optimal labelling.

Belady's MIN algorithm [Belady 1966] evicts the line whose next use is
furthest in the future; it is optimal for hit-rate on a known trace.
The paper (following Hawkeye) uses MIN both as the performance upper
bound and as the *teacher*: each access is labelled cache-friendly (1)
if MIN would serve this line's next reuse from the cache, cache-averse
(0) otherwise.  Those labels are the supervised-learning targets of
every offline model (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INF = np.iinfo(np.int64).max


def compute_next_use(keys: np.ndarray) -> np.ndarray:
    """For each position i, the next index j > i with keys[j] == keys[i].

    Positions with no later occurrence get ``INF``.  One stable sort
    groups each key's positions in increasing order, so each position's
    next use is its successor within the group.
    """
    keys = np.asarray(keys)
    next_use = np.full(len(keys), INF, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    next_use[order[:-1][same]] = order[1:][same]
    return next_use


@dataclass
class BeladyResult:
    """Outcome of an exact MIN simulation.

    Attributes:
        hits: Boolean per access — did MIN serve it from the cache?
        labels: Boolean per access — *optimal decision* for the accessed
            line: True (cache-friendly) iff the line's next reuse hits
            under MIN.  Accesses with no future reuse are labelled False.
        num_hits / num_misses: Aggregate counters.
    """

    hits: np.ndarray
    labels: np.ndarray

    @property
    def num_hits(self) -> int:
        return int(np.sum(self.hits))

    @property
    def num_misses(self) -> int:
        return len(self.hits) - self.num_hits

    @property
    def hit_rate(self) -> float:
        return self.num_hits / max(1, len(self.hits))

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate


def simulate_belady(
    lines: np.ndarray,
    num_sets: int,
    associativity: int,
) -> BeladyResult:
    """Run exact MIN over a stream of line numbers for a set-associative cache.

    The cache has ``num_sets`` sets of ``associativity`` ways; line i maps
    to set ``lines[i] % num_sets``.  Returns per-access hits and optimal
    labels (see :class:`BeladyResult`).

    Complexity: O(n * associativity) — each miss scans one set's ways for
    the furthest next use.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    next_use = compute_next_use(lines)
    hits = np.zeros(n, dtype=bool)
    labels = np.zeros(n, dtype=bool)
    # Per set: dict mapping resident line -> index of the access that
    # inserted/last touched it (so we can label that access on reuse).
    resident: list[dict[int, int]] = [dict() for _ in range(num_sets)]
    # Per resident line, its next-use time (kept alongside for eviction).
    resident_next: list[dict[int, int]] = [dict() for _ in range(num_sets)]
    for i in range(n):
        line = int(lines[i])
        s = line % num_sets
        res = resident[s]
        res_next = resident_next[s]
        if line in res:
            hits[i] = True
            labels[res[line]] = True  # the previous access's reuse hit
            res[line] = i
            res_next[line] = int(next_use[i])
        else:
            if int(next_use[i]) == INF:
                # Never reused: MIN gains nothing by caching it, and the
                # label is averse either way.  Model it as a bypass, as
                # Hawkeye's OPTgen effectively does (a dead line never
                # raises occupancy for a would-be hit interval).
                continue
            if len(res) >= associativity:
                # Evict the victim with the furthest next use -- but only
                # cache the newcomer if its next use is sooner.
                victim_line, victim_next = None, -1
                for cand, cand_next in res_next.items():
                    if cand_next > victim_next:
                        victim_line, victim_next = cand, cand_next
                if victim_next <= int(next_use[i]):
                    # Newcomer is the furthest-reused: bypassing it is
                    # optimal (equivalent to inserting then evicting).
                    continue
                del res[victim_line]
                del res_next[victim_line]
            res[line] = i
            res_next[line] = int(next_use[i])
    return BeladyResult(hits=hits, labels=labels)


def belady_labels_for_trace(trace_or_lines, num_sets: int, associativity: int) -> np.ndarray:
    """Convenience wrapper returning only the optimal labels.

    Accepts a :class:`~repro.traces.trace.Trace` or a line-number array.
    """
    lines = (
        trace_or_lines.lines()
        if hasattr(trace_or_lines, "lines")
        else np.asarray(trace_or_lines)
    )
    return simulate_belady(lines, num_sets, associativity).labels
