"""Tests for exact Belady MIN simulation and optimal labelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optgen import (
    INF,
    belady_labels_for_trace,
    compute_next_use,
    simulate_belady,
)

from ..conftest import make_trace


def _next_use_by_scan(keys: np.ndarray) -> np.ndarray:
    """The reverse dict scan ``compute_next_use`` replaced, kept as its
    oracle."""
    next_use = np.full(len(keys), INF, dtype=np.int64)
    last_pos: dict[int, int] = {}
    for i in range(len(keys) - 1, -1, -1):
        key = int(keys[i])
        if key in last_pos:
            next_use[i] = last_pos[key]
        last_pos[key] = i
    return next_use


class TestNextUse:
    def test_simple(self):
        keys = np.array([1, 2, 1, 3, 2])
        next_use = compute_next_use(keys)
        assert next_use[0] == 2
        assert next_use[1] == 4
        assert next_use[2] == INF
        assert next_use[3] == INF
        assert next_use[4] == INF

    def test_empty(self):
        assert len(compute_next_use(np.array([], dtype=np.int64))) == 0

    def test_all_same(self):
        next_use = compute_next_use(np.array([5, 5, 5]))
        assert list(next_use) == [1, 2, INF]

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(50, 3, dtype=np.int64),
            np.array([INF, INF - 1, INF, -INF - 1, INF - 1, -INF - 1], dtype=np.int64),
        ],
        ids=["empty", "one", "all-equal", "large-int64"],
    )
    def test_edge_cases_match_the_scan(self, keys):
        assert np.array_equal(compute_next_use(keys), _next_use_by_scan(keys))

    @given(
        pool=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20),
        picks=st.lists(st.integers(0, 19), max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scan_on_random_keys(self, pool, picks):
        # Keys drawn from a small pool of arbitrary int64s, so they repeat.
        keys = np.array([pool[p % len(pool)] for p in picks], dtype=np.int64)
        assert np.array_equal(compute_next_use(keys), _next_use_by_scan(keys))


class TestBeladySmall:
    def test_repeated_line_always_hits(self):
        res = simulate_belady(np.array([1, 1, 1, 1]), num_sets=1, associativity=1)
        assert res.num_hits == 3
        # Labels: each access whose next reuse hits is friendly.
        assert list(res.labels) == [True, True, True, False]

    def test_two_lines_one_way(self):
        # Alternating lines in a 1-way cache: OPT keeps one of them.
        res = simulate_belady(np.array([1, 2, 1, 2, 1, 2]), 1, 1)
        assert res.num_hits == 2  # keeps line 1 (or 2): hits on reuses of it

    def test_classic_belady_example(self):
        # Working set of 3 lines in a 2-way cache, cyclic: OPT hit rate 1/3
        # per cycle once warmed (keeps 2 of 3... ).
        lines = np.array([1, 2, 3] * 10)
        res = simulate_belady(lines, 1, 2)
        # LRU would have zero hits; OPT must do strictly better.
        assert res.num_hits >= 9

    def test_never_reused_lines_labelled_averse(self):
        res = simulate_belady(np.array([1, 2, 3, 4]), 1, 2)
        assert not res.labels.any()
        assert res.num_hits == 0

    def test_hit_rate_properties(self):
        res = simulate_belady(np.array([1, 1]), 1, 1)
        assert res.hit_rate == pytest.approx(0.5)
        assert res.miss_rate == pytest.approx(0.5)

    def test_set_mapping(self):
        # Lines 0 and 2 -> set 0; line 1 -> set 1 (2 sets, 1 way each).
        lines = np.array([0, 1, 0, 1])
        res = simulate_belady(lines, 2, 1)
        assert res.num_hits == 2

    def test_labels_for_trace_helper(self):
        trace = make_trace([(1, 0), (1, 0), (1, 1)])
        labels = belady_labels_for_trace(trace, num_sets=1, associativity=2)
        assert list(labels) == [True, False, False]


class _LruSim:
    """Reference LRU over line streams, for the optimality property."""

    def __init__(self, num_sets, assoc):
        self.sets = [dict() for _ in range(num_sets)]
        self.assoc = assoc
        self.num_sets = num_sets
        self.time = 0
        self.hits = 0

    def access(self, line):
        self.time += 1
        s = self.sets[line % self.num_sets]
        if line in s:
            self.hits += 1
        elif len(s) >= self.assoc:
            victim = min(s, key=s.get)
            del s[victim]
        s[line] = self.time


@given(
    lines=st.lists(st.integers(0, 40), min_size=5, max_size=400),
    assoc=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_property_min_beats_lru(lines, assoc, sets):
    """MIN's hit count upper-bounds LRU's on every stream."""
    lines = np.array(lines)
    belady = simulate_belady(lines, sets, assoc)
    lru = _LruSim(sets, assoc)
    for line in lines:
        lru.access(int(line))
    assert belady.num_hits >= lru.hits


@given(lines=st.lists(st.integers(0, 20), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_property_label_count_equals_hits(lines):
    """Every OPT hit labels exactly one earlier access friendly."""
    lines = np.array(lines)
    res = simulate_belady(lines, 2, 2)
    assert int(res.labels.sum()) == res.num_hits


@given(
    lines=st.lists(st.integers(0, 10), min_size=1, max_size=100),
    assoc=st.sampled_from([1, 2, 8]),
)
@settings(max_examples=30, deadline=None)
def test_property_bigger_cache_never_hurts(lines, assoc):
    lines = np.array(lines)
    small = simulate_belady(lines, 1, assoc)
    big = simulate_belady(lines, 1, assoc * 2)
    assert big.num_hits >= small.num_hits
