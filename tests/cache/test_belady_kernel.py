"""Belady's MIN on its fast kernel, against two independent oracles.

``BeladyPolicy`` instances take ``fastsim._BeladyKernel``; the reference
object engine (``engine="reference"``) stays the event-by-event oracle,
and the brute-force ``simulate_belady`` the hit-count oracle: MIN
attains the optimum, so the kernel's total hits must *equal* it.  The
kernel numbers its own requests like the reference engine, so any
in-order mix of feeds, steps and pickle round-trips must equal one feed.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import filter_to_llc_stream
from repro.cache.fastsim import _BeladyKernel, fast_path_kernel, make_stream_kernel, replay
from repro.conformance.shrink import take
from repro.eval.runner import ExperimentConfig
from repro.optgen.belady import simulate_belady
from repro.policies.belady_policy import BeladyPolicy
from repro.traces.suite import get_trace

from .test_fastsim import _llc, _synthetic_stream

BENCHMARKS = ("mcf", "lbm", "bfs", "omnetpp", "soplex")


def _benchmark_stream(name: str, seed: int, length: int = 8000):
    config = ExperimentConfig(trace_length=length).hierarchy()
    trace = get_trace(name, length=length, llc_lines=config.llc.num_lines, seed=seed)
    return filter_to_llc_stream(trace, config), config


def _one_feed(stream, config):
    kernel = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    events: list = []
    kernel.feed(stream, events)
    return events, kernel.finish()


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_kernel_matches_reference_and_the_optimum(name, seed):
    stream, config = _benchmark_stream(name, seed)
    ref_events: list = []
    fast_events: list = []
    ref = replay(
        stream, BeladyPolicy.from_stream(stream), config,
        engine="reference", record=ref_events,
    )
    fast = replay(stream, BeladyPolicy.from_stream(stream), config, record=fast_events)
    assert fast_events == ref_events
    assert asdict(fast) == asdict(ref)
    assert fast.bypasses > 0

    optimum = simulate_belady(
        stream.lines().astype(np.int64),
        config.llc.num_sets,
        config.llc.associativity,
    )
    assert fast.demand_hits + fast.writeback_hits == optimum.num_hits


@pytest.mark.parametrize(
    "num_sets,associativity",
    [(16, 4), (1, 4), (16, 1), (1, 1), (2, 8)],
    ids=["16x4", "one-set", "assoc-1", "one-line", "2x8"],
)
def test_kernel_matches_reference_on_writeback_heavy_streams(num_sets, associativity):
    """Synthetic streams add writeback hits and misses, stores to
    resident lines and degenerate geometries."""
    stream = _synthetic_stream(n=3000, seed=11, line_count=80, writeback_fraction=0.3)
    config = _llc(num_sets, associativity)
    ref_events: list = []
    fast_events: list = []
    ref = replay(
        stream, BeladyPolicy.from_stream(stream), config,
        engine="reference", record=ref_events,
    )
    fast = replay(stream, BeladyPolicy.from_stream(stream), config, record=fast_events)
    assert fast_events == ref_events
    assert asdict(fast) == asdict(ref)
    assert fast.writeback_hits > 0 and fast.writeback_misses > 0


def test_instances_dispatch_by_exact_type():
    stream = _synthetic_stream(n=200)
    policy = BeladyPolicy.from_stream(stream)
    kind, params = fast_path_kernel(policy)
    assert kind == "belady"
    assert params["next_use"] is policy._next_use
    assert isinstance(make_stream_kernel(policy, _llc()), _BeladyKernel)

    class TweakedMin(BeladyPolicy):
        pass

    assert fast_path_kernel(TweakedMin.from_stream(stream)) is None


def test_access_beyond_the_recorded_stream_raises():
    stream = _synthetic_stream(n=300)
    short = take(stream, range(200))
    kernel = make_stream_kernel(BeladyPolicy.from_stream(short), _llc())
    with pytest.raises(IndexError, match="pre-recorded stream"):
        kernel.feed(stream)

    stepped = make_stream_kernel(BeladyPolicy.from_stream(short), _llc())
    columns = stepped.decode(stream)
    for i in range(200):
        stepped.step(columns, i)
    with pytest.raises(IndexError):
        stepped.step(columns, 200)


_plans = st.lists(
    st.tuples(st.sampled_from(["feed", "step"]), st.integers(1, 120), st.booleans()),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), plan=_plans)
def test_chunked_feeds_steps_and_pickles_equal_one_feed(seed, plan):
    """Each plan entry feeds or steps the next ``count`` requests, then
    optionally pickles the kernel mid-stream; whatever the plan leaves
    is fed at the end."""
    stream = _synthetic_stream(n=600, seed=seed, line_count=96)
    config = _llc()
    expected_events, expected = _one_feed(stream, config)

    kernel = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    columns = kernel.decode(stream)
    hits: list = []
    start = 0
    for how, count, round_trip in plan + [("feed", len(stream.pcs), False)]:
        stop = min(start + count, len(stream.pcs))
        if how == "feed":
            events: list = []
            kernel.feed(take(stream, range(start, stop)), events)
            hits += [event[0] for event in events]
        else:
            hits += [int(kernel.step(columns, i)) for i in range(start, stop)]
        if round_trip:
            kernel = pickle.loads(pickle.dumps(kernel))
        start = stop
    assert hits == [event[0] for event in expected_events]
    assert kernel.finish() == expected


def test_chunked_feed_records_the_one_shot_events():
    stream, config = _benchmark_stream("mcf", seed=0, length=6000)
    expected_events, expected = _one_feed(stream, config)
    kernel = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    events: list = []
    bounds = [0, 1, 700, 701, 2500, len(stream)]
    for start, stop in zip(bounds, bounds[1:]):
        kernel.feed(take(stream, range(start, stop)), events)
        if start == 700:
            kernel = pickle.loads(pickle.dumps(kernel))
    assert events == expected_events
    assert kernel.finish() == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), num_cores=st.integers(2, 4))
def test_steps_interleaved_across_decoded_cores_equal_one_feed(seed, num_cores):
    """MIN is built from the merged order; stepping separately decoded
    per-core streams in that order must number the requests as one
    feed of the merged stream does."""
    stream = _synthetic_stream(n=600, seed=seed, line_count=96)
    owner = np.random.default_rng(seed).integers(num_cores, size=len(stream.pcs))
    stream.cores = owner
    config = _llc()
    expected_events, expected = _one_feed(stream, config)

    kernel = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    mine = [np.flatnonzero(owner == core) for core in range(num_cores)]
    columns = [kernel.decode(take(stream, indices)) for indices in mine]
    position = [0] * num_cores
    hits = []
    for core in owner.tolist():
        hits.append(int(kernel.step(columns[core], position[core])))
        position[core] += 1
    assert hits == [event[0] for event in expected_events]
    assert kernel.finish() == expected
