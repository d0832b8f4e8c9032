"""The feed/step protocol every replay kernel shares.

The multi-core timing loop steps the shared LLC kernel one request at a
time, alternating the cores' decoded columns; ingest checkpoints pickle
kernels between chunks.  Any in-order mix of ``feed`` chunks, single
``step`` calls (on one or several decoded streams) and pickle
round-trips must equal one ``feed`` of the same stream: the same hit
bits, the same ``finish()`` stats and the same trained state written
back into the policy instance.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import filter_to_llc_stream
from repro.cache.fastsim import FAST_PATH_POLICIES, _ReferenceKernel, make_stream_kernel
from repro.conformance.shrink import take
from repro.eval.runner import ExperimentConfig
from repro.policies.belady_policy import BeladyPolicy
from repro.policies.registry import make_policy
from repro.traces.suite import get_trace

from .test_fastsim import _llc, _synthetic_stream, _trained_state

#: Every fast kernel plus one policy that runs on the reference engine.
POLICIES = FAST_PATH_POLICIES + ("sdbp",)


def _policy_of(kernel):
    """The instance a kernel writes its trained state into."""
    return kernel.llc.policy if isinstance(kernel, _ReferenceKernel) else kernel.policy


def _one_feed(stream, policy: str, config):
    kernel = make_stream_kernel(make_policy(policy), config)
    events: list = []
    kernel.feed(stream, events)
    hits = [event[0] for event in events]
    return hits, kernel.finish(), _trained_state(_policy_of(kernel))


_plans = st.lists(
    st.tuples(st.sampled_from(["feed", "step"]), st.integers(1, 120), st.booleans()),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(policy=st.sampled_from(POLICIES), seed=st.integers(0, 2**16), plan=_plans)
def test_any_mix_of_feeds_steps_and_pickles_equals_one_feed(policy, seed, plan):
    """Each plan entry feeds or steps the next ``count`` requests, then
    optionally pickles the kernel; whatever the plan leaves is fed at
    the end."""
    stream = _synthetic_stream(n=600, seed=seed, line_count=96)
    stream.cores = np.arange(len(stream.pcs), dtype=np.int64) % 4
    config = _llc()
    expected = _one_feed(stream, policy, config)

    kernel = make_stream_kernel(make_policy(policy), config)
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
    assert (hits, kernel.finish(), _trained_state(_policy_of(kernel))) == expected


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**16),
    num_cores=st.integers(2, 4),
)
def test_steps_interleaved_across_decoded_cores_equal_one_feed(policy, seed, num_cores):
    """The multi-core timing loop decodes each core's stream once and
    steps the cores in whatever order their clocks dictate, switching
    columns on nearly every request.  Stepping a random interleaving of
    separately decoded per-core streams must equal one feed of the
    merged order."""
    stream = _synthetic_stream(n=600, seed=seed, line_count=96)
    owner = np.random.default_rng(seed).integers(num_cores, size=len(stream.pcs))
    stream.cores = owner
    config = _llc()
    expected = _one_feed(stream, policy, config)

    kernel = make_stream_kernel(make_policy(policy), config)
    mine = [np.flatnonzero(owner == core) for core in range(num_cores)]
    columns = [kernel.decode(take(stream, indices)) for indices in mine]
    position = [0] * num_cores
    hits = []
    for core in owner.tolist():
        hits.append(int(kernel.step(columns[core], position[core])))
        position[core] += 1
    assert (hits, kernel.finish(), _trained_state(_policy_of(kernel))) == expected


def test_reference_step_numbers_its_own_requests():
    """MIN reads each request's ``access_index``: stepping it request by
    request must number them as one feed does."""
    config = ExperimentConfig(trace_length=3000).hierarchy()
    trace = get_trace("mcf", length=3000, llc_lines=config.llc.num_lines, seed=0)
    stream = filter_to_llc_stream(trace, config)

    fed = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    fed.feed(stream)
    stepped = make_stream_kernel(BeladyPolicy.from_stream(stream), config)
    columns = stepped.decode(stream)
    for i in range(len(stream)):
        stepped.step(columns, i)
    expected = fed.finish()
    assert expected.demand_hits > 0
    assert stepped.finish() == expected


def test_reference_min_steps_number_their_own_requests():
    """The reference engine's MIN, stepped request by request, must
    number the requests as one feed does (the test above now steps the
    fast kernel)."""
    config = ExperimentConfig(trace_length=3000).hierarchy()
    trace = get_trace("mcf", length=3000, llc_lines=config.llc.num_lines, seed=0)
    stream = filter_to_llc_stream(trace, config)

    fed = make_stream_kernel(BeladyPolicy.from_stream(stream), config, "reference")
    fed.feed(stream)
    stepped = make_stream_kernel(BeladyPolicy.from_stream(stream), config, "reference")
    assert isinstance(stepped, _ReferenceKernel)
    columns = stepped.decode(stream)
    for i in range(len(stream)):
        stepped.step(columns, i)
    expected = fed.finish()
    assert expected.demand_hits > 0
    assert stepped.finish() == expected
