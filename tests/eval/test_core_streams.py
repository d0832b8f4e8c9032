"""Each core's Figure 13 stream is derived from one filter per benchmark.

:meth:`ArtifactCache.quota_stream` serves a benchmark's un-offset quota
stream (cut from the whole-trace stream it already holds, or filtered
once), and :func:`repro.cpu.system.core_stream` adds a core's offsets.
The oracle is the reference object-engine filter run on the core's
offset view, as :func:`core_streams` once built every stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cpu.system as system
import repro.eval.runner as runner
from repro.cache.hierarchy import filter_to_llc_stream
from repro.cpu.system import core_stream, core_streams
from repro.eval.multicore import weighted_speedup_sweep
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.traces.trace import Trace

CORES = 4
FIELDS = ("pcs", "addresses", "kinds", "cores", "levels")
COUNTS = ("l1_hits", "l2_hits", "source_accesses", "source_instructions")


class _OneTraceCache(ArtifactCache):
    """An artifact cache whose every benchmark is one given trace."""

    def __init__(self, trace: Trace) -> None:
        super().__init__(ExperimentConfig(trace_length=max(1, len(trace))))
        self._trace = trace

    def trace(self, benchmark: str) -> Trace:
        return self._trace


@st.composite
def traces(draw, min_size=1, max_size=150):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    # The scaled L1 holds 16 lines in 2 sets, the L2 128 lines in 16
    # sets.  Lines that are multiples of 8 crowd one L1 set and two L2
    # sets, so short traces hit at both levels, evict and write back
    # dirty lines; the rest spread over every set.
    line = st.one_of(st.integers(0, 40).map(lambda x: 8 * x), st.integers(0, 400))
    lines = draw(st.lists(line, min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    pcs = draw(st.lists(st.integers(0, (1 << 32) - 1), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ipa = draw(st.sampled_from([1.0, 2.5, 3.7]))
    return Trace(
        name="prop",
        pcs=np.array(pcs, dtype=np.uint64),
        addresses=np.array(lines, dtype=np.uint64) * np.uint64(64)
        + np.array(offsets, dtype=np.uint64),
        is_write=np.array(writes, dtype=bool),
        instructions_per_access=ipa,
    )


def _oracle(trace: Trace, quota: int, core_id: int, config):
    """The reference filter on the core's offset, rewound quota view."""
    order = np.arange(quota) % len(trace)
    view = Trace(
        name=trace.name,
        pcs=trace.pcs[order] + np.uint64(core_id << 40),
        addresses=trace.addresses[order] + np.uint64(core_id << 44),
        is_write=trace.is_write[order],
        line_size=trace.line_size,
        instructions_per_access=trace.instructions_per_access,
    )
    stream = filter_to_llc_stream(view, config, engine="reference")
    stream.cores = np.full(len(stream), core_id, dtype=np.int16)
    return stream


def _assert_same(got, want) -> None:
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert getattr(got, field).dtype == getattr(want, field).dtype, field
    for field in COUNTS:
        assert getattr(got, field) == getattr(want, field), field


@settings(max_examples=100, deadline=None)
@given(
    trace=traces(),
    core_id=st.integers(0, CORES - 1),
    where=st.sampled_from(["below", "equal", "above"]),
    fraction=st.floats(0.0, 1.0),
    held=st.booleans(),
)
def test_served_stream_equals_filter_of_offset_view(
    trace, core_id, where, fraction, held
):
    n = len(trace)
    quota = {
        "below": max(1, int(fraction * (n - 1))),
        "equal": n,
        "above": n + 1 + int(fraction * 2 * n),
    }[where]
    cache = _OneTraceCache(trace)
    if held:
        cache.llc_stream("prop")
    config = cache.config.hierarchy(cores=CORES)
    served = core_stream(cache.quota_stream("prop", quota, config), core_id, config)
    want = _oracle(trace, quota, core_id, config)
    _assert_same(served, want)
    # core_streams (no cache) builds the same stream.
    _assert_same(core_streams([trace] * CORES, config, quota)[core_id], want)


def test_empty_trace_raises():
    empty = Trace(
        name="empty",
        pcs=np.zeros(0, dtype=np.uint64),
        addresses=np.zeros(0, dtype=np.uint64),
    )
    cache = _OneTraceCache(empty)
    config = cache.config.hierarchy(cores=CORES)
    with pytest.raises(ValueError, match="empty trace"):
        cache.quota_stream("empty", 10, config)
    with pytest.raises(ValueError, match="empty trace"):
        core_streams([empty], config, 10)


def _count_filters(monkeypatch) -> list:
    calls: list = []
    for module in (runner, system):
        original = module.filter_to_llc_stream

        def counted(trace, *args, _original=original, **kwargs):
            calls.append((trace.name, len(trace)))
            return _original(trace, *args, **kwargs)

        monkeypatch.setattr(module, "filter_to_llc_stream", counted)
    return calls


@pytest.mark.parametrize("quota", [1500, 2500])
def test_figure13_filters_each_benchmark_once(monkeypatch, quota):
    """The alone runs filter each benchmark's whole trace; a mix cuts its
    cores' streams from those when the quota fits in the trace, and
    otherwise filters each benchmark's rewound quota view once, however
    many mixes it recurs in."""
    config = ExperimentConfig(trace_length=2000)
    cache = ArtifactCache(config)
    calls = _count_filters(monkeypatch)
    results = weighted_speedup_sweep(
        config, num_mixes=3, quota=quota, policies=("srrip",), cache=cache
    )
    needed = {b: cache.trace(b) for r in results for b in r.mix.benchmarks}
    want = [(t.name, len(t)) for t in needed.values()]
    want += [(t.name, quota) for t in needed.values() if quota > len(t)]
    assert len(needed) < 3 * CORES  # some benchmark recurs across mixes
    assert sorted(calls) == sorted(want)


def test_offsets_must_preserve_sets():
    """A set span that does not divide the core address offset would
    move lines between sets, so deriving a core's stream refuses it."""
    trace = Trace(
        name="t",
        pcs=np.arange(4, dtype=np.uint64),
        addresses=np.arange(4, dtype=np.uint64) * np.uint64(64),
    )
    config = ExperimentConfig().hierarchy()
    stream = filter_to_llc_stream(trace, config)
    huge = type(config.l2)("L2", 1 << 48, 8)
    bad = type(config)(l1=config.l1, l2=huge, llc=config.llc)
    with pytest.raises(ValueError, match="L2: set span"):
        core_stream(stream, 1, bad)
