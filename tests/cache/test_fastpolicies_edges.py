"""Edge-case parity for the learned-policy fast kernels.

The conformance fuzzer sweeps the six trace families at the default
geometry; these tests pin the corners it is least likely to hit — the
OPTgen occupancy window wrapping many times over, ISVM weights driven
into their clamps, SHCT signature collisions, and DRRIP leader-set
assignment under clamped/overlapping geometries.  Every test compares
the kernel against the reference engine access-by-access via the
recorded event stream, not just end-of-run counters.
"""

from __future__ import annotations

import pytest

import repro.cache.fastpolicies as fp
from repro.cache.fastsim import reference_replay, replay
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.optgen.sampler import OptGenSampler
from repro.policies.rrip import DRRIPPolicy
from repro.policies.ship import SHiPPlusPlusPolicy, SHiPPolicy, pc_signature


def _ref(stream, config, policy):
    events: list = []
    stats = reference_replay(stream, policy, config, record=events)
    return stats, events


def _fast(stream, config, policy):
    """Replay on the kernel the policy's registry spec derives from this
    (non-default) instance."""
    events: list = []
    stats = replay(stream, policy, config, engine="fast", record=events)
    return stats, events


def _counters(stats):
    return (
        stats.demand_hits,
        stats.demand_misses,
        stats.writeback_hits,
        stats.writeback_misses,
        stats.bypasses,
        stats.evictions,
        stats.dirty_evictions,
    )


# -- OPTgen sampler window wraparound ----------------------------------------


def test_flat_sampler_matches_reference_across_window_wraparound():
    """Event-for-event sampler agreement long after the occupancy
    window has wrapped (base_time >> window), covering the trim,
    stale-sweep, and tracker-overflow paths."""
    num_sets, assoc, window_factor = 4, 2, 2
    window = window_factor * assoc  # 4: tiny, wraps every few accesses
    ref = OptGenSampler(
        num_sets=num_sets,
        associativity=assoc,
        num_sampled_sets=num_sets,
        window_factor=window_factor,
    )
    flat = fp._FlatOptGenSampler(
        num_sets=num_sets,
        associativity=assoc,
        num_sampled_sets=num_sets,
        window_factor=window_factor,
    )
    # Deterministic mix of tight reuse, window-straddling reuse, and
    # fresh lines (tracker churn), all folding onto the 4 sets.
    lines = []
    for i in range(400):
        lines.append(i % 7)          # reuse distance 7 > window
        lines.append(i % 3)          # reuse distance 3 < window
        lines.append(100 + i)        # never reused: pure tracker churn
    accesses_per_set = len(lines) // num_sets
    assert accesses_per_set > 10 * window, "stream must wrap the window"
    for i, line in enumerate(lines):
        pc = (line * 17 + 3) & 0xFFFF
        got = flat.access(line, pc, ("ctx", line))
        want = [
            (e.pc, e.context, e.label)
            for e in ref.access(line, pc, ("ctx", line))
        ]
        assert got == want, f"sampler events diverge at access {i} (line {line})"


def test_hawkeye_parity_under_heavy_window_wraparound():
    """Full Hawkeye kernel vs reference on a geometry whose occupancy
    window (window_factor=2, assoc=2 -> 4 steps) wraps hundreds of
    times, with every set sampled."""
    spec = CaseSpec(
        family="pointer-chase", seed=11, length=2000, num_sets=8, associativity=2
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    from repro.policies.hawkeye import HawkeyePolicy

    params = dict(table_bits=8, num_sampled_sets=8, window_factor=2)
    policy = HawkeyePolicy(**params)
    fast_stats, fast_events = _fast(stream, config, HawkeyePolicy(**params))
    ref_stats, ref_events = _ref(stream, config, policy)
    assert policy.sampler.events_produced > 0, "sampler must actually train"
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- ISVM weight saturation ---------------------------------------------------


def test_glider_parity_with_saturated_isvm_weights():
    """A high threshold keeps the ISVM training gate open, so a thrash
    stream with few PCs drives weights into the [-128, 127] clamps; the
    kernel must clamp at exactly the same accesses as the reference."""
    from repro.core.glider import GliderConfig, GliderPolicy

    spec = CaseSpec(
        family="zipf", seed=5, length=8000, num_sets=8, associativity=2
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    # Tiny tables concentrate every training event onto a handful of
    # weights, and a threshold above the maximum |sum| (k * 127) keeps
    # the training gate open, so zipf's friendly-heavy labels march the
    # hot weights into the clamp within the stream.
    glider_config = GliderConfig(
        table_bits=2,
        weight_hash_bits=1,
        threshold=1000,
        num_sampled_sets=8,
        window_factor=2,
    )
    policy = GliderPolicy(glider_config)
    fast_stats, fast_events = _fast(stream, config, GliderPolicy(glider_config))
    ref_stats, ref_events = _ref(stream, config, policy)
    health = policy.isvm.health()
    assert health.max_abs_weight >= 127, (
        f"stream failed to saturate any ISVM weight "
        f"(max |w| = {health.max_abs_weight}); the test needs the clamp hit"
    )
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- SHiP signature collisions ------------------------------------------------


@pytest.mark.parametrize("plus", [False, True], ids=["ship", "ship++"])
def test_ship_parity_under_signature_collisions(plus):
    """A 2-bit signature table (4 entries) forces many PCs to share
    SHCT counters; kernel training must collide identically."""
    spec = CaseSpec(family="mix", seed=3, length=1500, num_sets=16, associativity=4)
    stream = generate_stream(spec)
    config = spec_config(spec)
    distinct_pcs = {int(pc) for pc in stream.pcs}
    signatures = {pc_signature(pc, 2) for pc in distinct_pcs}
    assert len(distinct_pcs) > 4 >= len(signatures), (
        "stream must have more PCs than SHCT entries to exercise collisions"
    )
    cls = SHiPPlusPlusPolicy if plus else SHiPPolicy
    fast_stats, fast_events = _fast(
        stream, config, cls(signature_bits=2, num_sampled_sets=16)
    )
    ref_stats, ref_events = _ref(
        stream, config, cls(signature_bits=2, num_sampled_sets=16)
    )
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


# -- DRRIP leader-set assignment ----------------------------------------------


@pytest.mark.parametrize(
    "num_sets,assoc,leaders",
    [
        (4, 2, 32),   # leaders clamped to num_sets // 2
        (8, 2, 8),    # stride 1: adjacent SRRIP/BRRIP leaders
        (16, 4, 32),  # clamp + wraparound in the leader stride walk
        (64, 4, 16),  # sparse leaders, most sets followers
    ],
)
def test_drrip_leader_assignment_parity_across_geometries(num_sets, assoc, leaders):
    """Leader-set roles (and the PSEL duel they drive) must match the
    reference's attach() assignment on clamped and overlapping
    geometries, not just the default 2048x16 LLC."""
    spec = CaseSpec(
        family="set-camp",
        seed=7,
        length=1200,
        num_sets=num_sets,
        associativity=assoc,
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    fast_stats, fast_events = _fast(
        stream, config, DRRIPPolicy(num_leader_sets=leaders, seed=0)
    )
    ref_stats, ref_events = _ref(
        stream, config, DRRIPPolicy(num_leader_sets=leaders, seed=0)
    )
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)
