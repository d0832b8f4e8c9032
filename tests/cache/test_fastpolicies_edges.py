"""Edge-case parity for the learned-policy fast kernels.

The conformance fuzzer sweeps the six trace families at the default
geometry; these tests pin the corners it is least likely to hit — the
OPTgen occupancy window wrapping many times over, ISVM weights driven
into their clamps, SHCT signature collisions, DRRIP leader-set
assignment under clamped/overlapping geometries, and the hashed-
perceptron kernel's clamps, bypasses, writeback fills, short histories
and sampler geometry.  Every test compares
the kernel against the reference engine access-by-access via the
recorded event stream, not just end-of-run counters.
"""

from __future__ import annotations

import pytest

import repro.cache.fastpolicies as fp
from repro.cache.fastsim import make_stream_kernel, reference_replay, replay
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.optgen.sampler import OptGenSampler
from repro.policies.mpppb import MPPPBPolicy
from repro.policies.perceptron import PerceptronPolicy, _mix, feature_value
from repro.policies.rrip import RRPV_KEY, DRRIPPolicy
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


# -- hashed perceptron (MPPPB / Perceptron) -----------------------------------


class _Access:
    """One access of a stream as a feedable chunk."""

    def __init__(self, stream, i):
        self.name = stream.name
        self.pcs = stream.pcs[i : i + 1]
        self.addresses = stream.addresses[i : i + 1]
        self.kinds = stream.kinds[i : i + 1]
        self.cores = stream.cores[i : i + 1]


def _lockstep(stream, config, make):
    """Feed both engines one access at a time.

    Yields ``(i, set_index, before, after, event, ref_kernel, kernel)``
    per access, where ``before``/``after`` are the fast kernel's
    ``(fill_count, tags, rrpvs)`` of the accessed set, after asserting
    that the two events are equal and that the set's valid lines carry
    the same RRPVs on both engines.
    """
    kernel = make_stream_kernel(make(), config, engine="fast")
    ref_kernel = make_stream_kernel(make(), config, engine="reference")
    sets = kernel.decode(stream)[0]

    def state(s):
        return (kernel.fill_count[s], list(kernel.tag_t[s]), list(kernel.rrpv_t[s]))

    for i in range(len(stream.pcs)):
        s = sets[i]
        before = state(s)
        fast_event: list = []
        ref_event: list = []
        kernel.feed(_Access(stream, i), fast_event)
        ref_kernel.feed(_Access(stream, i), ref_event)
        assert fast_event == ref_event, f"events diverge at access {i}"
        after = state(s)
        ref_rrpvs = [
            line.policy_state[RRPV_KEY] for line in ref_kernel.llc.sets[s] if line.valid
        ]
        assert [r for t, r in zip(after[1], after[2]) if t != -1] == ref_rrpvs, (
            f"RRPVs of set {s} diverge after access {i}"
        )
        yield i, s, before, after, fast_event[0], ref_kernel, kernel


def _weights(policy):
    return [list(f.weights) for f in policy.predictor.features]


#: Policies that bypass predicted-dead demand misses readily: a 2-way
#: sampler labels most of a thrash stream dead.
_BYPASSING = [
    lambda: MPPPBPolicy(bypass_threshold=0, sampler_assoc=2, num_sampler_sets=8),
    lambda: PerceptronPolicy(allow_bypass=True, sampler_assoc=2, num_sampler_sets=8),
]


@pytest.mark.parametrize(
    "cls", [MPPPBPolicy, PerceptronPolicy], ids=["mpppb", "perceptron"]
)
@pytest.mark.parametrize(
    "family,sampler_assoc,clamp",
    [("zipf", 4, "min"), ("thrash", 2, "max")],
    ids=["reuse-to-min", "dead-to-max"],
)
def test_perceptron_parity_with_clamped_weights(cls, family, sampler_assoc, clamp):
    """θ above any reachable |sum| keeps the training gate open and a
    4-entry table concentrates every update, so reuse-heavy zipf drives
    weights into the lower clamp (-128 MPPPB, -32 Perceptron) and a
    thrash stream through a 2-way sampler into the upper one (127, 31);
    the kernel must clamp at exactly the reference's accesses."""
    spec = CaseSpec(family=family, seed=5, length=3000, num_sets=8, associativity=2)
    stream = generate_stream(spec)
    config = spec_config(spec)
    params = dict(
        table_bits=2, theta=100_000, num_sampler_sets=8, sampler_assoc=sampler_assoc
    )
    fast_policy, ref_policy = cls(**params), cls(**params)
    fast_stats, fast_events = _fast(stream, config, fast_policy)
    ref_stats, ref_events = _ref(stream, config, ref_policy)
    weights = [w for table in _weights(ref_policy) for w in table]
    predictor = ref_policy.predictor
    if clamp == "min":
        assert min(weights) == predictor.weight_min, "the lower clamp must be hit"
    else:
        assert max(weights) == predictor.weight_max, "the upper clamp must be hit"
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)
    assert _weights(fast_policy) == _weights(ref_policy)


@pytest.mark.parametrize("make", _BYPASSING, ids=["mpppb", "perceptron"])
def test_bypassed_fill_leaves_set_state_unchanged(make):
    """A bypassed demand miss allocates nothing: the set's occupancy,
    fill count, tags and RRPVs stay as they were, on both engines."""
    spec = CaseSpec(family="thrash", seed=3, length=1500, num_sets=8, associativity=2)
    stream = generate_stream(spec)
    bypasses = 0
    occupancy = 0
    for i, s, before, after, event, ref_kernel, _ in _lockstep(
        stream, spec_config(spec), make
    ):
        if event[1]:
            bypasses += 1
            assert after == before, f"bypass at access {i} changed set {s}"
            assert ref_kernel.llc.occupancy == occupancy
        occupancy = ref_kernel.llc.occupancy
    assert bypasses > 0, "the stream must make the policy bypass"


@pytest.mark.parametrize("make", _BYPASSING, ids=["mpppb", "perceptron"])
def test_writeback_miss_to_full_set_fills_at_distant_rrpv(make):
    """A writeback miss to a full set never bypasses, even right after a
    demand bypass (whose weight sum predicted dead), and inserts at
    max RRPV."""
    spec = CaseSpec(
        family="thrash",
        seed=3,
        length=1500,
        num_sets=8,
        associativity=2,
        writeback_fraction=0.3,
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    kinds = stream.kinds.tolist()
    checked = after_bypass = 0
    last_demand_bypassed = False
    for i, s, before, after, event, _, kernel in _lockstep(stream, config, make):
        if kinds[i] != fp._KIND_WRITEBACK:
            last_demand_bypassed = bool(event[1])
            continue
        if event[0] or before[0] < spec.associativity:
            continue
        checked += 1
        after_bypass += last_demand_bypassed
        assert not event[1], f"writeback miss {i} bypassed"
        assert after[2][event[2]] == kernel.max_rrpv
    assert checked > 0 and after_bypass > 0, "the stream must reach the path"
    # In one feed the demand bypass's weight sum is still live when the
    # writeback arrives.
    fast_stats, fast_events = _fast(stream, config, make())
    ref_stats, ref_events = _ref(stream, config, make())
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


@pytest.mark.parametrize(
    "cls", [MPPPBPolicy, PerceptronPolicy], ids=["mpppb", "perceptron"]
)
def test_short_history_contexts_match_reference_features(cls):
    """Over the first 8 demand accesses the history is shorter than the
    fold depth (and than Perceptron's 3 positions at first): absent
    positions read 0 and folds cover only the PCs there.  Each
    access's stored context must equal the reference predictor's
    feature indices for the same (pc, history, address)."""
    spec = CaseSpec(
        family="mix", seed=1, length=400, num_sets=4, associativity=2,
        writeback_fraction=0.0,
    )
    stream = generate_stream(spec)
    config = spec_config(spec)
    make = lambda: cls(num_sampler_sets=4)  # noqa: E731 - every set sampled
    for i, s, _, _, _, ref_kernel, kernel in _lockstep(stream, config, make):
        if i == 8:
            break
        ref_policy = ref_kernel.llc.policy
        history = ref_policy._inflight_history
        assert len(history) == min(i, ref_policy.history.maxlen)
        predictor = ref_policy.predictor
        pc, address = int(stream.pcs[i]), int(stream.addresses[i])
        size = len(predictor.features[0].weights)
        bits = size.bit_length() - 1
        values = [
            feature_value(f.source, pc, history, address) for f in predictor.features
        ]
        expected = sorted(
            f * size + _mix(value, feature.salt, bits)
            for f, (feature, value) in enumerate(zip(predictor.features, values))
        )
        si = kernel.sampler_of_set[s]
        stored = kernel.s_ctx[si][kernel.s_lru[si].index(kernel.clock)]
        assert sorted(stored) == expected, f"context of access {i} differs"
    fast_stats, fast_events = _fast(stream, config, make())
    ref_stats, ref_events = _ref(stream, config, make())
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)


@pytest.mark.parametrize(
    "cls", [MPPPBPolicy, PerceptronPolicy], ids=["mpppb", "perceptron"]
)
def test_more_sampler_sets_than_cache_sets(cls):
    """``num_sampler_sets`` above ``num_sets`` samples every set once
    (stride 1), as the reference's attach() clamps it."""
    spec = CaseSpec(family="zipf", seed=2, length=1500, num_sets=8, associativity=2)
    stream = generate_stream(spec)
    config = spec_config(spec)
    fast_policy, ref_policy = cls(num_sampler_sets=64), cls(num_sampler_sets=64)
    fast_stats, fast_events = _fast(stream, config, fast_policy)
    ref_stats, ref_events = _ref(stream, config, ref_policy)
    assert ref_policy._sampled_sets == {s: s for s in range(8)}
    assert fast_policy._sampled_sets == ref_policy._sampled_sets
    assert fast_events == ref_events
    assert _counters(fast_stats) == _counters(ref_stats)
    assert _weights(fast_policy) == _weights(ref_policy)
