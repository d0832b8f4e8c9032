"""Tier-1 regression: every checked-in corpus trace must replay clean.

This is the contract the fuzzer's archive earns its keep with: once a
trace is in ``tests/corpus/`` — seeded sentinel or shrunk repro — both
engines and the OPTgen oracle must agree on it forever, on every run
of the tier-1 suite.
"""

from __future__ import annotations

import pytest

from repro.conformance.corpus import (
    default_corpus_dir,
    list_entries,
    load_entry,
    replay_entry,
    save_entry,
    seed_corpus,
    seed_policy_sentinels,
)
from repro.conformance.generators import GENERATOR_FAMILIES

CORPUS_DIR = default_corpus_dir()
ENTRIES = list_entries(CORPUS_DIR)


def test_corpus_is_shipped_and_covers_every_family():
    assert len(ENTRIES) >= 5, (
        f"the corpus must ship at least 5 seeded traces, found {len(ENTRIES)} "
        f"in {CORPUS_DIR} — run `python -m repro.eval conformance corpus seed`"
    )
    names = {benchmark for benchmark, _ in ENTRIES}
    for family in GENERATOR_FAMILIES:
        assert any(family in name for name in names), (
            f"no corpus entry for generator family {family!r}"
        )


def test_corpus_has_a_sentinel_per_learned_policy():
    """Each learned policy is pinned by a ddmin-shrunk sentinel of its
    own (beyond the family sentinels that parity-check every fast-path
    policy): the seven fast-path learned policies."""
    names = {benchmark for benchmark, _ in ENTRIES}
    for policy in (
        "drrip", "ship", "ship++", "hawkeye", "glider", "mpppb", "perceptron"
    ):
        assert f"sentinel-{policy}" in names, (
            f"no ddmin-shrunk corpus sentinel for learned policy "
            f"{policy!r} — run `python -m repro.eval conformance corpus seed`"
        )


@pytest.mark.parametrize(
    "entry_name,digest", ENTRIES, ids=[b for b, _ in ENTRIES] or None
)
def test_corpus_entry_replays_clean(entry_name, digest):
    entry = load_entry(CORPUS_DIR, entry_name, digest)
    assert entry is not None, f"corpus entry {entry_name} [{digest}] unreadable"
    problems = replay_entry(entry)
    assert not problems, "\n".join(problems)


def test_seeding_is_idempotent(tmp_path):
    """Same specs -> same keys, so reseeding never duplicates entries."""
    first = seed_corpus(tmp_path, length=120)
    second = seed_corpus(tmp_path, length=120)
    assert sorted(p.name for p in first) == sorted(p.name for p in second)
    # One sentinel per generator family plus one per learned policy.
    assert len(list_entries(tmp_path)) == len(GENERATOR_FAMILIES) + 7


def test_policy_sentinel_reseed_reproduces_the_checked_in_corpus(tmp_path):
    """A reseed writes exactly the checked-in ``sentinel-<policy>``
    keys and streams: each policy's seed scan is fixed on its own, so
    adding or removing a policy leaves the other sentinels byte-stable."""
    import numpy as np

    seed_policy_sentinels(tmp_path)
    checked_in = sorted(
        (name, digest)
        for name, digest in ENTRIES
        if load_entry(CORPUS_DIR, name, digest).kind == "policy-sentinel"
    )
    assert sorted(list_entries(tmp_path)) == checked_in
    for name, digest in checked_in:
        ours = load_entry(tmp_path, name, digest).stream
        theirs = load_entry(CORPUS_DIR, name, digest).stream
        for column in ("pcs", "addresses", "kinds", "cores"):
            assert np.array_equal(getattr(ours, column), getattr(theirs, column))


def test_roundtrip_preserves_stream_and_geometry(tmp_path):
    from repro.conformance.generators import CaseSpec, generate_stream, spec_config
    import numpy as np

    spec = CaseSpec(family="zipf", seed=9, length=150, num_sets=8, associativity=2)
    stream = generate_stream(spec)
    save_entry(
        tmp_path, "rt", stream, spec_config(spec), ("lru",), kind="regression"
    )
    ((benchmark, digest),) = list_entries(tmp_path)
    entry = load_entry(tmp_path, benchmark, digest)
    assert np.array_equal(entry.stream.addresses, stream.addresses)
    assert np.array_equal(entry.stream.kinds, stream.kinds)
    assert entry.config.num_sets == 8
    assert entry.config.associativity == 2
    assert entry.policies == ("lru",)
