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
    policy): the six fast-path learned policies plus the reference-only
    reuse-distance family."""
    names = {benchmark for benchmark, _ in ENTRIES}
    for policy in (
        "drrip", "ship", "ship++", "hawkeye", "glider", "mpppb",
        "frd", "mustache", "deap",
    ):
        assert f"sentinel-{policy}" in names, (
            f"no ddmin-shrunk corpus sentinel for learned policy "
            f"{policy!r} — run `python -m repro.eval conformance corpus seed`"
        )


def test_reuse_distance_sentinels_are_small():
    """The frd-family sentinels must stay ddmin-tight (<= 32 accesses):
    a fat sentinel means the shrinker regressed or the divergence
    predicate went flaky."""
    for policy in ("frd", "mustache", "deap"):
        matches = [
            (b, d) for b, d in ENTRIES if b == f"sentinel-{policy}"
        ]
        assert matches, f"sentinel-{policy} missing from {CORPUS_DIR}"
        for benchmark, digest in matches:
            entry = load_entry(CORPUS_DIR, benchmark, digest)
            assert entry is not None
            assert entry.length <= 32, (
                f"{benchmark} has {entry.length} accesses; expected a "
                "ddmin-shrunk stream of at most 32"
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
    # One sentinel per generator family plus one per learned policy
    # (six fast-path + the three reference-only reuse-distance names).
    assert len(list_entries(tmp_path)) == len(GENERATOR_FAMILIES) + 9


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
