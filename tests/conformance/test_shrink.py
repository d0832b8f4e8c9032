"""ddmin shrinker unit tests plus the acceptance mutation test.

The mutation test is the conformance suite testing itself: install a
*known-wrong* LRU fast kernel (an off-by-one in the victim way — see
:mod:`tests.conformance.mutations`), then assert the fuzzer catches the
divergence, the parity error localises it with per-set state, and the
shrinker minimises the repro to **at most 32 accesses** (the issue's
acceptance bound; in practice it lands well under 10).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.fastsim import EngineParityError, verify_parity
from repro.conformance.fuzzer import (
    FuzzConfig,
    fuzz,
    parse_budget,
    shrink_divergence,
)
from repro.conformance.generators import CaseSpec, generate_stream, spec_config
from repro.conformance.shrink import failure_predicate, shrink_stream, take

from .mutations import install_belady_stale_next_use, install_lru_off_by_one

MUTANT_SPEC = CaseSpec(
    family="thrash", seed=7, length=800, num_sets=8, associativity=2
)


# -- plain ddmin behaviour ----------------------------------------------------


def _demo_stream():
    return generate_stream(
        CaseSpec(family="mix", seed=1, length=64, num_sets=4, associativity=2)
    )


def test_take_preserves_order_and_columns():
    stream = _demo_stream()
    sub = take(stream, [3, 10, 11, 40])
    assert len(sub) == 4
    assert list(sub.addresses) == [int(stream.addresses[i]) for i in (3, 10, 11, 40)]
    assert list(sub.kinds) == [int(stream.kinds[i]) for i in (3, 10, 11, 40)]


def test_shrink_finds_minimal_witness():
    """A predicate needing two specific accesses shrinks to exactly those."""
    stream = _demo_stream()
    a, b = int(stream.addresses[5]), int(stream.addresses[50])

    def both_present(sub):
        addrs = set(int(x) for x in sub.addresses)
        return a in addrs and b in addrs

    result = shrink_stream(stream, both_present)
    assert result.length <= 4  # the two witnesses (maybe duplicated addresses)
    assert both_present(result.stream)
    assert result.reduction > 0.9


def test_shrink_rejects_passing_input():
    with pytest.raises(ValueError, match="does not fail"):
        shrink_stream(_demo_stream(), lambda sub: False)


def test_shrink_respects_call_budget():
    stream = _demo_stream()
    result = shrink_stream(stream, lambda sub: True, max_predicate_calls=10)
    assert result.predicate_calls <= 11  # initial check + budget


def test_parse_budget_formats():
    assert parse_budget("30s") == 30.0
    assert parse_budget("2m") == 120.0
    assert parse_budget("120") == 120.0
    assert parse_budget("500ms") == 0.5
    assert parse_budget(45) == 45.0
    with pytest.raises(ValueError, match="unparseable"):
        parse_budget("soon")


# -- the acceptance mutation test --------------------------------------------


def test_injected_off_by_one_is_caught_and_localised(monkeypatch):
    """The buggy kernel must trip EngineParityError with structured state."""
    install_lru_off_by_one(monkeypatch)
    stream = generate_stream(MUTANT_SPEC)
    with pytest.raises(EngineParityError) as info:
        verify_parity(stream, "lru", spec_config(MUTANT_SPEC))
    err = info.value
    assert err.policy == "lru"
    assert err.index is not None and err.index >= 0
    assert err.set_index is not None
    assert err.ref_event != err.fast_event
    assert err.set_state, "per-set snapshot missing from parity error"
    assert all({"way", "tag", "dirty"} <= set(row) for row in err.set_state)
    message = str(err)
    assert "delta" in message and "before the access" in message


def test_mutation_fuzz_catches_and_shrinks_to_32_accesses(
    monkeypatch, tmp_path
):
    """Acceptance criterion: the fuzzer finds the injected fastsim
    off-by-one and the shrinker reduces it to <= 32 accesses."""
    install_lru_off_by_one(monkeypatch)
    config = FuzzConfig(
        seed=0,
        budget=0.0,  # one batch is enough: every family diverges under LRU
        jobs=1,  # in-process so the monkeypatch reaches the kernel
        case_length=800,
        num_sets=8,
        associativity=2,
        policies=("lru",),
        max_cases=4,
        shrink=True,
        corpus_dir=str(tmp_path),
    )
    report = fuzz(config)
    assert not report.clean, "fuzzer missed the injected off-by-one"
    parity = [d for d in report.divergences if d.kind == "engine-parity"]
    assert parity, f"wrong divergence kinds: {[d.kind for d in report.divergences]}"

    shrunk_rows = [r for r in report.shrunk if r["kind"] == "engine-parity"]
    assert shrunk_rows, "divergence was not shrunk"
    for row in shrunk_rows:
        assert row["length"] is not None, row.get("note")
        assert row["length"] <= 32, (
            f"shrunk repro still {row['length']} accesses (> 32)"
        )
        assert row["path"], "shrunk repro was not archived in the corpus"

    # The archived repro replays as a failure while the mutant is live.
    from repro.conformance.corpus import list_entries, load_entry, replay_entry

    entries = list_entries(tmp_path)
    assert entries
    name, digest = entries[0]
    problems = replay_entry(load_entry(tmp_path, name, digest))
    assert problems, "archived repro no longer reproduces under the mutant"


def test_shrink_divergence_is_deterministic(monkeypatch):
    """Same divergence -> same minimised access sequence, twice."""
    install_lru_off_by_one(monkeypatch)
    from repro.conformance.differential import run_case

    result = run_case(MUTANT_SPEC, policies=("lru",))
    parity = [d for d in result.divergences if d.kind == "engine-parity"]
    assert parity
    first, _ = shrink_divergence(parity[0])
    second, _ = shrink_divergence(parity[0])
    assert np.array_equal(first.stream.addresses, second.stream.addresses)
    assert first.length <= 32


# -- MIN, checked once per case -----------------------------------------------


def test_min_is_checked_in_every_case_whatever_the_policies():
    from repro.conformance.differential import belady_bound, check_min, run_case

    result = run_case(MUTANT_SPEC, policies=("lru",))
    assert result.ok, result.divergences
    # lru's parity and bound, MIN, and the OPTgen cross-validation.
    assert result.checks == 4

    stream = generate_stream(MUTANT_SPEC)
    config = spec_config(MUTANT_SPEC)
    optimum = belady_bound(stream, config)
    assert check_min(stream, config, optimum) == []
    [(kind, message, index)] = check_min(stream, config, optimum + 1)
    assert kind == "belady-bound" and index is None
    assert f"optimum is {optimum + 1}" in message


def test_stale_min_kernel_is_caught_shrunk_and_archived(monkeypatch, tmp_path):
    install_belady_stale_next_use(monkeypatch)
    from repro.conformance.corpus import list_entries, load_entry, replay_entry
    from repro.conformance.differential import run_case

    result = run_case(MUTANT_SPEC, policies=("lru",))
    [divergence] = result.divergences
    assert (divergence.kind, divergence.policy) == ("engine-parity", "belady")
    assert divergence.index is not None

    shrunk, path = shrink_divergence(divergence, corpus_dir=tmp_path)
    assert shrunk.length <= 32
    assert path is not None
    [(name, digest)] = list_entries(tmp_path)
    problems = replay_entry(load_entry(tmp_path, name, digest))
    assert problems and all("belady: engine-parity" in p for p in problems)
