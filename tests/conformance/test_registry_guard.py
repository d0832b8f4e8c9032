"""Engine classification pins for the registry.

Each registry :class:`~repro.policies.registry.PolicySpec` declares its
fast kernel (or none), and ``FAST_PATH_POLICIES``,
``REFERENCE_ONLY_POLICIES`` and the conformance fuzzer's default policy
list are all derived from those specs, so every registered policy is
classified — and fuzzed — by construction.  What remains to pin here
are deliberate classification decisions that a refactor must not flip
silently.
"""

from __future__ import annotations

from repro.cache.fastsim import FAST_PATH_POLICIES, REFERENCE_ONLY_POLICIES
from repro.conformance.differential import default_policies
from repro.policies import registry
from repro.policies.lru import LRUPolicy


def test_fuzzer_default_covers_whole_registry():
    assert set(default_policies()) == set(registry.available_policies())


def test_registered_policy_is_fuzzed_as_reference_only():
    """A policy added at runtime joins the fuzzer's default list, after
    every fast-path policy (it has no kernel)."""
    registry.register_policy("custom-registered", LRUPolicy)
    try:
        policies = default_policies()
        assert "custom-registered" in policies
        assert set(policies[: len(FAST_PATH_POLICIES)]) == set(FAST_PATH_POLICIES)
    finally:
        registry._SPECS.pop("custom-registered")


def test_sdbp_is_the_only_reference_only_policy():
    """SDBP is the one built-in policy without a fast kernel; the
    reference engine (plus invariant checks) is its conformance story.
    A second name here is a policy that lost or never got its kernel."""
    assert REFERENCE_ONLY_POLICIES == ("sdbp",)


def test_learned_policies_stay_fast_pathed():
    """The paper's evaluated policies must not silently lose their
    kernels — dropping ``kernel=`` from one of their specs is a
    deliberate (and benchmark-visible) decision, not a refactor side
    effect."""
    demoted = sorted(
        {"drrip", "ship", "ship++", "hawkeye", "glider", "mpppb", "perceptron"}
        - set(FAST_PATH_POLICIES)
    )
    assert not demoted, (
        f"learned policies missing from FAST_PATH_POLICIES: {demoted} — "
        "their kernels live in repro.cache.fastpolicies; see "
        "EXPERIMENTS.md 'Performance' for the fast-path recipe"
    )
