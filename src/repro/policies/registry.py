"""Policy registry: one :class:`PolicySpec` per replacement policy.

A spec is the single description of a registered policy: how to build
it, its exact class, and — when the fast engine
(:mod:`repro.cache.fastsim`) has a kernel for it — how to read the
kernel's parameters off an instance.  The fast/reference engine split,
the conformance fuzzer's policy list and the kernel parameters are all
derived from these entries.  A registry name is shorthand for a fresh
instance (:func:`make_policy`), so a name and an instance dispatch by
the same rule: the instance's exact type picks the spec.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from ..cache.policy import ReplacementPolicy
from ..core.glider import GliderConfig, GliderPolicy
from .hawkeye import HawkeyePolicy
from .lru import LRUPolicy, MRUPolicy
from .mpppb import MPPPBPolicy
from .perceptron import PerceptronPolicy
from .random_policy import RandomPolicy
from .rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from .sdbp import SDBPPolicy
from .ship import SHiPPlusPlusPolicy, SHiPPolicy


@dataclass(frozen=True)
class PolicySpec:
    """How to build one registered policy and how to fast-path it.

    ``make(**kwargs)`` constructs an instance (kwargs go to the policy's
    constructor).  ``cls`` is the exact class it builds (None for a
    :func:`register_policy` factory); instances are matched to specs by
    exact type, so a subclass with overridden hooks never inherits a
    kernel.  ``kernel(policy)`` returns the fast
    engine's ``(kind, params)`` with every parameter read from the
    instance; None means the policy runs on the reference engine only.
    A learned policy's kernel writes its trained state (PSEL, SHCT,
    predictor tables, ISVM weights) back into the instance it was built
    from, so a caller reads the same object after either engine.
    """

    make: Callable[..., ReplacementPolicy]
    cls: type | None
    kernel: Callable[[ReplacementPolicy], tuple[str, dict]] | None = None


def _ship_kernel(p) -> tuple[str, dict]:
    return "ship", {
        "plus": isinstance(p, SHiPPlusPlusPolicy),
        "max_rrpv": p.max_rrpv,
        "signature_bits": p.signature_bits,
        "counter_max": p.counter_max,
        "num_sampled_sets": p.num_sampled_sets,
    }


def _glider_kernel(p) -> tuple[str, dict]:
    c = p.config
    return "glider", {
        "k": c.k,
        "table_bits": c.table_bits,
        "weight_hash_bits": c.weight_hash_bits,
        "threshold": c.threshold,
        "adaptive": c.adaptive_threshold,
        "adapt_interval": p.isvm.adapt_interval,
        "num_sampled_sets": c.num_sampled_sets,
        "window_factor": c.window_factor,
        "tracker_ways": c.tracker_ways,
        "detrain": c.detrain_on_eviction,
        "confidence_insertion": c.confidence_insertion,
    }


def _perceptron_kernel(p) -> tuple[str, dict]:
    # MPPPB and Perceptron: the kernel reads the instance's description.
    pred = p.predictor
    return "perceptron", {
        "features": tuple((f.source, f.salt) for f in pred.features),
        "table_bits": pred.table_bits,
        "theta": pred.theta,
        "weight_min": pred.weight_min,
        "weight_max": pred.weight_max,
        "max_rrpv": p.max_rrpv,
        "history_length": p.history.maxlen,
        "num_sampler_sets": p.num_sampler_sets,
        "sampler_assoc": p.sampler_assoc,
        "bypass_above": p.bypass_above,
        "promote_at_most": p.promote_at_most,
        "hold_below": p.hold_below,
        "fill_cuts": p.fill_cuts,
    }


_SPECS: dict[str, PolicySpec] = {
    "lru": PolicySpec(LRUPolicy, LRUPolicy, lambda p: ("lru", {})),
    "mru": PolicySpec(MRUPolicy, MRUPolicy, lambda p: ("mru", {})),
    "random": PolicySpec(
        RandomPolicy, RandomPolicy, lambda p: ("random", {"seed": p._seed})
    ),
    # One RRIP kernel for the family: SRRIP inserts long in every set,
    # BRRIP draws in every set, DRRIP duels the two through PSEL.
    "srrip": PolicySpec(
        SRRIPPolicy,
        SRRIPPolicy,
        lambda p: ("drrip", {"max_rrpv": p.max_rrpv, "long_prob": None, "seed": 0}),
    ),
    "brrip": PolicySpec(
        BRRIPPolicy,
        BRRIPPolicy,
        lambda p: ("drrip", {
            "max_rrpv": p.max_rrpv,
            "long_prob": p.long_probability,
            "seed": p._seed,
        }),
    ),
    "drrip": PolicySpec(
        DRRIPPolicy,
        DRRIPPolicy,
        lambda p: ("drrip", {
            "max_rrpv": p.max_rrpv,
            "long_prob": p.long_probability,
            "seed": p._seed,
            "num_leader_sets": p.num_leader_sets,
            "psel_max": p.psel_max,
        }),
    ),
    "ship": PolicySpec(SHiPPolicy, SHiPPolicy, _ship_kernel),
    "ship++": PolicySpec(SHiPPlusPlusPolicy, SHiPPlusPlusPolicy, _ship_kernel),
    "sdbp": PolicySpec(SDBPPolicy, SDBPPolicy),
    "perceptron": PolicySpec(PerceptronPolicy, PerceptronPolicy, _perceptron_kernel),
    "mpppb": PolicySpec(MPPPBPolicy, MPPPBPolicy, _perceptron_kernel),
    "hawkeye": PolicySpec(
        HawkeyePolicy,
        HawkeyePolicy,
        lambda p: ("hawkeye", {
            "table_bits": p.predictor.table_bits,
            "counter_max": p.predictor.counter_max,
            "num_sampled_sets": p.num_sampled_sets,
            "window_factor": p.window_factor,
        }),
    ),
    "glider": PolicySpec(
        lambda **kw: GliderPolicy(GliderConfig(**kw)),
        GliderPolicy,
        _glider_kernel,
    ),
}

#: The policies compared in the paper's online evaluation (Figures 11-13).
PAPER_POLICIES = ("lru", "hawkeye", "mpppb", "ship++", "glider")


class UnknownPolicyError(KeyError):
    """Lookup of a policy name that is not registered.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the message lists every registered name plus the
    closest matches to the typo.
    """

    def __init__(self, name: str, available: list[str]) -> None:
        suggestions = difflib.get_close_matches(name, available, n=3, cutoff=0.5)
        message = f"unknown policy {name!r}; available: {available}"
        if suggestions:
            message += f" (did you mean {' or '.join(map(repr, suggestions))}?)"
        super().__init__(message)
        self.policy_name = name
        self.available = available
        self.suggestions = suggestions

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


def available_policies() -> list[str]:
    """Names of all constructible policies."""
    return sorted(_SPECS)


def policy_specs() -> Mapping[str, PolicySpec]:
    """Read-only live view of every spec, in registration order."""
    return MappingProxyType(_SPECS)


def spec_for_instance(policy: ReplacementPolicy) -> PolicySpec | None:
    """The spec whose class is exactly ``type(policy)``, if any."""
    kind = type(policy)
    return next((spec for spec in _SPECS.values() if spec.cls is kind), None)


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Construct a fresh policy instance by registry name.

    ``kwargs`` are forwarded to the policy constructor (Glider's go to
    :class:`GliderConfig`).
    """
    try:
        spec = _SPECS[name]
    except KeyError:
        raise UnknownPolicyError(name, available_policies()) from None
    return spec.make(**kwargs)


def register_policy(name: str, factory: Callable[[], ReplacementPolicy]) -> None:
    """Register a custom policy factory (for user extensions and tests).

    The spec has no kernel of its own, so the conformance fuzzer covers
    the name as reference-only.  Replays resolve the name through the
    instance ``factory`` builds: an exact registered class (say
    :class:`LRUPolicy`) takes that class's kernel, anything else the
    reference engine.
    """
    if name in _SPECS:
        raise ValueError(f"policy {name!r} is already registered")
    _SPECS[name] = PolicySpec(factory, None)
