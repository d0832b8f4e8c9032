"""Replacement-policy zoo: the paper's baselines plus classic policies."""

from ..cache.policy import BYPASS, ReplacementPolicy
from .belady_policy import BeladyPolicy
from .hawkeye import HawkeyePolicy, HawkeyePredictor
from .lru import LRUPolicy, MRUPolicy
from .mpppb import MPPPBPolicy
from .perceptron import PerceptronPolicy, PerceptronReusePredictor
from .random_policy import RandomPolicy
from .registry import (
    PAPER_POLICIES,
    UnknownPolicyError,
    available_policies,
    make_policy,
    register_policy,
)
from .rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from .sdbp import SDBPPolicy, SkewedPredictor
from .ship import SHiPPlusPlusPolicy, SHiPPolicy, pc_signature

__all__ = [
    "BYPASS",
    "BRRIPPolicy",
    "BeladyPolicy",
    "DRRIPPolicy",
    "HawkeyePolicy",
    "HawkeyePredictor",
    "LRUPolicy",
    "MPPPBPolicy",
    "MRUPolicy",
    "PAPER_POLICIES",
    "PerceptronPolicy",
    "PerceptronReusePredictor",
    "RandomPolicy",
    "ReplacementPolicy",
    "SDBPPolicy",
    "SHiPPlusPlusPolicy",
    "SHiPPolicy",
    "SRRIPPolicy",
    "SkewedPredictor",
    "UnknownPolicyError",
    "available_policies",
    "make_policy",
    "pc_signature",
    "register_policy",
]
