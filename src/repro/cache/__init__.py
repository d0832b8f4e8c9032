"""Cache-simulator substrate: configs, cache structures, hierarchy.

The :mod:`~repro.cache.fastsim` exports resolve on first use:
``fastsim`` imports the policy registry, which imports
:mod:`repro.core.glider`, which imports this package's leaf modules, so
loading ``fastsim`` here would close the cycle ``core.glider -> cache
-> cache.fastsim -> policies.registry -> core.glider``.
"""

from importlib import import_module

from .block import AccessResult, AccessType, CacheLine, CacheRequest
from .cache import SetAssociativeCache
from .config import (
    CacheConfig,
    DramConfig,
    HierarchyConfig,
    paper_hierarchy,
    scaled_hierarchy,
)
from .hierarchy import (
    CacheHierarchy,
    LLCStream,
    filter_to_llc_stream,
    simulate_llc,
)
from .policy import BYPASS, ReplacementPolicy
from .stats import CacheStats

__all__ = [
    "AccessResult",
    "AccessType",
    "BYPASS",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLine",
    "CacheRequest",
    "CacheStats",
    "DramConfig",
    "EngineParityError",
    "FAST_PATH_POLICIES",
    "HierarchyConfig",
    "LLCStream",
    "ReplacementPolicy",
    "SetAssociativeCache",
    "fast_filter_to_llc_stream",
    "filter_to_llc_stream",
    "paper_hierarchy",
    "scaled_hierarchy",
    "simulate_llc",
    "verify_parity",
]

_LAZY = {
    "FAST_PATH_POLICIES": "fastsim",
    "EngineParityError": "fastsim",
    "fast_filter_to_llc_stream": "fastsim",
    "verify_parity": "fastsim",
}


def __getattr__(name: str):
    """Resolve a lazy export on first use and cache it (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
