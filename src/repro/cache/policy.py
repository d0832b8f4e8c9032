"""Replacement-policy interface.

The cache core is policy-agnostic: all replacement, insertion-priority
and bypass decisions are delegated to a :class:`ReplacementPolicy`
through the hooks below.  Concrete policies live in
:mod:`repro.policies` and :mod:`repro.core` (Glider).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .block import CacheLine, CacheRequest

if TYPE_CHECKING:  # pragma: no cover
    from .cache import SetAssociativeCache

#: Sentinel a policy's victim() may return to bypass the cache entirely.
BYPASS = -1

#: Key under which RRIP-managed policies keep a line's RRPV in its
#: policy_state (the conformance RRPV-bounds check reads it).
RRPV_KEY = "rrpv"


class ReplacementPolicy:
    """Base class for replacement policies.

    Lifecycle per access:

    * hit  -> :meth:`on_hit`
    * miss -> :meth:`victim` (may return :data:`BYPASS`); if a valid line
      is displaced, :meth:`on_evict`; then :meth:`on_fill` for the new
      line (not called on bypass).

    Policies that train on the demand stream regardless of hit/miss can
    override :meth:`on_access`, which is invoked before the hit/miss
    hooks on every demand access.

    **Event-stream contract** (asymmetric by design — this is what the
    cache core guarantees, and what ``tests/cache/test_policy_contract.py``
    pins down):

    * :meth:`on_access` fires for **demand accesses only** (loads and
      stores), never for writebacks.  It models the training stream a
      hardware predictor observes; writebacks carry the *inserting* PC,
      not a program-order PC, so feeding them to a PC-indexed predictor
      would corrupt it (cf. the SHiP++ writeback rules).
    * :meth:`on_hit`, :meth:`victim`, :meth:`on_evict` and
      :meth:`on_fill` fire for **every** access, writebacks included — a
      writeback that hits still touches the line (and must, or per-line
      bookkeeping such as Belady's stored next-use goes stale), and a
      writeback that misses still allocates (write-allocate).

    A policy that must not learn from writebacks therefore checks
    ``request.access_type is AccessType.WRITEBACK`` in the per-line
    hooks itself; it cannot rely on the hooks being demand-filtered.
    """

    #: Short machine name; the registry keys policies by this.
    name = "base"

    def __init__(self) -> None:
        self.cache: "SetAssociativeCache | None" = None

    # -- lifecycle -------------------------------------------------------
    def attach(self, cache: "SetAssociativeCache") -> None:
        """Bind the policy to a cache instance (called once by the cache)."""
        self.cache = cache

    @property
    def num_sets(self) -> int:
        if self.cache is None:
            raise RuntimeError(f"policy {self.name!r} is not attached to a cache")
        return self.cache.num_sets

    @property
    def associativity(self) -> int:
        if self.cache is None:
            raise RuntimeError(f"policy {self.name!r} is not attached to a cache")
        return self.cache.associativity

    # -- hooks -------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        """Called for every demand access, before hit/miss resolution."""

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        """Called when ``request`` hits in ``way`` of ``set_index``."""

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        """Choose the way to evict for a missing ``request``.

        ``ways`` always has ``associativity`` entries; invalid entries
        should normally be preferred.  Return :data:`BYPASS` to not cache
        the line at all.
        """
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        """Called after the missing line has been installed in ``way``."""

    def on_evict(
        self, set_index: int, way: int, line: CacheLine, request: CacheRequest
    ) -> None:
        """Called when a valid ``line`` is displaced to make room."""

    # -- prediction surface ------------------------------------------------
    def prediction(self, pc: int, core: int, address: int) -> dict | None:
        """JSON-safe answer to "will this line be reused?" for ``pc``.

        Read-only: it must not train or change any replacement decision.
        None (the default) means the policy has no reuse predictor; the
        serving layer returns it verbatim in decision responses.
        """
        return None

    # -- conveniences ------------------------------------------------------
    def first_invalid(self, ways: Sequence[CacheLine]) -> int | None:
        """Index of the first invalid way, or None if the set is full."""
        for i, line in enumerate(ways):
            if not line.valid:
                return i
        return None

    def reset(self) -> None:
        """Clear all learned state (between runs); default is stateless."""
