"""Re-Reference Interval Prediction policies: SRRIP, BRRIP, DRRIP.

RRIP [Jaleel et al., ISCA 2010] attaches an M-bit Re-Reference
Prediction Value (RRPV) to each line: 0 predicts imminent reuse, the
maximum value predicts distant reuse.  Victims are lines with maximal
RRPV (ageing all lines until one exists).  The insertion RRPV is the
policy lever: SRRIP inserts at max-1 ("long"), BRRIP usually at max
("distant") with occasional long insertions, and DRRIP set-duels the
two.  RRIP is both a paper baseline ingredient (SHiP/Hawkeye/Glider
manage lines through RRPVs) and the substrate for our RRPV helpers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache.block import CacheLine, CacheRequest
from ..cache.policy import RRPV_KEY, ReplacementPolicy


def rrip_victim(ways: Sequence[CacheLine], max_rrpv: int) -> int:
    """Standard RRIP victim search: age until some way has max RRPV."""
    while True:
        for way, line in enumerate(ways):
            if line.policy_state.get(RRPV_KEY, max_rrpv) >= max_rrpv:
                return way
        for line in ways:
            line.policy_state[RRPV_KEY] = line.policy_state.get(RRPV_KEY, max_rrpv) + 1


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP: insert at long (max-1), promote to 0 on hit."""

    name = "srrip"

    def __init__(self, bits: int = 2) -> None:
        super().__init__()
        if bits < 1:
            raise ValueError("RRIP needs at least 1 bit")
        self.max_rrpv = (1 << bits) - 1

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        self.cache.sets[set_index][way].policy_state[RRPV_KEY] = 0

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        return rrip_victim(ways, self.max_rrpv)

    def insertion_rrpv(self, set_index: int, request: CacheRequest) -> int:
        return self.max_rrpv - 1

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        self.cache.sets[set_index][way].policy_state[RRPV_KEY] = self.insertion_rrpv(
            set_index, request
        )


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: insert at distant (max); long with low probability."""

    name = "brrip"

    def __init__(self, bits: int = 2, long_probability: float = 1 / 32, seed: int = 0) -> None:
        super().__init__(bits)
        self.long_probability = long_probability
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def insertion_rrpv(self, set_index: int, request: CacheRequest) -> int:
        if self._rng.random() < self.long_probability:
            return self.max_rrpv - 1
        return self.max_rrpv

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP: set-duelling between SRRIP and BRRIP insertion.

    A few leader sets are dedicated to each component policy; a PSEL
    saturating counter tracks which leader group misses less and steers
    the follower sets.
    """

    name = "drrip"

    def __init__(
        self,
        bits: int = 2,
        num_leader_sets: int = 32,
        psel_bits: int = 10,
        long_probability: float = 1 / 32,
        seed: int = 0,
    ) -> None:
        super().__init__(bits)
        self.num_leader_sets = num_leader_sets
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        self.long_probability = long_probability
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._srrip_leaders: set[int] = set()
        self._brrip_leaders: set[int] = set()

    def attach(self, cache) -> None:
        super().attach(cache)
        sets = cache.num_sets
        leaders = min(self.num_leader_sets, max(1, sets // 2))
        stride = max(1, sets // (2 * leaders))
        self._srrip_leaders = {(2 * i) * stride % sets for i in range(leaders)}
        self._brrip_leaders = {
            ((2 * i + 1) * stride) % sets for i in range(leaders)
        } - self._srrip_leaders

    def on_access(self, set_index: int, request: CacheRequest) -> None:
        # PSEL updates on misses in leader sets; resolved in victim() since
        # on_access fires before hit/miss is known.  We instead watch fills.
        pass

    def _use_brrip(self, set_index: int) -> bool:
        if set_index in self._srrip_leaders:
            return False
        if set_index in self._brrip_leaders:
            return True
        return self.psel < self.psel_max // 2

    def insertion_rrpv(self, set_index: int, request: CacheRequest) -> int:
        # A fill means this set missed: update PSEL if it is a leader.
        if set_index in self._srrip_leaders:
            self.psel = max(0, self.psel - 1)  # SRRIP missed -> favour BRRIP
        elif set_index in self._brrip_leaders:
            self.psel = min(self.psel_max, self.psel + 1)
        if self._use_brrip(set_index):
            if self._rng.random() < self.long_probability:
                return self.max_rrpv - 1
            return self.max_rrpv
        return self.max_rrpv - 1

    def reset(self) -> None:
        self.psel = self.psel_max // 2
        self._rng = np.random.default_rng(self._seed)
