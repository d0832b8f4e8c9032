"""Perceptron-based reuse prediction [Teran, Wang & Jiménez, MICRO 2016].

The online perceptron predictor keeps one weight table per feature; a
prediction sums the weights selected by hashing each feature value
("yout"), and large positive sums predict *no reuse* (bypass / distant
insertion).  Training follows the perceptron rule on sampled sets —
update only on misprediction or when the magnitude of the sum is below
the training threshold θ.

:class:`_HashedPerceptronPolicy` is the one policy body; Perceptron and
:class:`~repro.policies.mpppb.MPPPBPolicy` are two descriptions on it,
read as written by the fast engine's ``perceptron`` kernel too.
Perceptron's distinguishing input, as in the paper's offline comparison,
is an *ordered* history of the last three load PCs (each conditioned on
its position), in contrast to Glider's unordered unique-PC history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import BYPASS, ReplacementPolicy
from .rrip import RRPV_KEY, rrip_victim


def _mix(value: int, salt: int, bits: int) -> int:
    x = (value ^ (salt * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 12
    x = (x * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 25
    return x & ((1 << bits) - 1)


def _fold(values: Sequence[int]) -> int:
    folded = 0
    for i, v in enumerate(values):
        folded ^= (v << (i % 7)) & 0xFFFFFFFFFFFFFFFF
    return folded


def feature_value(source, pc: int, history: Sequence[int], address: int) -> int:
    """The value a feature ``source`` indexes its table by, before hashing:
    an access column (``"pc"``, ``"page"``, ``"pc^page"``, ``"tag16"``,
    ``"offset6"``), the i-th most recent demand PC (``("hist", i)``, 0
    when absent) or the :func:`_fold` of the first n (``("fold", n)``)."""
    if source == "pc":
        return pc
    if source == "page":
        return address >> 12
    if source == "pc^page":
        return pc ^ (address >> 12)
    if source == "tag16":
        return (address >> 6) & 0xFFFF
    if source == "offset6":
        return (address >> 6) & 0x3F
    kind, n = source
    if kind == "hist":
        return history[n] if n < len(history) else 0
    if kind == "fold":
        return _fold(history[:n])
    raise ValueError(f"unknown feature source {source!r}")


def _perceptron_features(history_length: int) -> list[tuple]:
    """Perceptron's features: the PC, each ordered history position, the page."""
    positions = [(("hist", i), 211 + i) for i in range(history_length)]
    return [("pc", 101), *positions, ("page", 307)]


@dataclass
class PerceptronFeature:
    """One weight table and where its index comes from."""

    source: str | tuple[str, int]
    salt: int
    weights: list[int]


class PerceptronReusePredictor:
    """Sum-of-weights predictor over hashed features with θ-gated training.

    ``features`` are ``(source, salt)`` pairs (None: Perceptron's default
    three-position history); each gets a ``2**table_bits`` weight table
    clamped to ``[weight_min, weight_max]``.
    """

    def __init__(
        self,
        features: Sequence[tuple] | None = None,
        table_bits: int = 12,
        theta: int = 32,
        weight_min: int = -32,
        weight_max: int = 31,
    ) -> None:
        if features is None:
            features = _perceptron_features(3)
        self.table_bits = table_bits
        self.theta = theta
        self.weight_min = weight_min
        self.weight_max = weight_max
        self.features = [
            PerceptronFeature(source, salt, [0] * (1 << table_bits))
            for source, salt in features
        ]

    def _indices(self, pc: int, history: Sequence[int], address: int) -> list[int]:
        bits = self.table_bits
        return [
            _mix(feature_value(f.source, pc, history, address), f.salt, bits)
            for f in self.features
        ]

    def predict(self, pc: int, history: Sequence[int], address: int) -> int:
        """Return the summed weight ("yout"); >0 leans *no reuse*."""
        indices = self._indices(pc, history, address)
        return sum(f.weights[i] for f, i in zip(self.features, indices))

    def train(
        self, pc: int, history: Sequence[int], address: int, reused: bool
    ) -> None:
        """Perceptron update: push the sum toward -θ (reused) or +θ (dead)."""
        indices = self._indices(pc, history, address)
        total = sum(f.weights[i] for f, i in zip(self.features, indices))
        predicted_dead = total > 0
        actually_dead = not reused
        if predicted_dead != actually_dead or abs(total) < self.theta:
            delta = 1 if actually_dead else -1
            for f, i in zip(self.features, indices):
                w = f.weights[i] + delta
                f.weights[i] = max(self.weight_min, min(self.weight_max, w))

    def reset(self) -> None:
        for feature in self.features:
            feature.weights = [0] * len(feature.weights)


@dataclass
class _SamplerEntry:
    tag: int = -1
    pc: int = 0
    history: tuple = ()
    address: int = 0
    lru: int = 0
    valid: bool = False


class _HashedPerceptronPolicy(ReplacementPolicy):
    """An LLC policy driven by a hashed-perceptron reuse predictor.

    A decoupled LRU sampler (``sampler_assoc`` recent blocks in each of
    ``num_sampler_sets`` sampled sets) provides ground-truth reuse labels,
    as in SDBP/Perceptron hardware proposals.  Every demand access reads
    one ``yout`` from the pre-append PC history, and four decision fields
    map it onto an RRIP substrate:

    * ``bypass_above`` — a demand miss to a full set bypasses when
      ``yout > bypass_above`` (None: never);
    * ``promote_at_most`` / ``hold_below`` — a demand hit sets RRPV 0
      when ``yout <= promote_at_most``, keeps ``min(max_rrpv - 1, rrpv)``
      below ``hold_below`` and goes distant otherwise;
    * ``fill_cuts`` — a demand fill goes to ``max_rrpv``, ``max_rrpv - 1``
      or ``max_rrpv // 2`` by the first of the three cuts ``yout``
      exceeds, and to 0 when it exceeds none.

    Writebacks neither train nor predict: a writeback hit keeps its RRPV
    and a writeback fill goes distant.
    """

    def __init__(
        self,
        predictor: PerceptronReusePredictor,
        *,
        rrpv_bits: int,
        num_sampler_sets: int,
        sampler_assoc: int,
        history_length: int,
        bypass_above: int | None,
        promote_at_most: int,
        hold_below: int,
        fill_cuts: tuple[int, int, int],
    ) -> None:
        super().__init__()
        self.predictor = predictor
        self.max_rrpv = (1 << rrpv_bits) - 1
        self.num_sampler_sets = num_sampler_sets
        self.sampler_assoc = sampler_assoc
        self.bypass_above = bypass_above
        self.promote_at_most = promote_at_most
        self.hold_below = hold_below
        self.fill_cuts = fill_cuts
        self.history: deque[int] = deque(maxlen=history_length)
        # Pre-append history snapshot for the in-flight access, so that
        # prediction (on_hit/victim/on_fill) sees exactly the context the
        # sampler trains with.
        self._inflight_history: tuple[int, ...] = ()
        self._sampler: list[list[_SamplerEntry]] = []
        self._sampled_sets: dict[int, int] = {}
        self._clock = 0

    def attach(self, cache) -> None:
        super().attach(cache)
        count = min(self.num_sampler_sets, cache.num_sets)
        stride = max(1, cache.num_sets // count)
        self._sampled_sets = {i * stride: i for i in range(count)}
        self._sampler = [
            [_SamplerEntry() for _ in range(self.sampler_assoc)] for _ in range(count)
        ]

    # -- sampler ------------------------------------------------------------
    def _sampler_access(self, sampler_index: int, request: CacheRequest) -> None:
        self._clock += 1
        entries = self._sampler[sampler_index]
        tag = request.address >> 6
        entry = next((e for e in entries if e.valid and e.tag == tag), None)
        if entry is not None:
            self.predictor.train(entry.pc, entry.history, entry.address, reused=True)
        else:
            entry = min(entries, key=lambda e: (e.valid, e.lru))
            if entry.valid:
                self.predictor.train(entry.pc, entry.history, entry.address, reused=False)
            entry.valid = True
            entry.tag = tag
        entry.pc = request.pc
        entry.history = self._inflight_history
        entry.address = request.address
        entry.lru = self._clock

    # -- hooks ------------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        self._inflight_history = tuple(self.history)
        sampler_index = self._sampled_sets.get(set_index)
        if sampler_index is not None:
            self._sampler_access(sampler_index, request)
        self.history.appendleft(request.pc)

    def _yout(self, request: CacheRequest) -> int:
        return self.predictor.predict(
            request.pc, self._inflight_history, request.address
        )

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        state = self.cache.sets[set_index][way].policy_state
        yout = self._yout(request)
        if yout <= self.promote_at_most:
            state[RRPV_KEY] = 0
        elif yout < self.hold_below:
            state[RRPV_KEY] = min(self.max_rrpv - 1, state.get(RRPV_KEY, 0))
        else:
            state[RRPV_KEY] = self.max_rrpv

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        if (
            self.bypass_above is not None
            and request.access_type is not AccessType.WRITEBACK
            and self._yout(request) > self.bypass_above
        ):
            return BYPASS
        return rrip_victim(ways, self.max_rrpv)

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        state = self.cache.sets[set_index][way].policy_state
        if request.access_type is AccessType.WRITEBACK:
            state[RRPV_KEY] = self.max_rrpv
            return
        yout = self._yout(request)
        cut_far, cut_long, cut_mid = self.fill_cuts
        if yout > cut_far:
            state[RRPV_KEY] = self.max_rrpv
        elif yout > cut_long:
            state[RRPV_KEY] = self.max_rrpv - 1
        elif yout > cut_mid:
            state[RRPV_KEY] = self.max_rrpv // 2
        else:
            state[RRPV_KEY] = 0

    def reset(self) -> None:
        self.predictor.reset()
        self.history.clear()
        self._inflight_history = ()
        if self.cache is not None:
            self.attach(self.cache)
        self._clock = 0


class PerceptronPolicy(_HashedPerceptronPolicy):
    """LLC policy driven by the perceptron reuse predictor.

    Every decision is the one ``yout > dead_threshold`` test:
    predicted-dead fills insert at distant RRPV (optionally bypass) and
    predicted-dead hits demote; predicted-live fills and hits go near.
    """

    name = "perceptron"

    def __init__(
        self,
        history_length: int = 3,
        table_bits: int = 12,
        theta: int = 32,
        rrpv_bits: int = 3,
        num_sampler_sets: int = 64,
        sampler_assoc: int = 16,
        allow_bypass: bool = False,
        dead_threshold: int = 8,
    ) -> None:
        dead = dead_threshold
        super().__init__(
            PerceptronReusePredictor(
                _perceptron_features(history_length), table_bits, theta
            ),
            rrpv_bits=rrpv_bits,
            num_sampler_sets=num_sampler_sets,
            sampler_assoc=sampler_assoc,
            history_length=history_length,
            bypass_above=dead if allow_bypass else None,
            promote_at_most=dead,
            hold_below=dead + 1,
            fill_cuts=(dead, dead, dead),
        )
