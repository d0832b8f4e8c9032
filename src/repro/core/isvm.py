"""The Integer SVM (ISVM) predictor — Glider's replacement for Hawkeye's
per-PC counters.

Hardware organisation (Section 4.4, Figure 8):

* an **ISVM table**: a direct-mapped table indexed by a hash of the
  *current* PC; each entry is one ISVM consisting of 16 signed 8-bit
  weights;
* each PC in the PC History Register is hashed to 4 bits, selecting one
  of the entry's 16 weights; prediction sums the selected weights.

Training (Section 4.4, "Training"): when OPTgen says the line should
have been cached, the selected weights are incremented by 1, otherwise
decremented — *unless* the current sum already exceeds the training
threshold θ, the perceptron-style update gate that prevents over-
training (Fact 1 shows this integer rule is gradient descent on the
hinge loss with learning rate 1/n).  Glider adaptively picks θ from
{0, 30, 100, 300, 3000}.

Prediction (Section 4.4, "Prediction"): sum >= 60 → cache-friendly with
high confidence; sum < 0 → cache-averse; otherwise friendly with low
confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .features import hash_pc

#: The candidate training thresholds Glider adapts over (Section 4.4).
THRESHOLD_CANDIDATES = (0, 30, 100, 300, 3000)

#: Prediction confidence thresholds (Section 4.4).
HIGH_CONFIDENCE_SUM = 60
AVERSE_SUM = 0


class Confidence(Enum):
    """Three-way prediction outcome mapped to insertion priorities."""

    FRIENDLY_HIGH = "friendly_high"  # sum >= 60  -> RRPV 0
    FRIENDLY_LOW = "friendly_low"  # 0 <= sum < 60 -> RRPV 2
    AVERSE = "averse"  # sum < 0 -> RRPV 7

    @property
    def is_friendly(self) -> bool:
        return self is not Confidence.AVERSE


@dataclass
class Prediction:
    """An ISVM prediction: raw weight sum plus its confidence band."""

    total: int
    confidence: Confidence

    @property
    def is_friendly(self) -> bool:
        return self.confidence.is_friendly


class ISVM:
    """One integer SVM: 16 signed 8-bit weights, one per 4-bit PC hash.

    The weight count is configurable (``1 << weight_hash_bits``) for the
    aliasing ablation; the paper's hardware uses 16.
    """

    __slots__ = ("weights",)

    NUM_WEIGHTS = 16
    WEIGHT_MIN = -128
    WEIGHT_MAX = 127

    def __init__(self, num_weights: int = NUM_WEIGHTS) -> None:
        self.weights = [0] * num_weights

    def total(self, indices: Iterable[int]) -> int:
        return sum(self.weights[i] for i in indices)

    def update(self, indices: Iterable[int], delta: int) -> None:
        for i in indices:
            w = self.weights[i] + delta
            self.weights[i] = max(self.WEIGHT_MIN, min(self.WEIGHT_MAX, w))


@dataclass
class ISVMTableStats:
    """Training/prediction telemetry for accuracy accounting."""

    trainings: int = 0
    gated_updates: int = 0  # updates skipped by the threshold rule
    predictions: int = 0


@dataclass(frozen=True)
class ISVMHealth:
    """Saturation/health snapshot of an ISVM table.

    A weight pinned at WEIGHT_MIN/WEIGHT_MAX can no longer move in one
    direction, so a table whose active entries are mostly saturated has
    silently stopped learning — the counter-state failure mode the
    robustness guards watch for.
    """

    num_entries: int
    active_entries: int  # entries with any non-zero weight
    active_weights: int  # total weights across active entries
    saturated_weights: int
    max_abs_weight: int

    @property
    def saturated_fraction(self) -> float:
        """Saturated share of the weights that have ever been trained."""
        return self.saturated_weights / max(1, self.active_weights)

    def healthy(self, max_saturated_fraction: float = 0.25) -> bool:
        return self.saturated_fraction <= max_saturated_fraction


class ISVMTable:
    """Direct-mapped table of per-PC ISVMs plus the adaptive threshold.

    Args:
        table_bits: log2 of the number of tracked PCs (11 -> 2048, the
            paper's budget).
        weight_hash_bits: Width of the per-history-PC hash (4 -> 16
            weights per ISVM).
        threshold: Initial training threshold; when ``adaptive`` is set
            the table re-selects from :data:`THRESHOLD_CANDIDATES` based
            on recent training accuracy.
    """

    def __init__(
        self,
        table_bits: int = 11,
        weight_hash_bits: int = 4,
        threshold: int = 30,
        adaptive: bool = True,
        adapt_interval: int = 512,
    ) -> None:
        self.table_bits = table_bits
        self.weight_hash_bits = weight_hash_bits
        self.initial_threshold = threshold
        self.threshold = threshold
        self.adaptive = adaptive
        self.adapt_interval = adapt_interval
        self._table: list[ISVM] = [
            ISVM(1 << weight_hash_bits) for _ in range(1 << table_bits)
        ]
        self.stats = ISVMTableStats()
        # Adaptive-threshold bookkeeping: windowed training accuracy per
        # candidate, explored round-robin.
        self._window_correct = 0
        self._window_total = 0
        self._candidate_scores: dict[int, float] = {}

    # -- indexing ------------------------------------------------------------
    def _entry(self, pc: int) -> ISVM:
        # Direct-mapped by the PC's low bits with the 4-byte-alignment
        # bits dropped — how hardware predictor tables are indexed.  For
        # programs with <= 2^table_bits static loads this is collision-
        # free, unlike a scrambling hash which pays birthday collisions.
        return self._table[(pc >> 2) & ((1 << self.table_bits) - 1)]

    def _weight_indices(self, history: Sequence[int]) -> list[int]:
        return [hash_pc(pc, self.weight_hash_bits) for pc in history]

    # -- prediction -------------------------------------------------------------
    def high_confidence_cut(self) -> int:
        """Weight sum above which a friendly prediction is high-confidence.

        The paper uses 60 with its simulated thresholds; since the
        training gate stops sums just past the active threshold θ, the
        cut is clamped so that a fully-trained context (sum ≈ θ) still
        qualifies as high confidence when θ < 60.
        """
        return min(HIGH_CONFIDENCE_SUM, max(1, self.threshold))

    def predict(self, pc: int, history: Sequence[int]) -> Prediction:
        """Predict the caching behaviour of ``pc`` given the PCHR contents."""
        self.stats.predictions += 1
        total = self._entry(pc).total(self._weight_indices(history))
        if total >= self.high_confidence_cut():
            confidence = Confidence.FRIENDLY_HIGH
        elif total < AVERSE_SUM:
            confidence = Confidence.AVERSE
        else:
            confidence = Confidence.FRIENDLY_LOW
        return Prediction(total=total, confidence=confidence)

    # -- training ------------------------------------------------------------------
    def train(self, pc: int, history: Sequence[int], cache_friendly: bool) -> None:
        """Apply one OPTgen-labelled update for (pc, history)."""
        self.stats.trainings += 1
        entry = self._entry(pc)
        indices = self._weight_indices(history)
        total = entry.total(indices)
        # Accuracy window for the adaptive threshold.
        predicted_friendly = total >= AVERSE_SUM
        self._window_total += 1
        if predicted_friendly == cache_friendly:
            self._window_correct += 1
        # Perceptron gate: if the sum is already confidently past the
        # margin in the right direction, skip the update.
        if cache_friendly and total > self.threshold:
            self.stats.gated_updates += 1
        elif not cache_friendly and total < -self.threshold:
            self.stats.gated_updates += 1
        else:
            entry.update(indices, 1 if cache_friendly else -1)
        if self.adaptive and self._window_total >= self.adapt_interval:
            self._adapt()

    def _adapt(self) -> None:
        """One-time exploration of the candidate thresholds.

        Each window scores the threshold that was live during it; after
        every candidate has one score, the best is locked in.  (The paper
        leaves the selection mechanism unspecified; a one-shot sweep
        avoids paying exploration cost for the rest of the run, and
        matches the observation that the choice matters little for
        multi-core workloads.)
        """
        accuracy = self._window_correct / max(1, self._window_total)
        self._window_correct = 0
        self._window_total = 0
        if self.threshold not in self._candidate_scores:
            self._candidate_scores[self.threshold] = accuracy
        unexplored = [t for t in THRESHOLD_CANDIDATES if t not in self._candidate_scores]
        if unexplored:
            self.threshold = unexplored[0]
        else:
            self.threshold = max(
                self._candidate_scores, key=lambda t: self._candidate_scores[t]
            )

    def reset(self) -> None:
        self._table = [
            ISVM(1 << self.weight_hash_bits) for _ in range(1 << self.table_bits)
        ]
        self.stats = ISVMTableStats()
        self.threshold = self.initial_threshold
        self._window_correct = 0
        self._window_total = 0
        self._candidate_scores = {}

    # -- health --------------------------------------------------------------------
    def health(self) -> ISVMHealth:
        """Saturation telemetry over the table (see :class:`ISVMHealth`)."""
        weights_per_entry = 1 << self.weight_hash_bits
        active_entries = 0
        saturated = 0
        max_abs = 0
        for entry in self._table:
            entry_active = False
            for w in entry.weights:
                if w:
                    entry_active = True
                    max_abs = max(max_abs, abs(w))
                    if w <= ISVM.WEIGHT_MIN or w >= ISVM.WEIGHT_MAX:
                        saturated += 1
            if entry_active:
                active_entries += 1
        return ISVMHealth(
            num_entries=len(self._table),
            active_entries=active_entries,
            active_weights=active_entries * weights_per_entry,
            saturated_weights=saturated,
            max_abs_weight=max_abs,
        )

    # -- budget accounting (Table 3 / Section 5.4) ---------------------------------
    def storage_bytes(self) -> int:
        """Model size in bytes: #entries x #weights x 1 byte."""
        return len(self._table) * (1 << self.weight_hash_bits)
