"""Offline linear models: the ISVM and the ordered-history "Perceptron".

Section 4.3 derives Glider's offline ISVM: per current PC, an integer
SVM over the k-sparse unordered feature of the last ``k`` unique PCs,
trained with hinge loss.  By Fact 1, gradient descent with learning rate
1/n on the unit-margin hinge loss is equivalent to integer updates with
margin ``n`` — so training uses ±1 integer updates gated by a threshold
(the reciprocal of the paper's "step size" in Table 5).

The ordered-history SVM reproduces the paper's "Perceptron" comparator
(Section 5.1, "Baseline Replacement Policies"): same hinge loss and
labels, but the feature is the *ordered* history of the last ``h`` PCs
with duplicates, each conditioned on its position — the representation
whose accuracy saturates at h≈4 in Figure 14.

Every feature depends only on the PC sequence, so a model derives each
position's features once per trace (:class:`_TraceFeatures`) and then
scans with plain integer updates.  Evaluation uses fixed weights and is
one vectorized NumPy sum.  Reads never insert into the weight dicts:
they hold exactly the weights that training wrote.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..core.features import PCHistoryRegister
from .dataset import LabelledTrace


@dataclass
class LinearEpochResult:
    """Telemetry for one pass over the training set."""

    epoch: int
    train_accuracy: float
    updates: int


class _TraceFeatures:
    """Every position's features for one PC sequence, as dense ids.

    ``keys[f]`` is feature ``f``'s key in the model's weight dicts;
    ``rows[i]`` holds position ``i``'s feature ids, and ``matrix`` holds
    the same rows padded with ``len(keys)``, a slot that scores 0.
    """

    def __init__(self, positions: Iterable[list]) -> None:
        index: dict = {}
        self.rows = [
            tuple(index.setdefault(key, len(index)) for key in keys) for keys in positions
        ]
        self.keys = list(index)
        width = max(map(len, self.rows), default=0)
        pad = (len(self.keys),) * width
        self.matrix = np.array(
            [row + pad[len(row) :] for row in self.rows], dtype=np.int64
        ).reshape(len(self.rows), width)


class _OfflineModel:
    """Epoch telemetry over a model's ``_scan`` (correct, total, updates)."""

    def fit_epoch(self, train_data: LabelledTrace, epoch: int = 0) -> LinearEpochResult:
        correct, total, updates = self._scan(train_data, train=True)
        return LinearEpochResult(
            epoch=epoch, train_accuracy=correct / max(1, total), updates=updates
        )

    def fit(self, train_data: LabelledTrace, epochs: int = 1) -> list[LinearEpochResult]:
        return [self.fit_epoch(train_data, e) for e in range(epochs)]

    def evaluate(self, data: LabelledTrace) -> float:
        correct, total, _ = self._scan(data, train=False)
        return correct / max(1, total)


class _IntegerHingeModel(_OfflineModel):
    """Shared scan for the ISVM and the ordered SVM.

    A position's score is the sum of its features' integer weights; an
    update adds ±1 to each of them unless the score is already past
    ``±threshold`` on the label's side.  Subclasses supply each
    position's feature keys (:meth:`_position_features`) and the dict
    each key's weight lives in (:meth:`_get` / :meth:`_set`).
    """

    def __init__(self) -> None:
        # Features of the last two traces seen (typically the train and
        # test splits), keyed by the PC sequence itself.
        self._feature_cache: dict[tuple, _TraceFeatures] = {}

    def _trace_features(self, pcs: np.ndarray) -> _TraceFeatures:
        key = (pcs.dtype.str, pcs.tobytes())
        features = self._feature_cache.get(key)
        if features is None:
            features = _TraceFeatures(self._position_features(pcs.tolist()))
            if len(self._feature_cache) >= 2:
                del self._feature_cache[next(iter(self._feature_cache))]
            self._feature_cache[key] = features
        return features

    def _scan(self, data: LabelledTrace, train: bool) -> tuple[int, int, int]:
        features = self._trace_features(data.pcs)
        labels = np.asarray(data.labels, dtype=bool)
        weights = [self._get(key) for key in features.keys]
        if not train:
            scores = np.array(weights + [0], dtype=np.int64)[features.matrix].sum(axis=1)
            return int(np.count_nonzero((scores >= 0) == labels)), len(labels), 0
        threshold = self.threshold
        correct = 0
        updated: list[int] = []
        for i, (label, row) in enumerate(zip(labels.tolist(), features.rows)):
            score = 0
            for f in row:
                score += weights[f]
            if (score >= 0) == label:
                correct += 1
            if label:
                if score > threshold:
                    continue
                for f in row:
                    weights[f] += 1
            else:
                if score < -threshold:
                    continue
                for f in row:
                    weights[f] -= 1
            updated.append(i)
        written = np.unique(features.matrix[updated])
        for f in written[written < len(weights)].tolist():
            self._set(features.keys[f], weights[f])
        return correct, len(labels), len(updated)


class OfflineISVM(_IntegerHingeModel):
    """Per-PC integer SVM over the unordered last-k-unique-PCs feature.

    Unlike the hardware :class:`~repro.core.isvm.ISVMTable`, the offline
    model keys weights exactly (no 4-bit hashing, no 2048-entry table) —
    it is the *unconstrained* version whose accuracy the hardware model
    approaches from below.
    """

    name = "offline_isvm"

    def __init__(self, k: int = 5, threshold: int = 1000) -> None:
        super().__init__()
        self.k = k
        self.threshold = threshold
        # weights[current_pc][history_pc] -> int; bias per current PC.
        self.weights: dict[int, dict[int, int]] = {}
        self.bias: dict[int, int] = {}

    # -- scoring ------------------------------------------------------------
    def _score(self, pc: int, history: tuple[int, ...]) -> int:
        entry = self.weights.get(pc, {})
        return self.bias.get(pc, 0) + sum(entry.get(h, 0) for h in history)

    def predict(self, pc: int, history: tuple[int, ...]) -> bool:
        return self._score(pc, history) >= 0

    def _update(self, pc: int, history: tuple[int, ...], label: bool) -> bool:
        """Hinge-gated integer update; returns True if weights changed."""
        score = self._score(pc, history)
        if label and score > self.threshold:
            return False
        if not label and score < -self.threshold:
            return False
        delta = 1 if label else -1
        entry = self.weights.setdefault(pc, {})
        for h in history:
            entry[h] = entry.get(h, 0) + delta
        self.bias[pc] = self.bias.get(pc, 0) + delta
        return True

    # -- features: the bias (pc, None) plus (pc, h) per PCHR entry h ----------
    def _position_features(self, pcs: list[int]) -> Iterator[list]:
        register = PCHistoryRegister(self.k)
        for pc in pcs:
            yield [(pc, None)] + [(pc, h) for h in register.snapshot()]
            register.insert(pc)

    def _get(self, key) -> int:
        pc, h = key
        if h is None:
            return self.bias.get(pc, 0)
        return self.weights.get(pc, {}).get(h, 0)

    def _set(self, key, value: int) -> None:
        pc, h = key
        if h is None:
            self.bias[pc] = value
        else:
            self.weights.setdefault(pc, {})[h] = value

    def storage_entries(self) -> int:
        return sum(len(entry) for entry in self.weights.values()) + len(self.bias)


class OrderedHistorySVM(_IntegerHingeModel):
    """The paper's "Perceptron" comparator: ordered PC history, hinge loss.

    Features: the current PC plus (position, PC) pairs for the last ``h``
    accesses *including duplicates and order*.
    """

    name = "ordered_svm"

    def __init__(self, history_length: int = 3, threshold: int = 1000) -> None:
        super().__init__()
        self.history_length = history_length
        self.threshold = threshold
        self.weights: dict[tuple, int] = {}

    def _features(self, pc: int, history: tuple[int, ...]) -> list[tuple]:
        features: list[tuple] = [("pc", pc)]
        for position, past_pc in enumerate(history):
            features.append(("hist", pc, position, past_pc))
        return features

    def _score(self, features: list[tuple]) -> int:
        return sum(self.weights.get(f, 0) for f in features)

    def predict(self, pc: int, history: tuple[int, ...]) -> bool:
        return self._score(self._features(pc, history)) >= 0

    def _position_features(self, pcs: list[int]) -> Iterator[list]:
        history: deque[int] = deque(maxlen=self.history_length)
        for pc in pcs:
            yield self._features(pc, tuple(history))
            history.appendleft(pc)

    def _get(self, key) -> int:
        return self.weights.get(key, 0)

    def _set(self, key, value: int) -> None:
        self.weights[key] = value


class OfflineHawkeye(_OfflineModel):
    """Hawkeye's per-PC 3-bit counters as an offline model (Figure 9 bar 1)."""

    name = "offline_hawkeye"

    def __init__(self, counter_bits: int = 3) -> None:
        self.counter_max = (1 << counter_bits) - 1
        self.initial = (self.counter_max + 1) // 2
        # Counters of the PCs training has seen; any other PC reads as
        # ``initial``.
        self.counters: dict[int, int] = {}

    def predict(self, pc: int) -> bool:
        return self.counters.get(pc, self.initial) >= self.initial

    def _scan(self, data: LabelledTrace, train: bool) -> tuple[int, int, int]:
        """One pass; every training access updates its counter."""
        vocab, ids = np.unique(data.pcs, return_inverse=True)
        vocab = vocab.tolist()
        labels = np.asarray(data.labels, dtype=bool)
        counters = [self.counters.get(pc, self.initial) for pc in vocab]
        if not train:
            friendly = np.array(counters, dtype=np.int64) >= self.initial
            return int(np.count_nonzero(friendly[ids] == labels)), len(ids), 0
        correct = 0
        initial, counter_max = self.initial, self.counter_max
        for pc, label in zip(ids.tolist(), labels.tolist()):
            value = counters[pc]
            if (value >= initial) == label:
                correct += 1
            if label:
                if value < counter_max:
                    counters[pc] = value + 1
            elif value > 0:
                counters[pc] = value - 1
        self.counters.update(zip(vocab, counters))
        return correct, len(ids), len(ids)
