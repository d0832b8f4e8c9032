"""Hawkeye [Jain & Lin, ISCA 2016] — the paper's foundation and baseline.

Hawkeye phrases replacement as supervised learning from MIN: OPTgen
reconstructs Belady's decisions on sampled sets, and a table of per-PC
3-bit saturating counters learns whether each load PC's lines tend to be
cache-friendly.  Predicted-friendly lines insert at RRPV 0, predicted-
averse at RRPV 7; on eviction of a friendly line the inserting PC is
detrained (the prediction was wrong).  Those modules are
:class:`~repro.optgen.policy._OptGenTrainedPolicy`'s, which Glider
shares; this module supplies only the counter table, which reads no
context.
"""

from __future__ import annotations

from ..optgen.policy import MAX_RRPV, _OptGenTrainedPolicy


class HawkeyePredictor:
    """Per-PC 3-bit saturating counter table (the classifier Glider replaces)."""

    def __init__(self, table_bits: int = 11, counter_bits: int = 3) -> None:
        self.table_bits = table_bits
        self.counter_max = (1 << counter_bits) - 1
        self.table = [self.midpoint] * (1 << table_bits)

    @property
    def midpoint(self) -> int:
        """The counter value from which a PC predicts cache-friendly."""
        return (self.counter_max + 1) // 2

    def _index(self, pc: int) -> int:
        x = pc & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 15
        x = (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
        return x & ((1 << self.table_bits) - 1)

    def train(self, pc: int, cache_friendly: bool) -> None:
        idx = self._index(pc)
        if cache_friendly:
            self.table[idx] = min(self.counter_max, self.table[idx] + 1)
        else:
            self.table[idx] = max(0, self.table[idx] - 1)

    def predict_friendly(self, pc: int) -> bool:
        return self.counter(pc) >= self.midpoint

    def counter(self, pc: int) -> int:
        """The raw saturating-counter value backing ``pc``'s prediction."""
        return self.table[self._index(pc)]

    def reset(self) -> None:
        self.table = [self.midpoint] * len(self.table)


class HawkeyePolicy(_OptGenTrainedPolicy):
    """The Hawkeye replacement policy (CRC2-winning configuration shape)."""

    name = "hawkeye"
    signal_kind = "counter"

    def __init__(
        self,
        table_bits: int = 11,
        num_sampled_sets: int = 64,
        window_factor: int = 8,
    ) -> None:
        super().__init__(num_sampled_sets, window_factor)
        self.predictor = HawkeyePredictor(table_bits=table_bits)

    def _predict(self, pc: int, context) -> tuple[bool, int, int]:
        counter = self.predictor.counter(pc)
        friendly = counter >= self.predictor.midpoint
        return friendly, 0 if friendly else MAX_RRPV, counter

    def _train_predictor(self, pc: int, context, label: bool) -> None:
        self.predictor.train(pc, label)

    def prediction(self, pc: int, core: int, address: int) -> dict:
        return {"friendly": bool(self.predictor.predict_friendly(pc))}

    def reset(self) -> None:
        self.predictor.reset()
        super().reset()

    def _predictor_introspect(self) -> dict:
        counters = self.predictor.table
        midpoint = self.predictor.midpoint
        return {
            "predictor_friendly_entries": sum(1 for c in counters if c >= midpoint),
            "predictor_saturated_entries": sum(
                1 for c in counters if c in (0, self.predictor.counter_max)
            ),
        }
