"""Hawkeye [Jain & Lin, ISCA 2016] — the paper's foundation and baseline.

Hawkeye phrases replacement as supervised learning from MIN: OPTgen
reconstructs Belady's decisions on sampled sets, and a table of per-PC
3-bit saturating counters learns whether each load PC's lines tend to be
cache-friendly.  Predicted-friendly lines insert at RRPV 0, predicted-
averse at RRPV 7; on eviction of a friendly line the inserting PC is
detrained (the prediction was wrong).  Glider keeps this entire
training/insertion structure and swaps only the predictor (Section 4.4:
"we replace the predictor module of Hawkeye with ISVM, keeping other
modules the same").
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy
from ..obs import insight as obs_insight
from ..optgen.sampler import OptGenSampler

#: policy_state keys shared by Hawkeye-structured policies.
RRPV_KEY = "hawkeye_rrpv"
FRIENDLY_KEY = "hawkeye_friendly"

#: Hawkeye's RRPV width (3 bits: 0..7).
MAX_RRPV = 7


class HawkeyePredictor:
    """Per-PC 3-bit saturating counter table (the classifier Glider replaces)."""

    def __init__(self, table_bits: int = 11, counter_bits: int = 3) -> None:
        self.table_bits = table_bits
        self.counter_max = (1 << counter_bits) - 1
        self.table = [(self.counter_max + 1) // 2] * (1 << table_bits)

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
        return self.table[self._index(pc)] >= (self.counter_max + 1) // 2

    def counter(self, pc: int) -> int:
        """The raw saturating-counter value backing ``pc``'s prediction."""
        return self.table[self._index(pc)]

    def reset(self) -> None:
        self.table = [(self.counter_max + 1) // 2] * len(self.table)


class HawkeyePolicy(ReplacementPolicy):
    """The Hawkeye replacement policy (CRC2-winning configuration shape)."""

    name = "hawkeye"

    def __init__(
        self,
        table_bits: int = 11,
        num_sampled_sets: int = 64,
        window_factor: int = 8,
    ) -> None:
        super().__init__()
        self.predictor = HawkeyePredictor(table_bits=table_bits)
        self.num_sampled_sets = num_sampled_sets
        self.window_factor = window_factor
        self.sampler: OptGenSampler | None = None
        # Online-accuracy accounting (Figure 10): each sampler event also
        # scores the prediction made when the line was inserted.
        self.prediction_checks = 0
        self.prediction_correct = 0

    def attach(self, cache) -> None:
        super().attach(cache)
        self.sampler = OptGenSampler(
            num_sets=cache.num_sets,
            associativity=cache.associativity,
            num_sampled_sets=self.num_sampled_sets,
            window_factor=self.window_factor,
        )

    # -- prediction context --------------------------------------------------
    def _context(self, request: CacheRequest):
        """Context snapshot stored with sampled lines; Hawkeye needs none."""
        return self.predictor.predict_friendly(request.pc)

    def _train(self, pc: int, context, label: bool) -> None:
        self.predictor.train(pc, label)
        predicted_friendly = context
        if predicted_friendly is not None:
            self.prediction_checks += 1
            if bool(predicted_friendly) == bool(label):
                self.prediction_correct += 1

    def prediction(self, pc: int, core: int, address: int) -> dict:
        return {"friendly": bool(self.predictor.predict_friendly(pc))}

    @property
    def online_accuracy(self) -> float:
        """Fraction of sampler-labelled accesses predicted correctly."""
        return self.prediction_correct / max(1, self.prediction_checks)

    # -- RRIP-with-ageing helpers ---------------------------------------------
    def _insert(self, line: CacheLine, set_index: int, friendly: bool) -> None:
        line.policy_state[FRIENDLY_KEY] = friendly
        if friendly:
            line.policy_state[RRPV_KEY] = 0
            # Age other friendly lines so older friendly lines lose priority,
            # but never into the averse band (cap at MAX_RRPV - 1).
            for other in self.cache.sets[set_index]:
                if other is line or not other.valid:
                    continue
                if other.policy_state.get(FRIENDLY_KEY, False):
                    rrpv = other.policy_state.get(RRPV_KEY, 0)
                    other.policy_state[RRPV_KEY] = min(MAX_RRPV - 1, rrpv + 1)
        else:
            line.policy_state[RRPV_KEY] = MAX_RRPV

    # -- hooks ------------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        if self.sampler is None or request.access_type is AccessType.WRITEBACK:
            return
        line = request.address >> 6
        context = self._context(request)
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            recorder.on_demand_access(
                line,
                request.pc,
                context,
                counter=self.predictor.counter(request.pc),
            )
        for event in self.sampler.access(line, request.pc, context):
            self._train(event.pc, event.context, event.label)

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        if request.access_type is AccessType.WRITEBACK:
            return
        friendly = self.predictor.predict_friendly(request.pc)
        line.policy_state[FRIENDLY_KEY] = friendly
        line.policy_state[RRPV_KEY] = 0 if friendly else MAX_RRPV
        line.pc = request.pc  # reuse attribution follows the latest toucher

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        # Prefer cache-averse lines (RRPV == MAX_RRPV).
        victim_way = None
        for way, line in enumerate(ways):
            if line.policy_state.get(RRPV_KEY, MAX_RRPV) >= MAX_RRPV:
                victim_way = way
                break
        if victim_way is None:
            # No averse line: evict the oldest friendly line (highest RRPV)
            # and detrain the PC that last touched it — MIN would not have
            # kept it.
            victim_way = max(
                range(len(ways)), key=lambda w: ways[w].policy_state.get(RRPV_KEY, 0)
            )
            self.predictor.train(ways[victim_way].pc, cache_friendly=False)
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            line = ways[victim_way]
            recorder.on_eviction(
                self.cache.line_address(set_index, line.tag) >> 6,
                predicted_friendly=line.policy_state.get(FRIENDLY_KEY),
                rrpv=line.policy_state.get(RRPV_KEY),
                pc=line.pc,
            )
        return victim_way

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        if request.access_type is AccessType.WRITEBACK:
            self._insert(line, set_index, friendly=False)
            return
        friendly = self.predictor.predict_friendly(request.pc)
        self._insert(line, set_index, friendly)

    def reset(self) -> None:
        self.predictor.reset()
        if self.cache is not None:
            self.attach(self.cache)
        self.prediction_checks = 0
        self.prediction_correct = 0

    def introspect(self) -> dict:
        """Internal signals for the observability layer (JSON-safe)."""
        counters = self.predictor.table
        midpoint = (self.predictor.counter_max + 1) // 2
        payload = {
            "prediction_checks": self.prediction_checks,
            "prediction_correct": self.prediction_correct,
            "online_accuracy": self.online_accuracy,
            "predictor_friendly_entries": sum(1 for c in counters if c >= midpoint),
            "predictor_saturated_entries": sum(
                1 for c in counters if c in (0, self.predictor.counter_max)
            ),
        }
        if self.sampler is not None:
            payload["optgen_events"] = self.sampler.events_produced
            payload["optgen_hit_rate"] = self.sampler.opt_hit_rate()
            payload["optgen_occupancy"] = self.sampler.occupancy_histogram()
        return payload
