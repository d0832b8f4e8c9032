"""Forward reuse-distance replacement (``frd``).

*Learning Forward Reuse Distance* (Li & Gu; PAPERS.md) regresses the
actual forward reuse distance of each access instead of Hawkeye's binary
friendly/averse label: the replacement rule becomes "evict the line
whose next access is predicted farthest in the future" — a direct online
approximation of Belady's MIN.  This module implements that idea as a
quantized-bucket perceptron head over hashed PC and address features:

* Forward reuse distances are quantized into :data:`NUM_BUCKETS`
  logarithmic buckets by :func:`quantize_distance` (monotone in the raw
  distance, so ordering predictions by bucket preserves the ordering of
  the underlying distances).
* A per-set multiclass perceptron (:class:`SetFRDPredictor`) scores
  every bucket from two hashed feature tables — the load PC, and the PC
  xor the line's page — and predicts the argmax bucket.  Training is the
  classic multiclass perceptron update with saturating weights: promote
  the observed bucket, demote the mispredicted one.
* Ground truth is harvested online from residency itself: a hit reveals
  the line's realized reuse distance since its last touch; an eviction
  of a never-reused line labels its fill as the "dead" top bucket.

Distances are measured on a **set-local clock** (demand accesses to the
set), never a global access index.  That makes the policy per-set-pure:
sharding a simulation by set index (``repro.serve``) replays exactly the
same per-set access subsequence and therefore reproduces every decision
bit-for-bit — the property ``tests/serve`` pins down.  It also matches
how Hawkeye's OPTgen measures time (set-local quanta).
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy
from ..obs import insight as obs_insight

#: Number of logarithmic reuse-distance buckets (bucket b covers
#: distances in [2^b, 2^(b+1)); the top bucket is open-ended = "dead").
NUM_BUCKETS = 8

#: The open-ended "no reuse expected" bucket.
DEAD_BUCKET = NUM_BUCKETS - 1

#: Saturation bound for perceptron weights (6-bit signed, like the
#: hardware ISVM proposals).
MAX_WEIGHT = 31

#: policy_state keys shared by the frd family (frd / deap).
BUCKET_KEY = "frd_bucket"
TOUCH_KEY = "frd_touch"
PC_KEY = "frd_pc"
REUSED_KEY = "frd_reused"


def feature_hash(value: int, salt: int, bits: int) -> int:
    """Salted 64-bit mix of ``value`` folded to a ``bits``-wide index."""
    x = (value ^ (salt * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 12
    x = (x * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 25
    return x & ((1 << bits) - 1)


def quantize_distance(distance: int) -> int:
    """Quantize a forward reuse distance (>= 1) to its log2 bucket.

    Monotone by construction: ``d1 <= d2`` implies
    ``quantize_distance(d1) <= quantize_distance(d2)`` — the property
    the eviction rule relies on (ordering by bucket orders by distance)
    and that the Hypothesis suite checks directly.
    """
    if distance < 1:
        distance = 1
    return min(NUM_BUCKETS - 1, distance.bit_length() - 1)


def bucket_midpoint(bucket: int) -> int:
    """Representative raw distance for a bucket (its geometric middle).

    The open-ended :data:`DEAD_BUCKET` maps far beyond every bounded
    bucket so "predicted dead" always loses ties for retention.
    Round-trips: ``quantize_distance(bucket_midpoint(b)) == b`` for
    every bounded bucket.
    """
    if bucket >= DEAD_BUCKET:
        return 1 << (NUM_BUCKETS + 2)
    return (1 << bucket) + (1 << bucket) // 2


class SetFRDPredictor:
    """Multiclass perceptron head over hashed PC + address features.

    One instance serves one cache set; all state is plain ints in lists
    so the predictor pickles cleanly (streaming-replay checkpoints and
    serve snapshots both pickle the owning policy).
    """

    def __init__(self, table_bits: int = 6, num_buckets: int = NUM_BUCKETS) -> None:
        self.table_bits = table_bits
        self.num_buckets = num_buckets
        size = 1 << table_bits
        self.pc_weights = [[0] * num_buckets for _ in range(size)]
        self.addr_weights = [[0] * num_buckets for _ in range(size)]
        self.trainings = 0

    def _rows(self, pc: int, address: int) -> tuple[list[int], list[int]]:
        return (
            self.pc_weights[feature_hash(pc, 0x51, self.table_bits)],
            self.addr_weights[
                feature_hash(pc ^ (address >> 12), 0xA3, self.table_bits)
            ],
        )

    def predict(self, pc: int, address: int) -> int:
        """Argmax bucket (lowest bucket wins ties, so an untrained
        predictor optimistically predicts imminent reuse and never
        bypasses/dead-blocks before it has evidence)."""
        pc_row, addr_row = self._rows(pc, address)
        best, best_score = 0, pc_row[0] + addr_row[0]
        for bucket in range(1, self.num_buckets):
            score = pc_row[bucket] + addr_row[bucket]
            if score > best_score:
                best, best_score = bucket, score
        return best

    def train(self, pc: int, address: int, bucket: int) -> None:
        """Perceptron update toward the observed ``bucket``."""
        self.trainings += 1
        predicted = self.predict(pc, address)
        if predicted == bucket:
            return
        for row in self._rows(pc, address):
            row[bucket] = min(MAX_WEIGHT, row[bucket] + 1)
            row[predicted] = max(-MAX_WEIGHT, row[predicted] - 1)


class _SetState:
    """Per-set clock + predictor (lazily allocated per touched set)."""

    __slots__ = ("clock", "predictor")

    def __init__(self, table_bits: int) -> None:
        self.clock = 0
        self.predictor = SetFRDPredictor(table_bits=table_bits)

    def __getstate__(self):  # __slots__ classes need explicit pickling
        return (self.clock, self.predictor)

    def __setstate__(self, state) -> None:
        self.clock, self.predictor = state


class FRDPolicy(ReplacementPolicy):
    """Evict the line with the largest predicted forward reuse distance."""

    name = "frd"

    #: Predictions strictly below this bucket count as "cache-friendly"
    #: for the binary telemetry surfaces (obs insight, serve decisions).
    friendly_bucket = NUM_BUCKETS // 2

    def __init__(self, table_bits: int = 6) -> None:
        super().__init__()
        self.table_bits = table_bits
        self._sets: dict[int, _SetState] = {}
        self.prediction_checks = 0
        self.prediction_correct = 0
        self.predicted_hist = [0] * NUM_BUCKETS
        self.realized_hist = [0] * NUM_BUCKETS

    # -- per-set state -------------------------------------------------------
    def _state(self, set_index: int) -> _SetState:
        state = self._sets.get(set_index)
        if state is None:
            state = self._sets[set_index] = _SetState(self.table_bits)
        return state

    # -- serve-facing prediction ---------------------------------------------
    def predict_reuse(self, pc: int, address: int) -> dict:
        """Reuse prediction for the serve decision endpoints (JSON-safe).

        Read-only with respect to behavior: it may lazily allocate the
        set's zeroed state but never trains or advances a clock, so
        interleaving predict requests with accesses cannot perturb
        replacement decisions.
        """
        set_index = self.cache.set_index(address) if self.cache is not None else 0
        bucket = self._state(set_index).predictor.predict(pc, address)
        return {
            "friendly": bucket < self.friendly_bucket,
            "bucket": bucket,
            "distance": bucket_midpoint(bucket),
        }

    def prediction(self, pc: int, core: int, address: int) -> dict:
        return self.predict_reuse(pc, address)

    # -- hooks ---------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        state = self._state(set_index)
        state.clock += 1
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            bucket = state.predictor.predict(request.pc, request.address)
            recorder.on_demand_access(
                self.cache.line_number(request.address),
                request.pc,
                bucket < self.friendly_bucket,
                counter=bucket,
                bucket=bucket,
            )

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        state = self._state(set_index)
        line = self.cache.sets[set_index][way]
        ps = line.policy_state
        touch = ps.get(TOUCH_KEY)
        if touch is not None:
            observed = quantize_distance(state.clock - touch)
            self.realized_hist[observed] += 1
            address = self.cache.line_address(set_index, line.tag)
            state.predictor.train(ps.get(PC_KEY, request.pc), address, observed)
            predicted = ps.get(BUCKET_KEY)
            if predicted is not None:
                self.prediction_checks += 1
                if predicted == observed:
                    self.prediction_correct += 1
        ps[BUCKET_KEY] = state.predictor.predict(request.pc, request.address)
        ps[TOUCH_KEY] = state.clock
        ps[PC_KEY] = request.pc
        ps[REUSED_KEY] = True

    def _predicted_next(self, line: CacheLine) -> int:
        """Set-clock time of the line's predicted next access."""
        ps = line.policy_state
        return ps.get(TOUCH_KEY, 0) + bucket_midpoint(
            ps.get(BUCKET_KEY, DEAD_BUCKET)
        )

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        victim_way = max(
            range(len(ways)), key=lambda w: self._predicted_next(ways[w])
        )
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            line = ways[victim_way]
            bucket = line.policy_state.get(BUCKET_KEY)
            recorder.on_eviction(
                self.cache.line_number(
                    self.cache.line_address(set_index, line.tag)
                ),
                predicted_friendly=(
                    None if bucket is None else bucket < self.friendly_bucket
                ),
                rrpv=bucket,
                pc=line.pc,
            )
        return victim_way

    def on_evict(
        self, set_index: int, way: int, line: CacheLine, request: CacheRequest
    ) -> None:
        ps = line.policy_state
        if ps.get(REUSED_KEY) is False:
            pc = ps.get(PC_KEY)
            if pc is not None:
                address = self.cache.line_address(set_index, line.tag)
                self._state(set_index).predictor.train(pc, address, DEAD_BUCKET)

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        state = self._state(set_index)
        ps = self.cache.sets[set_index][way].policy_state
        if request.access_type is AccessType.WRITEBACK:
            # Writebacks carry the inserting PC, not a program-order PC:
            # do not consult or train the predictor, insert as distant.
            ps[BUCKET_KEY] = DEAD_BUCKET
            ps[TOUCH_KEY] = state.clock
            return
        bucket = state.predictor.predict(request.pc, request.address)
        self.predicted_hist[bucket] += 1
        ps[BUCKET_KEY] = bucket
        ps[TOUCH_KEY] = state.clock
        ps[PC_KEY] = request.pc
        ps[REUSED_KEY] = False

    # -- lifecycle / observability --------------------------------------------
    @property
    def online_accuracy(self) -> float:
        """Fraction of realized reuse distances predicted bucket-exact."""
        return self.prediction_correct / max(1, self.prediction_checks)

    def reset(self) -> None:
        self._sets = {}
        self.prediction_checks = 0
        self.prediction_correct = 0
        self.predicted_hist = [0] * NUM_BUCKETS
        self.realized_hist = [0] * NUM_BUCKETS

    def introspect(self) -> dict:
        """Internal signals for the observability layer (JSON-safe)."""
        return {
            "sets_tracked": len(self._sets),
            "trainings": sum(s.predictor.trainings for s in self._sets.values()),
            "prediction_checks": self.prediction_checks,
            "prediction_correct": self.prediction_correct,
            "online_accuracy": self.online_accuracy,
            "predicted_bucket_hist": list(self.predicted_hist),
            "realized_bucket_hist": list(self.realized_hist),
        }
