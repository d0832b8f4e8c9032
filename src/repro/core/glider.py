"""The Glider cache replacement policy — the paper's contribution.

Glider = Hawkeye's structure (OPTgen-labelled training on sampled sets,
RRPV-managed insertion/eviction, detraining on premature evictions) with
the per-PC counter predictor replaced by the ISVM over the unordered
history of the last 5 unique PCs (Sections 4.3–4.4).

Insertion priorities (Section 4.4, "Prediction"):

* weight sum >= 60  -> cache-friendly, high confidence  -> RRPV 0
* 0 <= sum < 60     -> cache-friendly, low confidence   -> RRPV 2
* sum < 0           -> cache-averse                     -> RRPV 7
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy
from ..obs import insight as obs_insight
from ..optgen.sampler import OptGenSampler
from .features import PCHistoryRegister
from .isvm import Confidence, ISVMTable, Prediction

#: policy_state keys.
RRPV_KEY = "glider_rrpv"
FRIENDLY_KEY = "glider_friendly"
CONTEXT_KEY = "glider_context"

MAX_RRPV = 7
MEDIUM_RRPV = 2

#: Default number of unique PCs tracked per core (Table 5: k = 5).
DEFAULT_K = 5


@dataclass(frozen=True)
class GliderConfig:
    """Hyper-parameters of the Glider policy (paper defaults)."""

    k: int = DEFAULT_K
    table_bits: int = 11  # 2048 tracked PCs
    weight_hash_bits: int = 4  # 16 weights per ISVM
    threshold: int = 30
    # The paper adapts θ over {0,30,100,300,3000}; at our trace scale the
    # online exploration's transient damage outweighs the benefit (the
    # paper itself notes the choice matters little for multi-core), so
    # the default is the fixed middle candidate.  Ablated in benchmarks/.
    adaptive_threshold: bool = False
    num_sampled_sets: int = 64
    window_factor: int = 8
    # Sampler address-tracker entries per sampled set; None = one per
    # occupancy-window step.  A tracker smaller than the window detrains
    # reuses OPTgen could still claim, capping the learnable reuse
    # distance (ablated in benchmarks/test_ablations.py).
    tracker_ways: int | None = None
    detrain_on_eviction: bool = True
    confidence_insertion: bool = True  # three-band RRPV insertion


@dataclass(frozen=True)
class _SampledContext:
    """Snapshot stored with each sampled access for later training."""

    history: tuple[int, ...]
    predicted_friendly: bool


class GliderPolicy(ReplacementPolicy):
    """Glider: ISVM-predicted insertion over Hawkeye's RRIP machinery."""

    name = "glider"

    def __init__(self, config: GliderConfig | None = None) -> None:
        super().__init__()
        self.config = config or GliderConfig()
        self.isvm = ISVMTable(
            table_bits=self.config.table_bits,
            weight_hash_bits=self.config.weight_hash_bits,
            threshold=self.config.threshold,
            adaptive=self.config.adaptive_threshold,
        )
        self.pchr: dict[int, PCHistoryRegister] = {}
        self.sampler: OptGenSampler | None = None
        self.prediction_checks = 0
        self.prediction_correct = 0
        # Pre-insertion PCHR snapshot for the access currently in flight
        # (set by on_access, consumed by on_hit/on_fill/victim).
        self._inflight_context: tuple[int, ...] | None = None
        self._inflight_key: tuple[int, int] | None = None

    def attach(self, cache) -> None:
        super().attach(cache)
        self.sampler = OptGenSampler(
            num_sets=cache.num_sets,
            associativity=cache.associativity,
            num_sampled_sets=self.config.num_sampled_sets,
            window_factor=self.config.window_factor,
            tracker_ways=self.config.tracker_ways,
        )

    # -- history/context ---------------------------------------------------
    def _pchr(self, core: int) -> PCHistoryRegister:
        register = self.pchr.get(core)
        if register is None:
            register = PCHistoryRegister(self.config.k)
            self.pchr[core] = register
        return register

    def _predict(self, request: CacheRequest) -> Prediction:
        """Prediction for the in-flight access.

        The context is the PCHR *before* the current PC was inserted —
        on_access stashes it so that prediction, training and detraining
        all see the identical feature for one access.
        """
        context = self._inflight_context
        if context is None or self._inflight_key != (request.pc, request.core):
            context = self._pchr(request.core).snapshot()
        return self.isvm.predict(request.pc, context)

    def _context_for(self, request: CacheRequest) -> tuple[int, ...]:
        context = self._inflight_context
        if context is None or self._inflight_key != (request.pc, request.core):
            return self._pchr(request.core).snapshot()
        return context

    def prediction(self, pc: int, core: int, address: int) -> dict:
        """ISVM prediction over ``core``'s current PCHR."""
        prediction = self.isvm.predict(pc, tuple(self._pchr(core)))
        return {
            "friendly": bool(prediction.is_friendly),
            "confidence": prediction.confidence.value,
            "weight_sum": int(prediction.total),
        }

    @property
    def online_accuracy(self) -> float:
        """Fraction of sampler-labelled accesses predicted correctly
        (the paper's Figure 10 metric)."""
        return self.prediction_correct / max(1, self.prediction_checks)

    # -- training ---------------------------------------------------------------
    def _train(self, pc: int, context: _SampledContext, label: bool) -> None:
        self.isvm.train(pc, context.history, cache_friendly=label)
        self.prediction_checks += 1
        if context.predicted_friendly == label:
            self.prediction_correct += 1

    # -- insertion helpers ----------------------------------------------------------
    def _insert(self, line: CacheLine, set_index: int, prediction: Prediction) -> None:
        line.policy_state[FRIENDLY_KEY] = prediction.is_friendly
        line.policy_state["glider_high_conf"] = (
            prediction.confidence is Confidence.FRIENDLY_HIGH
        )
        if prediction.confidence is Confidence.AVERSE:
            line.policy_state[RRPV_KEY] = MAX_RRPV
            return
        if (
            prediction.confidence is Confidence.FRIENDLY_LOW
            and self.config.confidence_insertion
        ):
            line.policy_state[RRPV_KEY] = MEDIUM_RRPV
        else:
            line.policy_state[RRPV_KEY] = 0
        # Hawkeye-style ageing of other friendly lines, capped below the
        # averse band so averse lines always evict first.
        for other in self.cache.sets[set_index]:
            if other is line or not other.valid:
                continue
            if other.policy_state.get(FRIENDLY_KEY, False):
                rrpv = other.policy_state.get(RRPV_KEY, 0)
                other.policy_state[RRPV_KEY] = min(MAX_RRPV - 1, rrpv + 1)

    # -- hooks ------------------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        # Snapshot the PCHR *before* inserting the current PC: the
        # prediction context is the history leading up to this access.
        history = self._pchr(request.core).snapshot()
        self._inflight_context = history
        self._inflight_key = (request.pc, request.core)
        if self.sampler is not None:
            prediction = self.isvm.predict(request.pc, history)
            context = _SampledContext(
                history=history, predicted_friendly=prediction.is_friendly
            )
            line = request.address >> 6
            recorder = obs_insight.get_recorder()
            if recorder is not None:
                recorder.on_demand_access(
                    line,
                    request.pc,
                    prediction.is_friendly,
                    margin=prediction.total,
                )
            for event in self.sampler.access(line, request.pc, context):
                self._train(event.pc, event.context, event.label)
        self._pchr(request.core).insert(request.pc)

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        line = self.cache.sets[set_index][way]
        prediction = self._predict(request)
        line.policy_state[FRIENDLY_KEY] = prediction.is_friendly
        line.policy_state["glider_high_conf"] = (
            prediction.confidence is Confidence.FRIENDLY_HIGH
        )
        line.policy_state[RRPV_KEY] = 0 if prediction.is_friendly else MAX_RRPV
        line.pc = request.pc
        if self.config.detrain_on_eviction:
            line.policy_state[CONTEXT_KEY] = self._context_for(request)

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        victim_way = None
        for way, line in enumerate(ways):
            if line.policy_state.get(RRPV_KEY, MAX_RRPV) >= MAX_RRPV:
                victim_way = way
                break
        if victim_way is None:
            victim_way = max(
                range(len(ways)), key=lambda w: ways[w].policy_state.get(RRPV_KEY, 0)
            )
            if self.config.detrain_on_eviction:
                line = ways[victim_way]
                context = line.policy_state.get(CONTEXT_KEY)
                # A predicted-friendly line evicted before reuse refutes the
                # prediction: detrain its insertion context (Hawkeye's rule).
                # This feedback loop is what produces scan resistance — mass
                # demotion of a thrashing working set until a resident subset
                # survives.
                if context is not None and line.policy_state.get(FRIENDLY_KEY):
                    self.isvm.train(line.pc, context, cache_friendly=False)
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
            line.policy_state[FRIENDLY_KEY] = False
            line.policy_state[RRPV_KEY] = MAX_RRPV
            return
        prediction = self._predict(request)
        self._insert(line, set_index, prediction)
        if self.config.detrain_on_eviction:
            line.policy_state[CONTEXT_KEY] = self._context_for(request)

    def reset(self) -> None:
        self.isvm.reset()
        self.pchr.clear()
        if self.cache is not None:
            self.attach(self.cache)
        self.prediction_checks = 0
        self.prediction_correct = 0
        self._inflight_context = None
        self._inflight_key = None

    # -- budget accounting (Section 5.4) -------------------------------------------
    def predictor_storage_bytes(self) -> int:
        """ISVM table bytes (32.8 KB in the paper's configuration)."""
        return self.isvm.storage_bytes()

    # -- observability ---------------------------------------------------------------
    def introspect(self) -> dict:
        """Internal signals for the observability layer (JSON-safe):
        prediction confusion, ISVM weight health, OPTgen occupancy."""
        health = self.isvm.health()
        payload = {
            "prediction_checks": self.prediction_checks,
            "prediction_correct": self.prediction_correct,
            "online_accuracy": self.online_accuracy,
            "threshold": self.isvm.threshold,
            "isvm_health": {
                "num_entries": health.num_entries,
                "active_entries": health.active_entries,
                "active_weights": health.active_weights,
                "saturated_weights": health.saturated_weights,
                "max_abs_weight": health.max_abs_weight,
                "saturated_fraction": health.saturated_fraction,
            },
        }
        if self.sampler is not None:
            payload["optgen_events"] = self.sampler.events_produced
            payload["optgen_hit_rate"] = self.sampler.opt_hit_rate()
            payload["optgen_occupancy"] = self.sampler.occupancy_histogram()
        return payload
