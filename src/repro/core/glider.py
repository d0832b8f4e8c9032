"""The Glider cache replacement policy — the paper's contribution.

Glider = Hawkeye's modules (OPTgen-labelled training on sampled sets,
RRPV-managed insertion/eviction, detraining on premature evictions,
all in :class:`~repro.optgen.policy._OptGenTrainedPolicy`) with the
per-PC counter predictor replaced by the ISVM over the unordered
history of the last 5 unique PCs (Sections 4.3–4.4).

Insertion priorities (Section 4.4, "Prediction"):

* weight sum >= 60  -> cache-friendly, high confidence  -> RRPV 0
* 0 <= sum < 60     -> cache-friendly, low confidence   -> RRPV 2
* sum < 0           -> cache-averse                     -> RRPV 7
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.block import CacheRequest
from ..cache.policy import RRPV_KEY  # noqa: F401  (Glider's lines keep it)
from ..optgen.policy import MAX_RRPV, _OptGenTrainedPolicy
from .features import PCHistoryRegister
from .isvm import Confidence, ISVMTable

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


class GliderPolicy(_OptGenTrainedPolicy):
    """Glider: ISVM-predicted insertion over Hawkeye's RRIP machinery.

    The context is the access's core's PCHR *before* its PC is inserted:
    :meth:`_begin_access` keeps that snapshot for the access in flight,
    so that prediction, training and detraining all see one feature.
    """

    name = "glider"
    signal_kind = "margin"

    def __init__(self, config: GliderConfig | None = None) -> None:
        self.config = config or GliderConfig()
        c = self.config
        super().__init__(c.num_sampled_sets, c.window_factor, c.tracker_ways)
        self.detrain_on_eviction = c.detrain_on_eviction
        self.isvm = ISVMTable(
            table_bits=c.table_bits,
            weight_hash_bits=c.weight_hash_bits,
            threshold=c.threshold,
            adaptive=c.adaptive_threshold,
        )
        self.pchr: dict[int, PCHistoryRegister] = {}
        self._inflight_context: tuple[int, ...] | None = None
        self._inflight_key: tuple[int, int] | None = None

    def _pchr(self, core: int) -> PCHistoryRegister:
        register = self.pchr.get(core)
        if register is None:
            register = PCHistoryRegister(self.config.k)
            self.pchr[core] = register
        return register

    def _begin_access(self, request: CacheRequest) -> tuple[int, ...]:
        register = self._pchr(request.core)
        history = register.snapshot()
        register.insert(request.pc)
        self._inflight_context = history
        self._inflight_key = (request.pc, request.core)
        return history

    def _context(self, request: CacheRequest) -> tuple[int, ...]:
        if self._inflight_key == (request.pc, request.core):
            return self._inflight_context
        return self._pchr(request.core).snapshot()

    def _predict(self, pc: int, context) -> tuple[bool, int, int]:
        prediction = self.isvm.predict(pc, context)
        if prediction.confidence is Confidence.AVERSE:
            rrpv = MAX_RRPV
        elif (
            prediction.confidence is Confidence.FRIENDLY_LOW
            and self.config.confidence_insertion
        ):
            rrpv = MEDIUM_RRPV
        else:
            rrpv = 0
        return prediction.is_friendly, rrpv, prediction.total

    def _train_predictor(self, pc: int, context, label: bool) -> None:
        self.isvm.train(pc, context, cache_friendly=label)

    def prediction(self, pc: int, core: int, address: int) -> dict:
        """ISVM prediction over ``core``'s current PCHR."""
        prediction = self.isvm.predict(pc, tuple(self._pchr(core)))
        return {
            "friendly": bool(prediction.is_friendly),
            "confidence": prediction.confidence.value,
            "weight_sum": int(prediction.total),
        }

    def reset(self) -> None:
        self.isvm.reset()
        self.pchr.clear()
        self._inflight_context = None
        self._inflight_key = None
        super().reset()

    # -- budget accounting (Section 5.4) -------------------------------------------
    def predictor_storage_bytes(self) -> int:
        """ISVM table bytes (32.8 KB in the paper's configuration)."""
        return self.isvm.storage_bytes()

    def _predictor_introspect(self) -> dict:
        health = self.isvm.health()
        return {
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
