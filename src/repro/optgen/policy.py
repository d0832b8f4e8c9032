"""The OPTgen-trained replacement policy Hawkeye and Glider share.

Hawkeye [Jain & Lin, ISCA 2016] phrases replacement as supervised
learning from MIN: OPTgen reconstructs Belady's decisions on sampled
sets, a predictor learns from them whether the lines an access inserts
tend to be cache-friendly, and RRIP-style insertion and eviction act on
its predictions.  Glider keeps every module but the predictor (Section
4.4: "we replace the predictor module of Hawkeye with ISVM, keeping
other modules the same"), so the modules live here once and
:class:`~repro.policies.hawkeye.HawkeyePolicy` and
:class:`~repro.core.glider.GliderPolicy` each supply only a predictor.

This module stays outside :mod:`repro.policies`, whose ``__init__``
imports the registry, which imports :mod:`repro.core.glider`.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import RRPV_KEY, ReplacementPolicy
from ..obs import insight as obs_insight
from .sampler import OptGenSampler

#: policy_state keys beside :data:`~repro.cache.policy.RRPV_KEY`: the
#: line's last prediction, and the predictor context it was made in.
FRIENDLY_KEY = "friendly"
CONTEXT_KEY = "context"

#: Hawkeye's RRPV width (3 bits: 0..7); RRPV 7 is the averse band.
MAX_RRPV = 7


class _OptGenTrainedPolicy(ReplacementPolicy):
    """Hawkeye's sampler, insertion and eviction around a predictor.

    On every demand access the predictor is queried in the access's
    context; on sampled sets OPTgen labels earlier accesses, and each
    label trains the predictor in the context stored with that access
    and scores the prediction made then (:attr:`online_accuracy`,
    Figure 10).  A hit re-predicts: RRPV 0 if friendly, else 7.  A fill
    inserts at the predictor's RRPV, and a friendly fill ages the set's
    other friendly lines, never into the averse band.  The victim is
    the first invalid way, else the first averse line, else the
    highest-RRPV line, whose stored context is detrained: MIN would not
    have kept it.  Writebacks neither train nor predict: a writeback hit
    keeps its state, and a writeback fill is averse.

    A subclass supplies the predictor: :meth:`_predict`,
    :meth:`_train_predictor`, ``signal_kind`` (the insight recorder's
    keyword for the prediction's raw signal) and, when it reads a
    context, :meth:`_begin_access` and :meth:`_context`.
    """

    max_rrpv = MAX_RRPV
    #: Lines keep their context (and so can be detrained) only when set.
    detrain_on_eviction = True
    signal_kind: str

    def __init__(
        self,
        num_sampled_sets: int,
        window_factor: int,
        tracker_ways: int | None = None,
    ) -> None:
        super().__init__()
        self.num_sampled_sets = num_sampled_sets
        self.window_factor = window_factor
        self.tracker_ways = tracker_ways
        self.sampler: OptGenSampler | None = None
        self.prediction_checks = 0
        self.prediction_correct = 0

    def attach(self, cache) -> None:
        super().attach(cache)
        self.sampler = OptGenSampler(
            num_sets=cache.num_sets,
            associativity=cache.associativity,
            num_sampled_sets=self.num_sampled_sets,
            window_factor=self.window_factor,
            tracker_ways=self.tracker_ways,
        )

    # -- the predictor (subclass) ---------------------------------------------
    def _begin_access(self, request: CacheRequest):
        """The demand access's context, read before it updates any history."""
        return self._context(request)

    def _context(self, request: CacheRequest):
        """The in-flight access's context (none by default)."""
        return ()

    def _predict(self, pc: int, context) -> tuple[bool, int, int]:
        """``(friendly, insertion RRPV, raw signal)`` for ``pc``."""
        raise NotImplementedError

    def _train_predictor(self, pc: int, context, label: bool) -> None:
        raise NotImplementedError

    # -- training -------------------------------------------------------------
    def _train(self, pc: int, sampled: tuple, label: bool) -> None:
        context, predicted_friendly = sampled
        self._train_predictor(pc, context, label)
        self.prediction_checks += 1
        if predicted_friendly == label:
            self.prediction_correct += 1

    @property
    def online_accuracy(self) -> float:
        """Fraction of sampler-labelled accesses predicted correctly
        (the paper's Figure 10 metric)."""
        return self.prediction_correct / max(1, self.prediction_checks)

    # -- hooks ------------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        context = self._begin_access(request)
        if self.sampler is None:
            return
        friendly, _rrpv, signal = self._predict(request.pc, context)
        line = request.address >> 6
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            recorder.on_demand_access(
                line, request.pc, friendly, **{self.signal_kind: signal}
            )
        for event in self.sampler.access(line, request.pc, (context, friendly)):
            self._train(event.pc, event.context, event.label)

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        line = self.cache.sets[set_index][way]
        context = self._context(request)
        friendly = self._predict(request.pc, context)[0]
        line.policy_state[FRIENDLY_KEY] = friendly
        line.policy_state[RRPV_KEY] = 0 if friendly else MAX_RRPV
        if self.detrain_on_eviction:
            line.policy_state[CONTEXT_KEY] = context
        line.pc = request.pc  # reuse attribution follows the latest toucher

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        victim_way = next(
            (
                way
                for way, line in enumerate(ways)
                if line.policy_state.get(RRPV_KEY, MAX_RRPV) >= MAX_RRPV
            ),
            None,
        )
        if victim_way is None:
            # No averse line: evict the oldest friendly line.  It was
            # evicted before its reuse, which refutes its prediction, so
            # its context is detrained; this feedback is what demotes a
            # thrashing working set until a resident subset survives.
            victim_way = max(
                range(len(ways)), key=lambda w: ways[w].policy_state.get(RRPV_KEY, 0)
            )
            line = ways[victim_way]
            context = line.policy_state.get(CONTEXT_KEY)
            if context is not None and line.policy_state.get(FRIENDLY_KEY):
                self._train_predictor(line.pc, context, False)
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            line = ways[victim_way]
            recorder.on_eviction(
                self.cache.line_address(set_index, line.tag) >> 6,
                predicted_friendly=line.policy_state.get(FRIENDLY_KEY),
                rrpv=line.policy_state.get(RRPV_KEY),
            )
        return victim_way

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        line = self.cache.sets[set_index][way]
        state = line.policy_state
        if request.access_type is AccessType.WRITEBACK:
            state[FRIENDLY_KEY] = False
            state[RRPV_KEY] = MAX_RRPV
            return
        context = self._context(request)
        friendly, rrpv, _signal = self._predict(request.pc, context)
        state[FRIENDLY_KEY] = friendly
        state[RRPV_KEY] = rrpv
        if self.detrain_on_eviction:
            state[CONTEXT_KEY] = context
        if friendly:
            # Age the other friendly lines so older ones lose priority,
            # capped below the averse band so averse lines evict first.
            for other in self.cache.sets[set_index]:
                if other is line or not other.valid:
                    continue
                if other.policy_state.get(FRIENDLY_KEY, False):
                    rrpv = other.policy_state.get(RRPV_KEY, 0)
                    other.policy_state[RRPV_KEY] = min(MAX_RRPV - 1, rrpv + 1)

    def reset(self) -> None:
        if self.cache is not None:
            self.attach(self.cache)
        self.prediction_checks = 0
        self.prediction_correct = 0

    # -- observability ---------------------------------------------------------
    def _predictor_introspect(self) -> dict:
        return {}

    def introspect(self) -> dict:
        """Internal signals for the observability layer (JSON-safe):
        prediction scores, the predictor's health, OPTgen occupancy."""
        payload = {
            "prediction_checks": self.prediction_checks,
            "prediction_correct": self.prediction_correct,
            "online_accuracy": self.online_accuracy,
            **self._predictor_introspect(),
        }
        if self.sampler is not None:
            payload["optgen_events"] = self.sampler.events_produced
            payload["optgen_hit_rate"] = self.sampler.opt_hit_rate()
            payload["optgen_occupancy"] = self.sampler.occupancy_histogram()
        return payload
