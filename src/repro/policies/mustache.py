"""MUSTACHE-style multi-step next-access prediction (``mustache``).

MUSTACHE (Tolomei et al.; PAPERS.md) learns *when* each cached object
will be requested again — not just whether — and predicts several steps
ahead, so the cache can both pick the victim whose next request is
farthest away and pre-warm objects about to return.  This adaptation to
the set-associative LLC keeps the two ideas:

* Every resident line carries an estimated inter-access **gap** (an
  integer EWMA of its observed set-local reuse gaps), seeded from a
  per-set PC-indexed gap table for lines that have not yet been reused.
  From ``(last touch, gap)`` the policy extrapolates the line's next
  ``lookahead`` accesses — :meth:`predict_steps` — an arithmetic train
  whose first element is exactly the single-step prediction
  (:meth:`predict_next`); the Hypothesis suite pins that consistency.
* The victim is the line with the **latest earliest-predicted future
  access**.  When the chosen victim is nevertheless predicted to return
  within the prefetch horizon (capacity forced a hot eviction), the
  policy surfaces a prefetch hint in its stats instead of silently
  dropping the information.

Like ``frd``, all state is per-set (set-local clocks, per-set gap
tables, per-line ``policy_state``), so a set-sharded deployment
reproduces the monolithic decisions bit-for-bit, and everything pickles
for streaming-replay checkpoints.
"""

from __future__ import annotations

from typing import Sequence

from ..cache.block import AccessType, CacheLine, CacheRequest
from ..cache.policy import ReplacementPolicy
from ..obs import insight as obs_insight
from .frd import feature_hash, quantize_distance

#: policy_state keys for mustache lines.
LAST_KEY = "mu_last"
GAP_KEY = "mu_gap"
PC_KEY = "mu_pc"

#: Saturation cap for learned gaps (set-local demand accesses).
GAP_CAP = 1 << 12

#: Salt for the per-set PC gap table.
_PC_SALT = 0xC7


class _SetState:
    """Per-set clock + PC-indexed gap table (0 = no estimate yet)."""

    __slots__ = ("clock", "gaps")

    def __init__(self, table_bits: int) -> None:
        self.clock = 0
        self.gaps = [0] * (1 << table_bits)

    def __getstate__(self):
        return (self.clock, self.gaps)

    def __setstate__(self, state) -> None:
        self.clock, self.gaps = state


class MustachePolicy(ReplacementPolicy):
    """Evict the line whose earliest predicted future access is latest."""

    name = "mustache"

    def __init__(self, table_bits: int = 6, lookahead: int = 4) -> None:
        super().__init__()
        self.table_bits = table_bits
        self.lookahead = max(1, lookahead)
        self._sets: dict[int, _SetState] = {}
        self.observed_gaps = 0
        self.prefetch_hints = 0
        self.recent_hints: list[int] = []

    # -- per-set state -------------------------------------------------------
    def _state(self, set_index: int) -> _SetState:
        state = self._sets.get(set_index)
        if state is None:
            state = self._sets[set_index] = _SetState(self.table_bits)
        return state

    def _pc_index(self, pc: int) -> int:
        return feature_hash(pc, _PC_SALT, self.table_bits)

    def _default_gap(self) -> int:
        """Gap assumed for lines with no estimate at all: deliberately
        large (8x associativity), so never-reused streams rank as
        distant and the policy is scan-resistant by default."""
        return 8 * (self.associativity if self.cache is not None else 16)

    def _line_gap(self, state: _SetState, ps: dict) -> int:
        gap = ps.get(GAP_KEY, 0)
        if gap <= 0:
            pc = ps.get(PC_KEY)
            if pc is not None:
                gap = state.gaps[self._pc_index(pc)]
        if gap <= 0:
            gap = self._default_gap()
        return gap

    # -- the multi-step head -------------------------------------------------
    @staticmethod
    def _first_after(last: int, gap: int, now: int) -> int:
        """Earliest multiple of ``gap`` past ``last`` strictly after ``now``."""
        if now < last + gap:
            return last + gap
        return last + ((now - last) // gap + 1) * gap

    def predict_next(self, set_index: int, line: CacheLine) -> int:
        """Set-clock time of the line's single-step predicted access."""
        state = self._state(set_index)
        ps = line.policy_state
        gap = self._line_gap(state, ps)
        return self._first_after(ps.get(LAST_KEY, 0), gap, state.clock)

    def predict_steps(
        self, set_index: int, line: CacheLine, steps: int | None = None
    ) -> list[int]:
        """The line's next ``steps`` predicted access times (ascending).

        ``predict_steps(...)[0] == predict_next(...)`` always — the
        multi-step head extends the single-step head, never disagrees
        with it.
        """
        steps = self.lookahead if steps is None else max(1, steps)
        state = self._state(set_index)
        ps = line.policy_state
        gap = self._line_gap(state, ps)
        first = self._first_after(ps.get(LAST_KEY, 0), gap, state.clock)
        return [first + i * gap for i in range(steps)]

    # -- serve-facing prediction ---------------------------------------------
    def predict_reuse(self, pc: int, address: int) -> dict:
        """Multi-step reuse prediction for the serve decision endpoints."""
        set_index = self.cache.set_index(address) if self.cache is not None else 0
        state = self._state(set_index)
        way = self.cache.find_way(address) if self.cache is not None else None
        if way is not None:
            steps = self.predict_steps(set_index, self.cache.sets[set_index][way])
        else:
            gap = state.gaps[self._pc_index(pc)] or self._default_gap()
            steps = [state.clock + gap * (i + 1) for i in range(self.lookahead)]
        wait = steps[0] - state.clock
        return {
            "friendly": wait <= 2 * (self.associativity if self.cache else 16),
            "next_access": steps[0],
            "steps": steps,
            "clock": state.clock,
        }

    def prediction(self, pc: int, core: int, address: int) -> dict:
        return self.predict_reuse(pc, address)

    # -- hooks ---------------------------------------------------------------
    def on_access(self, set_index: int, request: CacheRequest) -> None:
        state = self._state(set_index)
        state.clock += 1
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            gap = state.gaps[self._pc_index(request.pc)] or self._default_gap()
            recorder.on_demand_access(
                self.cache.line_number(request.address),
                request.pc,
                gap <= 2 * self.associativity,
                counter=gap,
                bucket=quantize_distance(gap),
            )

    def on_hit(self, set_index: int, way: int, request: CacheRequest) -> None:
        if request.access_type is AccessType.WRITEBACK:
            return
        state = self._state(set_index)
        ps = self.cache.sets[set_index][way].policy_state
        last = ps.get(LAST_KEY)
        if last is not None and state.clock > last:
            observed = state.clock - last
            self.observed_gaps += 1
            old = ps.get(GAP_KEY, 0)
            ps[GAP_KEY] = min(
                GAP_CAP, observed if old <= 0 else (old + observed + 1) // 2
            )
            idx = self._pc_index(request.pc)
            table_old = state.gaps[idx]
            state.gaps[idx] = min(
                GAP_CAP,
                observed if table_old <= 0 else (table_old + observed + 1) // 2,
            )
        ps[LAST_KEY] = state.clock
        ps[PC_KEY] = request.pc

    def victim(
        self, set_index: int, request: CacheRequest, ways: Sequence[CacheLine]
    ) -> int:
        invalid = self.first_invalid(ways)
        if invalid is not None:
            return invalid
        state = self._state(set_index)
        nexts = [self.predict_next(set_index, line) for line in ways]
        victim_way = max(range(len(ways)), key=lambda w: nexts[w])
        wait = nexts[victim_way] - state.clock
        if wait <= 2 * self.associativity:
            # Capacity forced out a line predicted to return soon: a
            # prefetch of it would likely pay off.  Surface the hint.
            self.prefetch_hints += 1
            self.recent_hints.append(
                self.cache.line_address(set_index, ways[victim_way].tag)
            )
            if len(self.recent_hints) > 16:
                del self.recent_hints[0]
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            line = ways[victim_way]
            recorder.on_eviction(
                self.cache.line_number(
                    self.cache.line_address(set_index, line.tag)
                ),
                predicted_friendly=wait <= 2 * self.associativity,
                pc=line.pc,
            )
        return victim_way

    def on_evict(
        self, set_index: int, way: int, line: CacheLine, request: CacheRequest
    ) -> None:
        ps = line.policy_state
        if ps.get(GAP_KEY, 0) <= 0:
            # Evicted without ever revealing a gap: back off the PC's
            # table estimate so its future lines rank as more distant.
            pc = ps.get(PC_KEY)
            if pc is not None:
                state = self._state(set_index)
                idx = self._pc_index(pc)
                gap = state.gaps[idx]
                state.gaps[idx] = min(
                    GAP_CAP, gap * 2 if gap > 0 else 2 * self._default_gap()
                )

    def on_fill(self, set_index: int, way: int, request: CacheRequest) -> None:
        state = self._state(set_index)
        ps = self.cache.sets[set_index][way].policy_state
        ps[LAST_KEY] = state.clock
        if request.access_type is AccessType.WRITEBACK:
            # No program-order PC: leave the line estimate-less so it
            # ranks by the distant default.
            return
        ps[PC_KEY] = request.pc
        table_gap = state.gaps[self._pc_index(request.pc)]
        if table_gap > 0:
            ps[GAP_KEY] = table_gap

    # -- lifecycle / observability --------------------------------------------
    def reset(self) -> None:
        self._sets = {}
        self.observed_gaps = 0
        self.prefetch_hints = 0
        self.recent_hints = []

    def introspect(self) -> dict:
        """Internal signals for the observability layer (JSON-safe)."""
        known = sum(
            1 for s in self._sets.values() for g in s.gaps if g > 0
        )
        return {
            "sets_tracked": len(self._sets),
            "observed_gaps": self.observed_gaps,
            "prefetch_hints": self.prefetch_hints,
            "recent_prefetch_hints": list(self.recent_hints),
            "known_pc_gaps": known,
            "lookahead": self.lookahead,
        }
