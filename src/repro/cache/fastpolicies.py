"""Fast-path replay kernels for the learned-policy family.

:mod:`repro.cache.fastsim` dispatches into this module for the policies
whose victim choice depends on *learned* state — DRRIP's set-duelling
PSEL, SHiP/SHiP++'s signature outcome table, and the Hawkeye/Glider
OPTgen-trained predictors.  Each kernel keeps the same structure-of-
arrays layout as the stateless kernels (flat per-set tag/dirty/RRPV
lists, set/tag splitting and PC hashing vectorized up front with NumPy)
and adds exactly the per-line and global state its policy needs:

* ``drrip``   — RRPV lists + leader-set role array + one PSEL counter.
* ``ship``    — RRPV lists + per-line signature/outcome + the SHCT.
* ``hawkeye`` — RRPV/friendly lists + per-line predictor index + the
  3-bit counter table + a flat port of the sampled-set OPTgen.
* ``glider``  — Hawkeye's layout with the counter table replaced by the
  ISVM weight table, per-core PCHR kept as parallel (pc, hash) lists,
  and per-line insertion-context tuples for eviction detraining.

Parity is the contract: every kernel reproduces the reference engine's
event stream ``(hit, bypassed, way, evicted_tag, evicted_dirty)``
access-by-access, including training order (sampler events before the
hit/miss outcome, victim detraining before the same access's insertion
prediction, SHCT eviction-training before the insertion that reads it)
and RNG draw sequence (batched PCG64 draws are bit-identical to the
reference policies' sequential draws).  ``verify_parity`` and the
conformance fuzzer enforce this across the adversarial trace families.

Hash/context representation: the reference engine stores raw PCs and
hashes them at every prediction/training; the kernels hash each access's
PC once, up front, and store the *hashed* forms (predictor index, ISVM
entry index, 4-bit weight hash) per line and per sampler entry.  This is
behaviour-preserving because every reference consumer applies the same
pure hash to the same stored PC.
"""

from __future__ import annotations

import numpy as np

from ..obs import insight as obs_insight
from .config import CacheConfig
from .stats import CacheStats

__all__ = [
    "_StreamKernel",
    "_DRRIPKernel",
    "_ShipKernel",
    "_HawkeyeKernel",
    "_GliderKernel",
]

_KIND_LOAD, _KIND_STORE, _KIND_WRITEBACK = 0, 1, 2


def _decode_stream(stream, config: CacheConfig):
    """Vectorized set/tag split of a whole stream into plain-int lists."""
    shift = (config.line_size - 1).bit_length()
    set_mask = config.num_sets - 1
    tag_shift = set_mask.bit_length()
    lines = stream.addresses.astype(np.uint64) >> np.uint64(shift)
    sets = (lines & np.uint64(set_mask)).astype(np.int64).tolist()
    tags = (lines >> np.uint64(tag_shift)).astype(np.int64).tolist()
    return sets, tags, stream.kinds.tolist(), stream.cores.tolist()


class _StreamKernel:
    """The feed/step protocol every fast kernel shares.

    A kernel's loop reads per-access *columns* (mostly plain-int lists)
    that :meth:`decode` derives from a stream with vectorized NumPy; all
    cross-access state lives in attributes.  :meth:`feed` runs the loop
    over a whole stream.  :meth:`step` runs it over one access of a
    stream decoded up front, for a caller that learns the access order
    only as it goes (the multi-core interleave) and would otherwise pay
    the per-call NumPy decode on every access.  Any in-order mix of feeds
    and steps equals one feed of the same accesses.
    """

    def decode(self, stream) -> tuple:
        return _decode_stream(stream, self.config)

    def feed(self, stream, record=None) -> None:
        self._run(self.decode(stream), record)

    def step(self, columns: tuple, i: int, access_index: int = 0) -> bool:
        """Access ``i`` of decoded ``columns``; returns its hit bit.

        ``access_index`` is the caller's global request number; only the
        reference engine's policies read it.
        """
        event: list = []
        self._run([column[i : i + 1] for column in columns], event)
        return event[0][0] == 1

    def finish(self) -> CacheStats:
        stats = CacheStats(name=self.config.name)
        stats.demand_hits = self.dh
        stats.demand_misses = self.dm
        stats.writeback_hits = self.wh
        stats.writeback_misses = self.wm
        stats.evictions = self.ev
        stats.dirty_evictions = self.dev
        stats.per_core_hits = self.pch
        stats.per_core_misses = self.pcm
        return stats

    @property
    def stats(self) -> CacheStats:
        return self.finish()


# -- vectorized PC hashing ----------------------------------------------------
# Whole-stream ports of pc_signature / HawkeyePredictor._index / hash_pc;
# uint64 arithmetic wraps exactly like the reference's `& 0xFFFF...F`.


def _ship_signatures(pcs: np.ndarray, bits: int) -> list[int]:
    x = pcs.astype(np.uint64)
    x = x ^ (x >> np.uint64(17))
    x = x * np.uint64(0xED5AD4BB)
    x = x ^ (x >> np.uint64(11))
    return (x & np.uint64((1 << bits) - 1)).astype(np.int64).tolist()


def _hawkeye_indices(pcs: np.ndarray, table_bits: int) -> list[int]:
    x = pcs.astype(np.uint64)
    x = x ^ (x >> np.uint64(15))
    x = x * np.uint64(0x2545F4914F6CDD1D)
    return (x & np.uint64((1 << table_bits) - 1)).astype(np.int64).tolist()


def _weight_hashes(pcs: np.ndarray, bits: int) -> list[int]:
    x = pcs.astype(np.uint64)
    x = x ^ (x >> np.uint64(16))
    x = x * np.uint64(0x45D9F3B)
    x = x ^ (x >> np.uint64(16))
    return (x & np.uint64((1 << bits) - 1)).astype(np.int64).tolist()


def _line_numbers(stream) -> list[int]:
    # The reference samplers compute `request.address >> 6` regardless of
    # the configured line size (Hawkeye/Glider hard-code a 64B line);
    # mirror that exactly rather than reusing the decode shift.
    return (stream.addresses.astype(np.uint64) >> np.uint64(6)).tolist()


def _sampled_flags(stream, sampler: "_FlatOptGenSampler") -> list[bool]:
    """Per-access "lands in a sampled set" flags, vectorized up front."""
    flags = np.zeros(sampler.num_sets, dtype=bool)
    flags[np.fromiter(sampler.sampled, dtype=np.int64)] = True
    lines = stream.addresses.astype(np.uint64) >> np.uint64(6)
    return flags[(lines % np.uint64(sampler.num_sets)).astype(np.int64)].tolist()


def _insight_recorder(config: CacheConfig):
    """The active decision recorder iff it matches ``config``'s geometry.

    Resolved once per :meth:`feed` call, never per access — the
    disabled path costs the kernels exactly this one check.
    """
    rec = obs_insight.get_recorder()
    if rec is not None and not rec.matches(config.num_sets, config.associativity):
        rec = None
    return rec


# -- flat sampled-set OPTgen --------------------------------------------------


class _FlatOptGenSampler:
    """Flat-state port of ``OptGenSampler`` + ``SetOptGen``.

    Same decisions, same training-event order, no per-event dataclasses:
    events are ``(token, context, label)`` tuples where ``token`` is
    whatever pre-hashed PC form the caller stores (predictor index for
    Hawkeye, ISVM entry index for Glider).

    The reference sampler rescans every tracked entry per access (a
    staleness listcomp plus a full sort on tracker overflow).  Because
    the sweep runs on *every* access and ``base_time`` advances by at
    most one step per access, at most one entry can newly age out of the
    window per access, and the tracker can exceed its capacity by at
    most one entry.  Both sweeps therefore reduce to amortized-O(1)
    lookups in a per-set ``stamp -> line`` index (stamps are unique
    within a set — one access, one stamp — so sort order is total and
    tie-stability cannot diverge from the reference):

    * window staleness: pop the index at each stamp the window trim just
      aged out; a mapping is live iff the tracked entry still carries
      that stamp (re-accesses leave dead mappings behind, skipped here).
    * tracker overflow: the reference takes the ``len - tracker_ways``
      (= at most 1) oldest entries, *skipping* any already stale or the
      just-accessed line without replacement.  A stale entry, having the
      oldest stamp, is always that candidate when one exists — so
      overflow eviction only ever happens on accesses with no window
      staleness, and the victim is the live entry with the smallest
      stamp >= base, found by advancing a per-set cursor.
    """

    __slots__ = (
        "num_sets",
        "capacity",
        "window",
        "tracker_ways",
        "sampled",
        "_state",
    )

    # Per-set state record layout (one list per sampled set; a single
    # dict lookup fetches everything the hot path touches).  LAST_FULL
    # is the absolute stamp of the newest occupancy slot ever to reach
    # capacity: slots never drain inside the window, so the interval
    # [prev, now) contains a full slot iff LAST_FULL >= prev — an O(1)
    # replacement for the reference's O(window) interval scan (stale
    # full slots sit below base <= prev and can't false-positive).
    (
        _OCC,
        _BASE,
        _TIME,
        _LAST,
        _TRACKED,
        _BY_STAMP,
        _SWEPT,
        _CURSOR,
        _LAST_FULL,
    ) = range(9)

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        num_sampled_sets: int,
        window_factor: int,
        tracker_ways: int | None = None,
    ) -> None:
        num_sampled = min(num_sampled_sets, num_sets)
        stride = max(1, num_sets // num_sampled)
        self.sampled = frozenset(i * stride for i in range(num_sampled))
        self.num_sets = num_sets
        self.capacity = associativity
        self.window = window_factor * associativity
        self.tracker_ways = tracker_ways if tracker_ways is not None else self.window
        self._state = {s: [[], 0, 0, {}, {}, {}, 0, 0, -1] for s in self.sampled}

    # A frozenset pickles in iteration order, which is not stable across
    # a pickle round trip — serialize sorted so the checkpoint digest of
    # a resumed kernel matches an uninterrupted run's bit-for-bit.
    def __getstate__(self) -> dict:
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["sampled"] = sorted(state["sampled"])
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, frozenset(value) if slot == "sampled" else value)

    def access(self, line: int, token, context) -> list:
        """One sampled demand access; returns ``(token, context, label)``
        training events in the reference sampler's order (reuse verdict
        first, then window-stale and tracker-overflow detrains)."""
        state = self._state[line % self.num_sets]
        occ = state[0]
        base = state[1]
        now = state[2]
        last = state[3]
        tracked = state[4]
        prev = last.get(line)
        first = prev is None or prev < base
        hit = False
        if not first and state[8] < prev:
            hit = True
            cap = self.capacity
            newly_full = -1
            for i in range(prev - base, now - base):
                v = occ[i] + 1
                occ[i] = v
                if v == cap:
                    newly_full = i
            if newly_full >= 0:
                state[8] = base + newly_full
        events = []
        info = tracked.get(line)
        if info is not None:
            # Reuse of a tracked line: label with MIN's verdict; a reuse
            # whose previous access aged out of the window is
            # conservatively a miss.
            events.append((info[0], info[1], hit if not first else False))
        last[line] = now
        occ.append(0)
        now += 1
        state[2] = now
        window = self.window
        excess = len(occ) - window
        if excess > 0:
            del occ[:excess]
            base += excess
            state[1] = base
        if len(last) > 4 * window:
            state[3] = {l: t for l, t in last.items() if t >= base}
        tracked[line] = (token, context, now)
        by_stamp = state[5]
        by_stamp[now] = line
        # Window-staleness sweep over the stamps that just left the window.
        stale = None
        swept = state[6]
        if swept < base:
            while swept < base:
                old = by_stamp.pop(swept, None)
                if old is not None:
                    info = tracked.get(old)
                    if info is not None and info[2] == swept:
                        if stale is None:
                            stale = [old]
                        else:
                            stale.append(old)
                swept += 1
            state[6] = swept
        k_over = len(tracked) - self.tracker_ways
        if k_over > 0:
            # The reference's overflow candidates are the k oldest-stamp
            # entries; stale ones among them (always the oldest) are
            # skipped without replacement, as is the current line (the
            # newest stamp, so the cursor never reaches it).
            if stale is not None:
                k_over -= len(stale)
            cursor = state[7]
            if cursor < base:
                cursor = base
            while k_over > 0 and cursor < now:
                old = by_stamp.get(cursor)
                if old is not None:
                    info = tracked.get(old)
                    if info is not None and info[2] == cursor:
                        if stale is None:
                            stale = [old]
                        else:
                            stale.append(old)
                        k_over -= 1
                    del by_stamp[cursor]
                cursor += 1
            state[7] = cursor
        if stale is not None:
            for old in stale:
                info = tracked.pop(old)
                events.append((info[0], info[1], False))
        return events


# -- DRRIP --------------------------------------------------------------------


class _DRRIPKernel(_StreamKernel):
    """DRRIP fast kernel: RRIP substrate + leader-set duelling PSEL.

    All cross-access state lives in attributes, so the kernel can be
    fed a stream in bounded-memory chunks (:meth:`feed` any number of
    times, then :meth:`finish`) and pickled between chunks for the
    checkpointed streaming replay — a single ``feed`` of the whole
    stream is bit-identical to the historical one-shot kernel.
    """

    def __init__(
        self,
        config: CacheConfig,
        max_rrpv: int,
        num_leader_sets: int,
        psel_max: int,
        long_prob: float,
        seed: int,
    ) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.max_rrpv = max_rrpv
        self.psel_max = psel_max
        self.long_prob = long_prob
        # Leader-set roles, matching DRRIPPolicy.attach: 1 = SRRIP leader,
        # 2 = BRRIP leader (SRRIP wins overlaps), 0 = follower.
        role = [0] * num_sets
        leaders = min(num_leader_sets, max(1, num_sets // 2))
        stride = max(1, num_sets // (2 * leaders))
        for i in range(leaders):
            role[(2 * i) * stride % num_sets] = 1
        for i in range(leaders):
            s = ((2 * i + 1) * stride) % num_sets
            if role[s] == 0:
                role[s] = 2
        self.role = role
        self.psel = psel_max // 2
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.rrpv_t = [[0] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.rng = np.random.default_rng(seed)
        self.draw_buf: list[float] = []
        self.draw_pos = 0
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def _run(self, columns, record) -> None:
        _drrip_feed(self, columns, record)

    def feed(self, stream, record=None) -> None:
        super().feed(stream, record)
        rec = _insight_recorder(self.config)
        if rec is not None:
            rec.record_model_state(
                "drrip",
                psel=self.psel,
                psel_fraction=self.psel / max(1, self.psel_max),
            )


def _drrip_feed(kernel, columns, record) -> None:
    # Loop body is verbatim from the original one-shot kernel; only the
    # locals-load prologue / store-back epilogue differ (attrs <-> locals
    # so the hot loop keeps LOAD_FAST access).
    sets, tags, kinds, cores = columns
    config = kernel.config
    num_sets, assoc = config.num_sets, config.associativity
    max_rrpv = kernel.max_rrpv
    psel_max = kernel.psel_max
    long_prob = kernel.long_prob
    role = kernel.role
    psel = kernel.psel
    half = psel_max // 2
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    rrpv_t = kernel.rrpv_t
    fill_count = kernel.fill_count
    rng = kernel.rng
    draw_buf = kernel.draw_buf
    draw_pos = kernel.draw_pos
    long_rrpv = max_rrpv - 1
    dh, dm, wh, wm, ev, dev = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev
    )
    pch = kernel.pch
    pcm = kernel.pcm
    for i in range(len(sets)):
        s = sets[i]
        t = tags[i]
        k = kinds[i]
        row = tag_t[s]
        if t in row:
            w = row.index(t)
            rrpv_t[s][w] = 0
            if k != _KIND_LOAD:
                dirty_t[s][w] = True
            if k != _KIND_WRITEBACK:
                dh += 1
                c = cores[i]
                pch[c] = pch.get(c, 0) + 1
            else:
                wh += 1
            if record is not None:
                record.append((1, 0, w, -1, 0))
            continue
        if k != _KIND_WRITEBACK:
            dm += 1
            c = cores[i]
            pcm[c] = pcm.get(c, 0) + 1
        else:
            wm += 1
        ev_tag, ev_dirty = -1, False
        if fill_count[s] < assoc:
            w = row.index(-1)
            fill_count[s] += 1
        else:
            rr = rrpv_t[s]
            while True:
                for w in range(assoc):
                    if rr[w] >= max_rrpv:
                        break
                else:
                    for j in range(assoc):
                        rr[j] += 1
                    continue
                break
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
        row[w] = t
        dirty_t[s][w] = k != _KIND_LOAD
        # insertion_rrpv: a fill means this set missed — update PSEL if a
        # leader, then pick the component policy (and only BRRIP draws).
        r = role[s]
        if r == 1:
            if psel > 0:
                psel -= 1
        elif r == 2:
            if psel < psel_max:
                psel += 1
        if r == 2 or (r == 0 and psel < half):
            if draw_pos == len(draw_buf):
                draw_buf = rng.random(size=4096).tolist()
                draw_pos = 0
            rrpv_t[s][w] = long_rrpv if draw_buf[draw_pos] < long_prob else max_rrpv
            draw_pos += 1
        else:
            rrpv_t[s][w] = long_rrpv
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.psel = psel
    kernel.draw_buf = draw_buf
    kernel.draw_pos = draw_pos
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )


# -- SHiP / SHiP++ ------------------------------------------------------------


class _ShipKernel(_StreamKernel):
    """SHiP (``plus=False``) / SHiP++ fast kernel.

    Per-line signature is -1 outside sampled sets (the reference stores
    none), so training naturally no-ops there.  Eviction training runs
    before the same access's insertion reads the SHCT, as on the
    reference path (victim -> on_evict -> on_fill).

    Chunk-feedable: all cross-access state is attributes, the per-chunk
    signatures are computed by :meth:`decode` from the chunk's pcs,
    so feeding in pieces is bit-identical to one shot.
    """

    def __init__(
        self,
        config: CacheConfig,
        plus: bool,
        max_rrpv: int,
        signature_bits: int,
        counter_max: int,
        num_sampled_sets: int,
    ) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.plus = plus
        self.max_rrpv = max_rrpv
        self.signature_bits = signature_bits
        self.counter_max = counter_max
        sampled = [False] * num_sets
        n_sampled = min(num_sampled_sets, num_sets)
        stride = max(1, num_sets // n_sampled)
        for i in range(n_sampled):
            sampled[i * stride] = True
        self.sampled = sampled
        self.shct = [counter_max // 2] * (1 << signature_bits)
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.rrpv_t = [[0] * assoc for _ in range(num_sets)]
        self.sig_t = [[-1] * assoc for _ in range(num_sets)]
        self.out_t = [[False] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def decode(self, stream) -> tuple:
        return _decode_stream(stream, self.config) + (
            _ship_signatures(stream.pcs, self.signature_bits),
        )

    def _run(self, columns, record) -> None:
        _ship_feed(self, columns, record)

    def feed(self, stream, record=None) -> None:
        super().feed(stream, record)
        rec = _insight_recorder(self.config)
        if rec is not None:
            shct = self.shct
            cmax = self.counter_max
            rec.record_model_state(
                "ship++" if self.plus else "ship",
                shct_mean=sum(shct) / len(shct),
                shct_saturated_fraction=(
                    sum(1 for c in shct if c == 0 or c == cmax) / len(shct)
                ),
            )


def _ship_feed(kernel, columns, record) -> None:
    sets, tags, kinds, cores, sigs = columns
    config = kernel.config
    num_sets, assoc = config.num_sets, config.associativity
    plus = kernel.plus
    max_rrpv = kernel.max_rrpv
    counter_max = kernel.counter_max
    sampled = kernel.sampled
    shct = kernel.shct
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    rrpv_t = kernel.rrpv_t
    sig_t = kernel.sig_t
    out_t = kernel.out_t
    fill_count = kernel.fill_count
    long_rrpv = max_rrpv - 1
    dh, dm, wh, wm, ev, dev = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev
    )
    pch = kernel.pch
    pcm = kernel.pcm
    for i in range(len(sets)):
        s = sets[i]
        t = tags[i]
        k = kinds[i]
        row = tag_t[s]
        if t in row:
            w = row.index(t)
            if k != _KIND_LOAD:
                dirty_t[s][w] = True
            if not (plus and k == _KIND_WRITEBACK):
                # SHiP++ writeback hits neither promote nor train.
                rrpv_t[s][w] = 0
                sg = sig_t[s][w]
                if sg >= 0 and not out_t[s][w]:
                    out_t[s][w] = True
                    if shct[sg] < counter_max:
                        shct[sg] += 1
            if k != _KIND_WRITEBACK:
                dh += 1
                c = cores[i]
                pch[c] = pch.get(c, 0) + 1
            else:
                wh += 1
            if record is not None:
                record.append((1, 0, w, -1, 0))
            continue
        if k != _KIND_WRITEBACK:
            dm += 1
            c = cores[i]
            pcm[c] = pcm.get(c, 0) + 1
        else:
            wm += 1
        ev_tag, ev_dirty = -1, False
        if fill_count[s] < assoc:
            w = row.index(-1)
            fill_count[s] += 1
        else:
            rr = rrpv_t[s]
            while True:
                for w in range(assoc):
                    if rr[w] >= max_rrpv:
                        break
                else:
                    for j in range(assoc):
                        rr[j] += 1
                    continue
                break
            # on_evict: a sampled line evicted without reuse detrains.
            sg = sig_t[s][w]
            if sg >= 0 and not out_t[s][w] and shct[sg] > 0:
                shct[sg] -= 1
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
        row[w] = t
        dirty_t[s][w] = k != _KIND_LOAD
        # on_fill: insertion RRPV from the (possibly just-detrained) SHCT.
        if plus:
            if k == _KIND_WRITEBACK:
                rrpv_t[s][w] = max_rrpv
            else:
                c = shct[sigs[i]]
                if c == 0:
                    rrpv_t[s][w] = max_rrpv
                elif c == counter_max:
                    rrpv_t[s][w] = 0
                else:
                    rrpv_t[s][w] = long_rrpv
            track = sampled[s] and k != _KIND_WRITEBACK
        else:
            rrpv_t[s][w] = max_rrpv if shct[sigs[i]] == 0 else long_rrpv
            track = sampled[s]
        if track:
            sig_t[s][w] = sigs[i]
            out_t[s][w] = False
        else:
            sig_t[s][w] = -1
            out_t[s][w] = False
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )


# -- Hawkeye ------------------------------------------------------------------

_HAWKEYE_MAX_RRPV = 7
_AGE_CAP = _HAWKEYE_MAX_RRPV - 1


class _HawkeyeKernel(_StreamKernel):
    """Hawkeye fast kernel: sampled-set OPTgen training a counter table.

    Per-line state: RRPV, friendly bit, and the *predictor index* of the
    last touching PC (stands in for ``line.pc`` — the reference only
    ever hashes it).  Training order per demand access: sampler events,
    then hit promotion or victim detrain followed by fill insertion
    (the detrain lands before the same access's insertion prediction).

    Chunk-feedable: the OPTgen sampler and counter table carry across
    :func:`_hawkeye_feed` calls; per-chunk vectors (predictor indices,
    line numbers, sampled flags) are decoded from each chunk.
    """

    def __init__(
        self,
        config: CacheConfig,
        table_bits: int,
        counter_max: int,
        num_sampled_sets: int,
        window_factor: int,
    ) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.table_bits = table_bits
        self.counter_max = counter_max
        mid = (counter_max + 1) // 2
        self.table = [mid] * (1 << table_bits)
        self.sampler = _FlatOptGenSampler(
            num_sets, assoc, num_sampled_sets, window_factor
        )
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.rrpv_t = [[0] * assoc for _ in range(num_sets)]
        self.fr_t = [[False] * assoc for _ in range(num_sets)]
        self.pi_t = [[0] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def decode(self, stream) -> tuple:
        return _decode_stream(stream, self.config) + (
            _hawkeye_indices(stream.pcs, self.table_bits),
            _line_numbers(stream),
            _sampled_flags(stream, self.sampler),
            stream.pcs,  # read only by an installed insight recorder
        )

    def _run(self, columns, record) -> None:
        _hawkeye_feed(self, columns, record)

    def feed(self, stream, record=None) -> None:
        super().feed(stream, record)
        rec = _insight_recorder(self.config)
        if rec is not None:
            table = self.table
            cmax = self.counter_max
            rec.record_model_state(
                "hawkeye",
                counter_mean=sum(table) / len(table),
                counter_saturated_fraction=(
                    sum(1 for c in table if c == 0 or c == cmax) / len(table)
                ),
            )


def _hawkeye_feed(kernel, columns, record) -> None:
    sets, tags, kinds, cores, pidx, lines, samp_acc, pcs = columns
    config = kernel.config
    num_sets, assoc = config.num_sets, config.associativity
    counter_max = kernel.counter_max
    mid = (counter_max + 1) // 2
    table = kernel.table
    sampler_access = kernel.sampler.access
    # Insight hooks: resolved once per feed; when no recorder is
    # installed the loop pays one `is not None` test per sampled access
    # and per eviction, nothing more.
    rec = _insight_recorder(config)
    if rec is not None:
        rec_access = rec.on_demand_access
        rec_evict = rec.on_eviction
        rec_tag_shift = (num_sets - 1).bit_length()
    else:
        rec_access = rec_evict = None
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    rrpv_t = kernel.rrpv_t
    fr_t = kernel.fr_t
    pi_t = kernel.pi_t
    fill_count = kernel.fill_count
    dh, dm, wh, wm, ev, dev = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev
    )
    pch = kernel.pch
    pcm = kernel.pcm
    for i in range(len(sets)):
        s = sets[i]
        t = tags[i]
        k = kinds[i]
        if k != _KIND_WRITEBACK and samp_acc[i]:
            if rec_access is not None:
                # The live prediction, read before this access's sampler
                # events train the table — the same point in training
                # order where the reference policy snapshots its context.
                cnt = table[pidx[i]]
                rec_access(lines[i], int(pcs[i]), cnt >= mid, counter=cnt)
            for tok, _ctx, label in sampler_access(lines[i], pidx[i], None):
                c = table[tok]
                if label:
                    if c < counter_max:
                        table[tok] = c + 1
                elif c > 0:
                    table[tok] = c - 1
        row = tag_t[s]
        if t in row:
            w = row.index(t)
            if k != _KIND_LOAD:
                dirty_t[s][w] = True
            if k != _KIND_WRITEBACK:
                fr = table[pidx[i]] >= mid
                fr_t[s][w] = fr
                rrpv_t[s][w] = 0 if fr else _HAWKEYE_MAX_RRPV
                pi_t[s][w] = pidx[i]
                dh += 1
                c = cores[i]
                pch[c] = pch.get(c, 0) + 1
            else:
                wh += 1
            if record is not None:
                record.append((1, 0, w, -1, 0))
            continue
        if k != _KIND_WRITEBACK:
            dm += 1
            c = cores[i]
            pcm[c] = pcm.get(c, 0) + 1
        else:
            wm += 1
        ev_tag, ev_dirty = -1, False
        if fill_count[s] < assoc:
            w = row.index(-1)
            fill_count[s] += 1
        else:
            rr = rrpv_t[s]
            w = -1
            for j in range(assoc):
                if rr[j] >= _HAWKEYE_MAX_RRPV:
                    w = j
                    break
            if w < 0:
                # No averse line: evict the highest-RRPV (first tie wins)
                # and detrain its last toucher before this access's
                # insertion prediction reads the table.
                w = 0
                best = rr[0]
                for j in range(1, assoc):
                    if rr[j] > best:
                        best = rr[j]
                        w = j
                tok = pi_t[s][w]
                if table[tok] > 0:
                    table[tok] = table[tok] - 1
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
            if rec_evict is not None:
                rec_evict(
                    (ev_tag << rec_tag_shift) | s,
                    predicted_friendly=fr_t[s][w],
                    rrpv=rrpv_t[s][w],
                )
        row[w] = t
        dirty_t[s][w] = k != _KIND_LOAD
        pi_t[s][w] = pidx[i]
        if k == _KIND_WRITEBACK:
            fr_t[s][w] = False
            rrpv_t[s][w] = _HAWKEYE_MAX_RRPV
        else:
            fr = table[pidx[i]] >= mid
            fr_t[s][w] = fr
            if fr:
                rrpv_t[s][w] = 0
                rr = rrpv_t[s]
                frr = fr_t[s]
                for j in range(assoc):
                    if j != w and row[j] != -1 and frr[j]:
                        v = rr[j] + 1
                        rr[j] = v if v < _HAWKEYE_MAX_RRPV else _AGE_CAP
            else:
                rrpv_t[s][w] = _HAWKEYE_MAX_RRPV
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )


# -- Glider -------------------------------------------------------------------


class _GliderKernel(_StreamKernel):
    """Glider fast kernel: ISVM over the PCHR on Hawkeye's machinery.

    Per-core PCHRs are parallel (raw-pc, 4-bit-hash) lists; the context
    stored with sampled accesses and (for detraining) with filled lines
    is the tuple of weight hashes — the only form the ISVM ever reads.
    The training gate, weight clamps and (optional) adaptive-threshold
    sweep mirror ``ISVMTable.train`` exactly.

    Chunk-feedable: ISVM weights, adaptive-threshold window, OPTgen
    sampler, PCHRs and per-line tables all carry across
    :func:`_glider_feed` calls (the PCHR/history registers are re-read
    from ``pchr`` at each feed, so chunk boundaries are invisible to
    the training sequence).
    """

    def __init__(
        self,
        config: CacheConfig,
        k: int,
        table_bits: int,
        weight_hash_bits: int,
        threshold: int,
        adaptive: bool,
        adapt_interval: int,
        num_sampled_sets: int,
        window_factor: int,
        tracker_ways,
        detrain: bool,
        confidence_insertion: bool,
    ) -> None:
        from ..core.isvm import HIGH_CONFIDENCE_SUM

        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.k = k
        self.table_bits = table_bits
        self.weight_hash_bits = weight_hash_bits
        self.adaptive = adaptive
        self.adapt_interval = adapt_interval
        self.detrain = detrain
        self.confidence_insertion = confidence_insertion
        self.weights = [
            [0] * (1 << weight_hash_bits) for _ in range(1 << table_bits)
        ]
        self.threshold = threshold
        self.hc_cut = min(HIGH_CONFIDENCE_SUM, max(1, threshold))
        self.win_correct = self.win_total = 0
        self.cand_scores: dict[int, float] = {}
        self.sampler = _FlatOptGenSampler(
            num_sets, assoc, num_sampled_sets, window_factor, tracker_ways
        )
        self.pchr: dict[int, list] = {}
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.rrpv_t = [[0] * assoc for _ in range(num_sets)]
        self.fr_t = [[False] * assoc for _ in range(num_sets)]
        self.ei_t = [[0] * assoc for _ in range(num_sets)]
        self.ctx_t = [[None] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def decode(self, stream) -> tuple:
        eidx = (
            (stream.pcs.astype(np.uint64) >> np.uint64(2))
            & np.uint64((1 << self.table_bits) - 1)
        )
        return _decode_stream(stream, self.config) + (
            stream.pcs.tolist(),
            eidx.astype(np.int64).tolist(),
            _weight_hashes(stream.pcs, self.weight_hash_bits),
            _line_numbers(stream),
            _sampled_flags(stream, self.sampler),
        )

    def _run(self, columns, record) -> None:
        _glider_feed(self, columns, record)

    def feed(self, stream, record=None) -> None:
        super().feed(stream, record)
        rec = _insight_recorder(self.config)
        if rec is not None:
            from ..core.isvm import ISVM

            norm = 0
            saturated = 0
            active = 0
            for entry in self.weights:
                for v in entry:
                    if v:
                        active += 1
                        norm += v if v > 0 else -v
                        if v <= ISVM.WEIGHT_MIN or v >= ISVM.WEIGHT_MAX:
                            saturated += 1
            rec.record_model_state(
                "glider",
                isvm_weight_norm=norm,
                isvm_saturated_weights=saturated,
                isvm_active_weights=active,
                threshold=self.threshold,
            )


def _glider_feed(kernel, columns, record) -> None:
    from ..core.isvm import (
        AVERSE_SUM,
        HIGH_CONFIDENCE_SUM,
        ISVM,
        THRESHOLD_CANDIDATES,
    )

    config = kernel.config
    sets, tags, kinds, cores, pcs, eidx, whash, lines, samp_acc = columns
    num_sets, assoc = config.num_sets, config.associativity
    k = kernel.k
    adaptive = kernel.adaptive
    adapt_interval = kernel.adapt_interval
    detrain = kernel.detrain
    confidence_insertion = kernel.confidence_insertion
    weights = kernel.weights
    wmin, wmax = ISVM.WEIGHT_MIN, ISVM.WEIGHT_MAX
    # The adaptive-threshold window lives in feed-locals (train() binds
    # them via nonlocal for speed) and is persisted back to the kernel
    # after the loop so chunked feeding matches one-shot exactly.
    threshold = kernel.threshold
    hc_cut = kernel.hc_cut
    win_correct = kernel.win_correct
    win_total = kernel.win_total
    cand_scores = kernel.cand_scores
    max_rrpv = _HAWKEYE_MAX_RRPV

    def train(entry: int, hist: tuple, label: bool) -> None:
        nonlocal win_correct, win_total, threshold, hc_cut
        e = weights[entry]
        tot = 0
        for h in hist:
            tot += e[h]
        if adaptive:
            win_total += 1
            if (tot >= AVERSE_SUM) == label:
                win_correct += 1
        # Perceptron gate: skip when already confidently past the margin.
        if label:
            if tot <= threshold:
                for h in hist:
                    v = e[h] + 1
                    e[h] = v if v <= wmax else wmax
        elif tot >= -threshold:
            for h in hist:
                v = e[h] - 1
                e[h] = v if v >= wmin else wmin
        if adaptive and win_total >= adapt_interval:
            accuracy = win_correct / max(1, win_total)
            win_correct = win_total = 0
            if threshold not in cand_scores:
                cand_scores[threshold] = accuracy
            unexplored = [c for c in THRESHOLD_CANDIDATES if c not in cand_scores]
            if unexplored:
                threshold = unexplored[0]
            else:
                threshold = max(cand_scores, key=lambda c: cand_scores[c])
            hc_cut = min(HIGH_CONFIDENCE_SUM, max(1, threshold))

    sampler = kernel.sampler
    # Insight hooks: one `is not None` test per sampled access and per
    # eviction when disabled.
    rec = _insight_recorder(config)
    if rec is not None:
        rec_access = rec.on_demand_access
        rec_evict = rec.on_eviction
        rec_tag_shift = (num_sets - 1).bit_length()
    else:
        rec_access = rec_evict = None
    # The sampler body is inlined in the loop below (Glider trains on
    # every sampled access; the call/event-list overhead is measurable),
    # operating directly on the shared per-set state records.
    sstate = sampler._state
    snum = sampler.num_sets
    scap = sampler.capacity
    swindow = sampler.window
    swindow4 = 4 * swindow
    stways = sampler.tracker_ways
    # Per-core PCHR: [raw pcs, weight hashes, cached tuple(hashes)].  The
    # tuple is rebuilt only when the register actually changes (the front
    # PC differs), since re-inserting the front PC is a no-op.
    pchr = kernel.pchr
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    rrpv_t = kernel.rrpv_t
    fr_t = kernel.fr_t
    ei_t = kernel.ei_t
    ctx_t = kernel.ctx_t
    fill_count = kernel.fill_count
    dh, dm, wh, wm, ev, dev = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev
    )
    pch = kernel.pch
    pcm = kernel.pcm
    # hist/reg caches are re-derived from pchr per feed: every demand
    # access re-reads them before use and writebacks never do, so
    # resetting at a chunk boundary cannot change behaviour.
    hist: tuple = ()
    reg_core = reg = None
    for s, t, kn, core, pc, ei, whsh, ln, sa in zip(
        sets, tags, kinds, cores, pcs, eidx, whash, lines, samp_acc
    ):
        if kn != _KIND_WRITEBACK:
            # on_access: snapshot the PCHR *before* inserting this PC —
            # prediction, training context and detraining all use it.
            if core != reg_core:
                reg = pchr.get(core)
                if reg is None:
                    reg = [[], [], ()]
                    pchr[core] = reg
                reg_core = core
            reg_pcs = reg[0]
            hist = reg[2]
            if sa:
                if rec_access is not None:
                    # Live prediction from the pre-insertion PCHR, read
                    # before this access's sampler events train — the
                    # same training-order point as the reference.
                    e0 = weights[ei]
                    tot0 = 0
                    for h in hist:
                        tot0 += e0[h]
                    rec_access(ln, pc, tot0 >= AVERSE_SUM, margin=tot0)
                # Inlined _FlatOptGenSampler.access(ln, ei, hist), with
                # train() called directly in the reference event order
                # (reuse verdict first, then stale/overflow detrains).
                sst = sstate[ln % snum]
                socc = sst[0]
                sbase = sst[1]
                snow = sst[2]
                slast = sst[3]
                strk = sst[4]
                sprev = slast.get(ln)
                sfirst = sprev is None or sprev < sbase
                shit = False
                if not sfirst and sst[8] < sprev:
                    shit = True
                    snf = -1
                    for oi in range(sprev - sbase, snow - sbase):
                        sv = socc[oi] + 1
                        socc[oi] = sv
                        if sv == scap:
                            snf = oi
                    if snf >= 0:
                        sst[8] = sbase + snf
                sinfo = strk.get(ln)
                if sinfo is not None:
                    train(sinfo[0], sinfo[1], shit)
                slast[ln] = snow
                socc.append(0)
                snow += 1
                sst[2] = snow
                sexc = len(socc) - swindow
                if sexc > 0:
                    del socc[:sexc]
                    sbase += sexc
                    sst[1] = sbase
                if len(slast) > swindow4:
                    sst[3] = {l: st for l, st in slast.items() if st >= sbase}
                strk[ln] = (ei, hist, snow)
                sby = sst[5]
                sby[snow] = ln
                sstale = None
                sswept = sst[6]
                if sswept < sbase:
                    while sswept < sbase:
                        sold = sby.pop(sswept, None)
                        if sold is not None:
                            sinfo = strk.get(sold)
                            if sinfo is not None and sinfo[2] == sswept:
                                if sstale is None:
                                    sstale = [sold]
                                else:
                                    sstale.append(sold)
                        sswept += 1
                    sst[6] = sswept
                sko = len(strk) - stways
                if sko > 0:
                    if sstale is not None:
                        sko -= len(sstale)
                    scur = sst[7]
                    if scur < sbase:
                        scur = sbase
                    while sko > 0 and scur < snow:
                        sold = sby.get(scur)
                        if sold is not None:
                            sinfo = strk.get(sold)
                            if sinfo is not None and sinfo[2] == scur:
                                if sstale is None:
                                    sstale = [sold]
                                else:
                                    sstale.append(sold)
                                sko -= 1
                            del sby[scur]
                        scur += 1
                    sst[7] = scur
                if sstale is not None:
                    for sold in sstale:
                        sinfo = strk.pop(sold)
                        train(sinfo[0], sinfo[1], False)
            if not reg_pcs or reg_pcs[0] != pc:
                reg_hashes = reg[1]
                if pc in reg_pcs:
                    j = reg_pcs.index(pc)
                    del reg_pcs[j]
                    del reg_hashes[j]
                reg_pcs.insert(0, pc)
                reg_hashes.insert(0, whsh)
                if len(reg_pcs) > k:
                    reg_pcs.pop()
                    reg_hashes.pop()
                reg[2] = tuple(reg_hashes)
        row = tag_t[s]
        if t in row:
            w = row.index(t)
            if kn != _KIND_LOAD:
                dirty_t[s][w] = True
            if kn != _KIND_WRITEBACK:
                e = weights[ei]
                tot = 0
                for h in hist:
                    tot += e[h]
                fr = tot >= AVERSE_SUM
                fr_t[s][w] = fr
                rrpv_t[s][w] = 0 if fr else max_rrpv
                ei_t[s][w] = ei
                if detrain:
                    ctx_t[s][w] = hist
                dh += 1
                pch[core] = pch.get(core, 0) + 1
            else:
                wh += 1
            if record is not None:
                record.append((1, 0, w, -1, 0))
            continue
        if kn != _KIND_WRITEBACK:
            dm += 1
            pcm[core] = pcm.get(core, 0) + 1
        else:
            wm += 1
        ev_tag, ev_dirty = -1, False
        if fill_count[s] < assoc:
            w = row.index(-1)
            fill_count[s] += 1
        else:
            rr = rrpv_t[s]
            w = -1
            for j in range(assoc):
                if rr[j] >= max_rrpv:
                    w = j
                    break
            if w < 0:
                w = 0
                best = rr[0]
                for j in range(1, assoc):
                    if rr[j] > best:
                        best = rr[j]
                        w = j
                if detrain:
                    # A predicted-friendly line evicted before reuse
                    # refutes the prediction: detrain its insertion
                    # context before this access's insertion predicts.
                    ctx = ctx_t[s][w]
                    if ctx is not None and fr_t[s][w]:
                        train(ei_t[s][w], ctx, False)
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
            if rec_evict is not None:
                rec_evict(
                    (ev_tag << rec_tag_shift) | s,
                    predicted_friendly=fr_t[s][w],
                    rrpv=rrpv_t[s][w],
                )
        row[w] = t
        dirty_t[s][w] = kn != _KIND_LOAD
        ei_t[s][w] = ei
        if kn == _KIND_WRITEBACK:
            fr_t[s][w] = False
            rrpv_t[s][w] = max_rrpv
            ctx_t[s][w] = None
        else:
            e = weights[ei]
            tot = 0
            for h in hist:
                tot += e[h]
            if tot < AVERSE_SUM:
                fr_t[s][w] = False
                rrpv_t[s][w] = max_rrpv
            else:
                fr_t[s][w] = True
                rrpv_t[s][w] = (
                    2 if confidence_insertion and tot < hc_cut else 0
                )
                rr = rrpv_t[s]
                frr = fr_t[s]
                for j in range(assoc):
                    if j != w and row[j] != -1 and frr[j]:
                        v = rr[j] + 1
                        rr[j] = v if v < max_rrpv else _AGE_CAP
            ctx_t[s][w] = hist if detrain else None
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.threshold = threshold
    kernel.hc_cut = hc_cut
    kernel.win_correct = win_correct
    kernel.win_total = win_total
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )
