"""Fast-path LLC simulation engine (``repro.cache.fastsim``).

The reference simulator (:class:`~repro.cache.cache.SetAssociativeCache`
driven by :func:`~repro.cache.hierarchy.simulate_llc`) walks lists of
:class:`~repro.cache.block.CacheLine` objects and allocates a
``CacheRequest`` per access.  That generality is what lets every policy
hook every event — but for the policies whose state fits in a few
per-line integers and flat tables it is pure overhead.

This module provides:

* **Fast-path kernels** — flat-list tag/dirty/last-touch/RRPV state per
  set (no per-line objects, no per-access allocation, set/tag splitting
  vectorized up front with NumPy).  The stateless kernels (LRU, MRU,
  random, SRRIP, BRRIP) live here, the learned ones (DRRIP, SHiP,
  SHiP++, Hawkeye, Glider) in :mod:`repro.cache.fastpolicies`.  Which
  policy takes which kernel, with which parameters, is declared once by
  ``kernel=`` on its :class:`~repro.policies.registry.PolicySpec`.
* **A shared engine protocol** — :func:`replay` dispatches a policy
  (registry name or instance) to its fast kernel when one exists and
  falls back *transparently* to the reference engine otherwise, so
  callers never need to know which policies are accelerated.
* **A parity harness** — both engines can record a per-access event
  stream ``(hit, bypassed, way, evicted_tag, evicted_dirty)``;
  :func:`verify_parity` asserts access-by-access equivalence plus equal
  :class:`~repro.cache.stats.CacheStats`, and names the first divergent
  access when they differ.
* **A fast stream filter** — :func:`fast_filter_to_llc_stream`, a
  rewrite of the policy-independent L1/L2 LRU filter that dominates
  stream construction; it produces a bit-identical
  :class:`~repro.cache.hierarchy.LLCStream`.

Determinism: the stochastic kernels (random, BRRIP) reproduce the
reference policies' exact RNG draw sequence (``np.random.default_rng``
seeded identically, drawn at the same events), so fast and reference
runs are bit-identical, not merely statistically alike.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import insight as obs_insight
from ..obs import instrument as obs_instrument
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..policies.registry import make_policy, policy_specs, spec_for_instance
from .block import AccessType, CacheRequest
from .config import CacheConfig, HierarchyConfig, scaled_hierarchy
from .fastpolicies import (
    _decode_stream,
    _DRRIPKernel,
    _GliderKernel,
    _HawkeyeKernel,
    _ShipKernel,
    _StreamKernel,
)
from .stats import CacheStats

__all__ = [
    "FAST_PATH_POLICIES",
    "REFERENCE_ONLY_POLICIES",
    "EngineParityError",
    "StreamChunk",
    "StreamingLLCFilter",
    "fast_filter_to_llc_stream",
    "fast_path_kernel",
    "make_stream_kernel",
    "replay",
    "reference_replay",
    "verify_parity",
]

#: Registry names with a fast-path kernel, in registry order: the specs
#: that carry ``kernel=`` (stateless kernels here, learned ones in
#: :mod:`repro.cache.fastpolicies`).
FAST_PATH_POLICIES = tuple(n for n, spec in policy_specs().items() if spec.kernel)

#: Registry names without a kernel: policies whose victim choice depends
#: on hook-level state the flat kernels do not model (dead-block and
#: perceptron samplers, the per-set reuse-distance heads of the frd
#: family).  They replay on the reference engine.
REFERENCE_ONLY_POLICIES = tuple(
    n for n, spec in policy_specs().items() if spec.kernel is None
)

#: Event tuple layout: (hit, bypassed, way, evicted_tag, evicted_dirty).
_KIND_LOAD, _KIND_STORE, _KIND_WRITEBACK = 0, 1, 2


class EngineParityError(AssertionError):
    """Fast and reference engines diverged (bug in a fast-path kernel).

    Besides the human-readable message, carries the structured location
    of the first divergence when known: ``index`` (access number),
    ``set_index``, the two event tuples ``ref_event`` / ``fast_event``
    (hit, bypassed, way, evicted_tag, evicted_dirty), and ``set_state``
    — the reference engine's per-way ``{way, tag, dirty, last_touch}``
    snapshot of the divergent set *immediately before* the divergent
    access — so a shrunk repro is debuggable without re-instrumenting.
    """

    def __init__(
        self,
        message: str,
        *,
        policy: str | None = None,
        index: int | None = None,
        set_index: int | None = None,
        ref_event: tuple | None = None,
        fast_event: tuple | None = None,
        set_state: list | None = None,
    ) -> None:
        super().__init__(message)
        self.policy = policy
        self.index = index
        self.set_index = set_index
        self.ref_event = ref_event
        self.fast_event = fast_event
        self.set_state = set_state


# -- policy -> kernel resolution ---------------------------------------------


def fast_path_kernel(policy) -> tuple[str, dict] | None:
    """Resolve a policy (registry name or instance) to a fast kernel.

    Returns ``(kernel, params)`` or None when the policy must take the
    reference engine; the policy's registry spec supplies both, reading
    every parameter from an instance.  A name resolves through a fresh
    instance.  An instance resolves by *exact* type, so a subclass with
    overridden hooks is never silently fast-pathed; a stochastic
    instance is assumed fresh (un-drawn RNG), which is how every
    experiment constructs them.  The learned policies (specs with
    ``trains`` set: DRRIP, SHiP, SHiP++, Hawkeye, Glider) fast-path by
    *registry name only*: their instances accumulate trained state
    (PSEL/SHCT/predictor tables/ISVM weights) that callers inspect after
    a simulation — e.g. the accuracy eval reads ``policy.predictor`` —
    and a kernel replay would leave the object untouched.  Pass the name
    when only the stats matter; pass an instance to get a trained object
    back.
    """
    if isinstance(policy, str):
        spec = policy_specs().get(policy)
        if spec is None or spec.kernel is None:
            return None
        return spec.kernel(spec.make())
    spec = spec_for_instance(policy)
    if spec is None or spec.kernel is None or spec.trains:
        return None
    return spec.kernel(policy)


def _llc_config(config) -> CacheConfig:
    if config is None:
        return scaled_hierarchy().llc
    if isinstance(config, HierarchyConfig):
        return config.llc
    return config


# -- fast kernels -------------------------------------------------------------
# (_StreamKernel, the feed/step protocol, lives in fastpolicies and is
# shared by the stateless kernels below and the learned-policy kernels
# there.)


class _RecencyKernel(_StreamKernel):
    """LRU (``newest=False``) / MRU (``newest=True``) fast kernel.

    Like every kernel class in this module and
    :mod:`repro.cache.fastpolicies`, all cross-access state lives in
    attributes so the kernel can be fed a stream in bounded-memory
    chunks (any number of :meth:`feed` calls, then :meth:`finish`) and
    pickled between chunks for checkpointed streaming replay; a one-shot
    :func:`replay` is a single :meth:`feed` of the whole stream.
    """

    def __init__(self, config: CacheConfig, newest: bool) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.newest = newest
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.touch_t = [[0] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.dh = self.dm = self.wh = self.wm = 0
        self.ev = self.dev = self.counter = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def _run(self, columns, record) -> None:
        _recency_feed(self, columns, record)


def _recency_feed(kernel, columns, record) -> None:
    config = kernel.config
    sets, tags, kinds, cores = columns
    num_sets, assoc = config.num_sets, config.associativity
    newest = kernel.newest
    tag_t = kernel.tag_t
    touch_t = kernel.touch_t
    dirty_t = kernel.dirty_t
    fill_count = kernel.fill_count
    dh, dm, wh, wm, ev, dev, counter = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm,
        kernel.ev, kernel.dev, kernel.counter,
    )
    pch = kernel.pch
    pcm = kernel.pcm
    for i in range(len(sets)):
        s = sets[i]
        t = tags[i]
        k = kinds[i]
        counter += 1
        row = tag_t[s]
        if t in row:
            w = row.index(t)
            touch_t[s][w] = counter
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
            tr = touch_t[s]
            w = tr.index(max(tr)) if newest else tr.index(min(tr))
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
        row[w] = t
        touch_t[s][w] = counter
        dirty_t[s][w] = k != _KIND_LOAD
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.dh, kernel.dm, kernel.wh, kernel.wm = dh, dm, wh, wm
    kernel.ev, kernel.dev, kernel.counter = ev, dev, counter


class _RandomKernel(_StreamKernel):
    """Random-victim fast kernel (reference RNG draw sequence preserved).

    The RNG and its refill buffer are attributes: a pickled kernel
    resumes the exact draw sequence, so chunked replay stays
    bit-identical to one-shot.
    """

    def __init__(self, config: CacheConfig, seed: int) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        # Batched draws are bit-identical to per-call draws for PCG64, so
        # a refill buffer preserves the reference policy's exact sequence.
        self.rng = np.random.default_rng(seed)
        self.draw_buf: list[int] = []
        self.draw_pos = 0
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def _run(self, columns, record) -> None:
        _random_feed(self, columns, record)


def _random_feed(kernel, columns, record) -> None:
    config = kernel.config
    sets, tags, kinds, cores = columns
    num_sets, assoc = config.num_sets, config.associativity
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    fill_count = kernel.fill_count
    rng = kernel.rng
    draw_buf = kernel.draw_buf
    draw_pos = kernel.draw_pos
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
            if draw_pos == len(draw_buf):
                draw_buf = rng.integers(assoc, size=4096).tolist()
                draw_pos = 0
            w = draw_buf[draw_pos]
            draw_pos += 1
            ev_tag, ev_dirty = row[w], dirty_t[s][w]
            ev += 1
            if ev_dirty:
                dev += 1
        row[w] = t
        dirty_t[s][w] = k != _KIND_LOAD
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.draw_buf = draw_buf
    kernel.draw_pos = draw_pos
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )


class _RRIPKernel(_StreamKernel):
    """SRRIP (``long_prob=None``) / BRRIP fast kernel (chunk-feedable)."""

    def __init__(self, config: CacheConfig, max_rrpv: int, long_prob, seed: int) -> None:
        num_sets, assoc = config.num_sets, config.associativity
        self.config = config
        self.max_rrpv = max_rrpv
        self.long_prob = long_prob
        self.tag_t = [[-1] * assoc for _ in range(num_sets)]
        self.dirty_t = [[False] * assoc for _ in range(num_sets)]
        self.rrpv_t = [[0] * assoc for _ in range(num_sets)]
        self.fill_count = [0] * num_sets
        self.rng = np.random.default_rng(seed) if long_prob is not None else None
        self.draw_buf: list[float] = []
        self.draw_pos = 0
        self.dh = self.dm = self.wh = self.wm = self.ev = self.dev = 0
        self.pch: dict[int, int] = {}
        self.pcm: dict[int, int] = {}

    def _run(self, columns, record) -> None:
        _rrip_feed(self, columns, record)


def _rrip_feed(kernel, columns, record) -> None:
    config = kernel.config
    sets, tags, kinds, cores = columns
    num_sets, assoc = config.num_sets, config.associativity
    max_rrpv = kernel.max_rrpv
    long_prob = kernel.long_prob
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
        if rng is None:
            rrpv_t[s][w] = long_rrpv
        else:
            if draw_pos == len(draw_buf):
                draw_buf = rng.random(size=4096).tolist()
                draw_pos = 0
            rrpv_t[s][w] = long_rrpv if draw_buf[draw_pos] < long_prob else max_rrpv
            draw_pos += 1
        if record is not None:
            record.append((0, 0, w, ev_tag, int(ev_dirty)))
    kernel.draw_buf = draw_buf
    kernel.draw_pos = draw_pos
    kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
        dh, dm, wh, wm, ev, dev
    )


# Kernel kind -> chunk-feedable class (params as from fast_path_kernel).
_STREAM_KERNELS = {
    "lru": lambda cfg, **p: _RecencyKernel(cfg, newest=False, **p),
    "mru": lambda cfg, **p: _RecencyKernel(cfg, newest=True, **p),
    "random": _RandomKernel,
    "rrip": _RRIPKernel,
    "drrip": _DRRIPKernel,
    "ship": _ShipKernel,
    "hawkeye": _HawkeyeKernel,
    "glider": _GliderKernel,
}


#: LLCStream kind code -> the reference engine's access type.
_ACCESS_TYPES = (AccessType.LOAD, AccessType.STORE, AccessType.WRITEBACK)


class _ReferenceKernel:
    """Chunk-feedable wrapper around the reference object engine.

    The reference side of every replay: :func:`reference_replay` feeds
    it the whole stream, the streaming path feeds it chunks, and the
    multi-core interleave steps it (the :class:`_StreamKernel` protocol,
    with plain columns).  A running ``access_index`` carries across
    chunks so requests are numbered exactly as
    :meth:`LLCStream.requests` would number them in one shot; a step
    takes its number from the caller.  The wrapped cache and policy are
    plain attribute state, so the kernel pickles for checkpointing
    whenever the policy itself does.
    """

    def __init__(self, policy, config) -> None:
        from .cache import SetAssociativeCache

        if isinstance(policy, str):
            policy = make_policy(policy)
        self.llc = SetAssociativeCache(_llc_config(config), policy)
        self.access_index = 0

    def decode(self, stream) -> tuple:
        return (
            stream.pcs.tolist(),
            stream.addresses.tolist(),
            stream.kinds.tolist(),
            stream.cores.tolist(),
        )

    def feed(self, stream, record=None) -> None:
        columns = self.decode(stream)
        for i in range(len(columns[0])):
            result = self._access(columns, i, self.access_index)
            self.access_index += 1
            if record is not None:
                record.append(
                    (
                        int(result.hit),
                        int(result.bypassed),
                        result.way,
                        result.evicted_tag,
                        int(result.evicted_dirty),
                    )
                )

    def step(self, columns: tuple, i: int, access_index: int = 0) -> bool:
        return self._access(columns, i, access_index).hit

    def _access(self, columns: tuple, i: int, access_index: int):
        pcs, addresses, kinds, cores = columns
        return self.llc.access(
            CacheRequest(
                pc=pcs[i],
                address=addresses[i],
                access_type=_ACCESS_TYPES[kinds[i]],
                core=cores[i],
                access_index=access_index,
            )
        )

    def finish(self) -> CacheStats:
        return self.llc.stats

    @property
    def stats(self) -> CacheStats:
        return self.llc.stats


def make_stream_kernel(policy, config=None, engine: str = "auto"):
    """Build a chunk-feedable replay kernel for ``policy``.

    Returns an object with ``feed(chunk, record=None)`` and
    ``finish() -> CacheStats``; ``chunk`` is anything with
    ``pcs``/``addresses``/``kinds``/``cores`` columns
    (:class:`StreamChunk` or a full ``LLCStream``).  Feeding a stream
    in any chunking produces bit-identical stats to a one-shot
    :func:`replay` of the same accesses, and so does stepping it one
    access at a time (``decode(stream)`` once, then ``step(columns, i,
    access_index) -> hit`` per access).  ``engine`` follows
    :func:`replay`: ``"auto"`` picks the fast kernel when one exists,
    ``"reference"`` forces the object engine, ``"fast"`` raises for
    unsupported policies.
    """
    if engine not in ("auto", "fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    llc = _llc_config(config)
    resolved = fast_path_kernel(policy) if engine != "reference" else None
    if resolved is None:
        if engine == "fast":
            name = policy if isinstance(policy, str) else type(policy).__name__
            raise ValueError(f"policy {name!r} has no fast-path kernel")
        return _ReferenceKernel(policy, llc)
    kind, params = resolved
    return _STREAM_KERNELS[kind](llc, **params)


# -- the engine protocol ------------------------------------------------------


def reference_replay(stream, policy, config=None, record: list | None = None) -> CacheStats:
    """Replay on the reference object-based engine, optionally recording
    the per-access event stream for parity checking."""
    return _run(_ReferenceKernel(policy, config), stream, record)


def _run(kernel, stream, record) -> CacheStats:
    kernel.feed(stream, record)
    return kernel.finish()


def replay(
    stream,
    policy,
    config=None,
    engine: str = "auto",
    record: list | None = None,
    verify: bool = False,
) -> CacheStats:
    """Observability wrapper around :func:`_replay` (same contract).

    When metrics/tracing are off — the default — this is one flag check
    and a tail call; the kernels themselves are never instrumented, so
    the fast path pays nothing per access.  An installed
    :mod:`repro.obs.insight` recorder is engine-independent (the kernels
    and reference policies feed it directly); this wrapper only mirrors
    its gauges into the metrics registry after the run.
    """
    if not obs_metrics.ENABLED and obs_trace.get_tracer() is None:
        return _replay(stream, policy, config, engine, record, verify)

    pname = policy if isinstance(policy, str) else getattr(
        policy, "name", type(policy).__name__
    )
    used = "fast" if engine != "reference" and fast_path_kernel(policy) else "reference"
    accesses = len(stream.addresses)
    with obs_trace.span(
        "sim.replay", policy=str(pname), engine=used, accesses=accesses,
        benchmark=stream.name,
    ):
        t0 = time.perf_counter()
        stats = _replay(stream, policy, config, engine, record, verify)
        elapsed = time.perf_counter() - t0
    if obs_metrics.ENABLED:
        labels = {"policy": str(pname), "engine": used}
        obs_metrics.counter("sim.replay.calls", **labels).inc()
        obs_metrics.counter("sim.replay.accesses", **labels).inc(accesses)
        if elapsed > 0:
            obs_metrics.gauge("sim.replay.accesses_per_s", **labels).set(
                accesses / elapsed
            )
        obs_instrument.record_cache_stats(
            stats, prefix="sim.llc", policy=str(pname), benchmark=stream.name
        )
        if not isinstance(policy, str):
            obs_instrument.record_policy_introspection(
                policy, benchmark=stream.name
            )
        recorder = obs_insight.get_recorder()
        if recorder is not None:
            recorder.publish()
    return stats


def _replay(
    stream,
    policy,
    config=None,
    engine: str = "auto",
    record: list | None = None,
    verify: bool = False,
) -> CacheStats:
    """Replay an LLC stream against a policy on the best engine.

    ``policy`` is a registry name or a :class:`ReplacementPolicy`
    instance; ``config`` a :class:`HierarchyConfig`, a single
    :class:`CacheConfig` (the LLC geometry), or None for the default
    scaled hierarchy.  ``engine`` is ``"auto"`` (fast when a kernel
    exists, reference otherwise), ``"fast"`` (error if unsupported), or
    ``"reference"``.

    Graceful degradation: with ``engine="auto"``, an
    :class:`EngineParityError` raised at runtime — by a self-checking
    kernel, or by the ``verify=True`` cross-check below — does not
    propagate; the replay falls back to the reference engine with a
    :class:`RuntimeWarning`, so a fast-path bug costs speed, never a
    run.  ``verify=True`` (registry-name policies only) runs *both*
    engines and checks access-by-access parity — a paranoia mode for
    long unattended sweeps; with ``engine="fast"`` a parity failure
    still raises.
    """
    kernel = make_stream_kernel(policy, config, engine)
    if isinstance(kernel, _ReferenceKernel):
        return _run(kernel, stream, record)
    if verify and not isinstance(policy, str):
        raise ValueError("verify=True requires a registry-name policy")
    try:
        if verify:
            fast_events = record if record is not None else []
            fast_stats = _run(kernel, stream, fast_events)
            ref_events: list = []
            ref_stats = reference_replay(stream, policy, config, record=ref_events)
            if fast_events != ref_events or fast_stats != ref_stats:
                raise EngineParityError(
                    f"{policy}: fast and reference engines diverged at runtime"
                )
            return fast_stats
        return _run(kernel, stream, record)
    except EngineParityError as error:
        if engine == "fast":
            raise
        warnings.warn(
            f"fast engine failed parity ({error}); falling back to the "
            "reference engine for this replay",
            RuntimeWarning,
            stacklevel=2,
        )
        if record is not None:
            record.clear()
        return reference_replay(stream, policy, config, record=record)


def _set_state_before(stream, policy_name: str, config, index: int) -> tuple[int, list]:
    """Reference-engine snapshot of the divergent set just before ``index``.

    Returns ``(set_index, per_way_state)`` where each way is a dict of
    ``{way, tag, dirty, last_touch}`` (invalid ways report ``tag=None``).
    Cost is one partial replay — negligible for the shrunk repros this
    diagnostic exists for.
    """
    from .cache import SetAssociativeCache

    llc_config = _llc_config(config)
    llc = SetAssociativeCache(llc_config, make_policy(policy_name))
    for i, request in enumerate(stream.requests()):
        if i >= index:
            set_index = llc.set_index(request.address)
            break
        llc.access(request)
    else:  # index past the end: report the last access's set
        set_index = llc.set_index(int(stream.addresses[-1]))
    state = [
        {
            "way": way,
            "tag": line.tag if line.valid else None,
            "dirty": bool(line.dirty) if line.valid else False,
            "last_touch": line.last_touch if line.valid else None,
        }
        for way, line in enumerate(llc.sets[set_index])
    ]
    return set_index, state


def _describe_divergence(
    policy_name: str, index: int, set_index: int, ref, fast, set_state
) -> str:
    """Victim-way/tag diff plus the set snapshot, as one message."""
    fields = ("hit", "bypassed", "way", "evicted_tag", "evicted_dirty")
    delta = ", ".join(
        f"{name}: ref={r} fast={f}"
        for name, r, f in zip(fields, ref, fast)
        if r != f
    )
    ways = "; ".join(
        (
            f"way {w['way']}: tag={w['tag']:#x} dirty={w['dirty']} "
            f"touch={w['last_touch']}"
        )
        if w["tag"] is not None
        else f"way {w['way']}: invalid"
        for w in set_state
    )
    return (
        f"{policy_name}: engines diverge at access {index} (set {set_index}): "
        f"reference={ref} fast={fast} "
        "(hit, bypassed, way, evicted_tag, evicted_dirty); "
        f"delta [{delta}]; set {set_index} before the access: [{ways}]"
    )


def verify_parity(stream, policy_name: str, config=None) -> tuple[CacheStats, CacheStats]:
    """Assert fast/auto and reference engines agree access-by-access.

    ``policy_name`` must be a registry name (fresh instances are built
    per engine so learned state cannot leak between runs).  Returns the
    two stats objects; raises :class:`EngineParityError` naming the
    first divergent access — including the victim-way/tag delta and the
    reference engine's snapshot of the divergent set — otherwise.
    """
    ref_events: list = []
    fast_events: list = []
    ref_stats = replay(stream, policy_name, config, engine="reference", record=ref_events)
    fast_stats = replay(stream, policy_name, config, engine="auto", record=fast_events)
    if ref_events != fast_events:
        for i, (r, f) in enumerate(zip(ref_events, fast_events)):
            if r != f:
                set_index, set_state = _set_state_before(stream, policy_name, config, i)
                raise EngineParityError(
                    _describe_divergence(policy_name, i, set_index, r, f, set_state),
                    policy=policy_name,
                    index=i,
                    set_index=set_index,
                    ref_event=r,
                    fast_event=f,
                    set_state=set_state,
                )
        raise EngineParityError(
            f"{policy_name}: event streams differ in length: "
            f"{len(ref_events)} vs {len(fast_events)}",
            policy=policy_name,
        )
    if ref_stats != fast_stats:
        raise EngineParityError(
            f"{policy_name}: stats differ: {ref_stats} vs {fast_stats}",
            policy=policy_name,
        )
    return ref_stats, fast_stats


# -- fast stream filter -------------------------------------------------------


def fast_filter_to_llc_stream(trace, config: HierarchyConfig | None = None):
    """Observability wrapper around :func:`_fast_filter` (same contract)."""
    if not obs_metrics.ENABLED and obs_trace.get_tracer() is None:
        return _fast_filter(trace, config)
    accesses = trace.num_accesses
    with obs_trace.span(
        "sim.filter", benchmark=trace.name, accesses=accesses
    ):
        t0 = time.perf_counter()
        stream = _fast_filter(trace, config)
        elapsed = time.perf_counter() - t0
    if obs_metrics.ENABLED:
        obs_metrics.counter("sim.filter.calls").inc()
        obs_metrics.counter("sim.filter.accesses").inc(accesses)
        obs_metrics.counter("sim.filter.stream_length").inc(len(stream.addresses))
        if elapsed > 0:
            obs_metrics.gauge("sim.filter.accesses_per_s").set(accesses / elapsed)
    return stream


def _fast_filter(trace, config: HierarchyConfig | None = None):
    """Vectorized rewrite of :func:`repro.cache.hierarchy.filter_to_llc_stream`.

    The L1/L2 filter is policy-independent (both levels are true LRU)
    and the recorded stream does not depend on the LLC's own state, so
    this simulates only L1 and L2 with flat per-set lists and skips the
    LLC entirely.  Output is bit-identical to the reference filter:
    same access order (each L2 demand miss, then any L2 dirty-eviction
    writeback), same writeback PC/core attribution, same
    ``l1_hits``/``l2_hits``.
    """
    from .hierarchy import CacheHierarchy, LLCStream

    config = config or scaled_hierarchy()
    l1c, l2c = config.l1, config.l2
    if not (l1c.line_size == l2c.line_size == config.llc.line_size):
        # Mixed line sizes are outside the fast filter's model.
        hierarchy = CacheHierarchy(config)
        stream = hierarchy.run(trace, record_llc_stream=True)
        assert stream is not None
        return stream

    filt = StreamingLLCFilter(config, name=trace.name)
    chunk = filt.feed(trace.pcs, trace.addresses, trace.is_write)
    return LLCStream(
        name=trace.name,
        pcs=chunk.pcs,
        addresses=chunk.addresses,
        kinds=chunk.kinds,
        cores=chunk.cores,
        line_size=trace.line_size,
        source_accesses=trace.num_accesses,
        source_instructions=trace.num_instructions,
        l1_hits=filt.l1_hits,
        l2_hits=filt.l2_hits,
        metadata=dict(trace.metadata),
        levels=chunk.levels,
    )


@dataclass
class StreamChunk:
    """A bounded slice of LLC-bound accesses from a streaming filter.

    Duck-types the subset of :class:`~repro.cache.hierarchy.LLCStream`
    the replay kernels read (``pcs``/``addresses``/``kinds``/``cores``
    columns plus ``name``), without the whole-trace bookkeeping — the
    streaming path never materializes a full stream.  ``levels`` has one
    entry per *source* access of the chunk: the level that served it
    (see :attr:`~repro.cache.hierarchy.LLCStream.levels`).
    """

    name: str
    pcs: np.ndarray
    addresses: np.ndarray
    kinds: np.ndarray
    cores: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.pcs)


class StreamingLLCFilter:
    """Chunk-feedable port of :func:`_fast_filter`'s L1/L2 LRU filter.

    Feed raw trace columns in bounded chunks; each :meth:`feed` returns
    the :class:`StreamChunk` of accesses that reached the LLC during
    that chunk (possibly empty).  All filter state (L1/L2 tag/touch
    tables, dirty bits, LRU counters, hit counts) lives in plain-list
    attributes, so the filter pickles for checkpointed resume and a
    single whole-trace feed is bit-identical to :func:`_fast_filter`
    (which is now routed through this class).
    """

    def __init__(self, config: HierarchyConfig | None = None, name: str = "stream") -> None:
        config = config or scaled_hierarchy()
        l1c, l2c = config.l1, config.l2
        if not (l1c.line_size == l2c.line_size == config.llc.line_size):
            raise ValueError(
                "StreamingLLCFilter requires equal line sizes at every level"
            )
        self.config = config
        self.name = name
        self.shift = (l1c.line_size - 1).bit_length()
        assoc1, assoc2 = l1c.associativity, l2c.associativity
        self.l1_tags = [[-1] * assoc1 for _ in range(l1c.num_sets)]
        self.l1_touch = [[0] * assoc1 for _ in range(l1c.num_sets)]
        self.l1_fill = [0] * l1c.num_sets
        self.l2_tags = [[-1] * assoc2 for _ in range(l2c.num_sets)]
        self.l2_touch = [[0] * assoc2 for _ in range(l2c.num_sets)]
        self.l2_dirty = [[False] * assoc2 for _ in range(l2c.num_sets)]
        self.l2_pc = [[0] * assoc2 for _ in range(l2c.num_sets)]
        self.l2_core = [[0] * assoc2 for _ in range(l2c.num_sets)]
        self.l2_fill = [0] * l2c.num_sets
        self.c1 = self.c2 = self.l1_hits = self.l2_hits = 0
        self.accesses_seen = 0

    def feed(self, pcs, addresses, is_write) -> StreamChunk:
        return _filter_feed(self, pcs, addresses, is_write)


def _filter_feed(filt, pcs_arr, addresses_arr, is_write_arr) -> StreamChunk:
    config = filt.config
    l1c, l2c = config.l1, config.l2
    shift = filt.shift
    lines = np.asarray(addresses_arr).astype(np.uint64) >> np.uint64(shift)
    mask1, mask2 = l1c.num_sets - 1, l2c.num_sets - 1
    tag_shift1, tag_shift2 = mask1.bit_length(), mask2.bit_length()
    set1 = (lines & np.uint64(mask1)).astype(np.int64).tolist()
    tag1 = (lines >> np.uint64(tag_shift1)).astype(np.int64).tolist()
    set2 = (lines & np.uint64(mask2)).astype(np.int64).tolist()
    tag2 = (lines >> np.uint64(tag_shift2)).astype(np.int64).tolist()
    pcs = np.asarray(pcs_arr).tolist()
    addresses = np.asarray(addresses_arr).tolist()
    writes = np.asarray(is_write_arr).tolist()

    assoc1, assoc2 = l1c.associativity, l2c.associativity
    l1_tags = filt.l1_tags
    l1_touch = filt.l1_touch
    l1_fill = filt.l1_fill
    l2_tags = filt.l2_tags
    l2_touch = filt.l2_touch
    l2_dirty = filt.l2_dirty
    l2_pc = filt.l2_pc
    l2_core = filt.l2_core
    l2_fill = filt.l2_fill

    r_pcs: list[int] = []
    r_addresses: list[int] = []
    r_kinds: list[int] = []
    r_cores: list[int] = []
    c1, c2, l1_hits, l2_hits = filt.c1, filt.c2, filt.l1_hits, filt.l2_hits
    # Service level per source access (LLCStream.LEVEL_* codes: 0 L1 hit,
    # 1 L2 hit, 2 reached the LLC); L1 hits keep the zero fill.
    levels = bytearray(len(lines))

    for i in range(len(lines)):
        is_write = writes[i]
        c1 += 1
        s = set1[i]
        t = tag1[i]
        row = l1_tags[s]
        if t in row:
            l1_touch[s][row.index(t)] = c1
            l1_hits += 1
            continue
        if l1_fill[s] < assoc1:
            w = row.index(-1)
            l1_fill[s] += 1
        else:
            tr = l1_touch[s]
            w = tr.index(min(tr))
        row[w] = t
        l1_touch[s][w] = c1

        c2 += 1
        s = set2[i]
        t = tag2[i]
        row = l2_tags[s]
        if t in row:
            w = row.index(t)
            l2_touch[s][w] = c2
            if is_write:
                l2_dirty[s][w] = True
            l2_hits += 1
            levels[i] = 1
            continue
        levels[i] = 2
        pc = pcs[i]
        r_pcs.append(pc)
        r_addresses.append(addresses[i])
        r_kinds.append(_KIND_STORE if is_write else _KIND_LOAD)
        r_cores.append(0)
        if l2_fill[s] < assoc2:
            w = row.index(-1)
            l2_fill[s] += 1
        else:
            tr = l2_touch[s]
            w = tr.index(min(tr))
            if l2_dirty[s][w]:
                r_pcs.append(l2_pc[s][w])
                r_addresses.append(((row[w] << tag_shift2) | s) << shift)
                r_kinds.append(_KIND_WRITEBACK)
                r_cores.append(l2_core[s][w])
        row[w] = t
        l2_touch[s][w] = c2
        l2_dirty[s][w] = is_write
        l2_pc[s][w] = pc
        l2_core[s][w] = 0

    filt.c1, filt.c2, filt.l1_hits, filt.l2_hits = c1, c2, l1_hits, l2_hits
    filt.accesses_seen += len(lines)
    return StreamChunk(
        name=filt.name,
        pcs=np.array(r_pcs, dtype=np.uint64),
        addresses=np.array(r_addresses, dtype=np.uint64),
        kinds=np.array(r_kinds, dtype=np.int8),
        cores=np.array(r_cores, dtype=np.int16),
        levels=np.frombuffer(levels, dtype=np.int8),
    )
