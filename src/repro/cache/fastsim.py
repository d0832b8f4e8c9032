"""Fast-path LLC simulation engine (``repro.cache.fastsim``).

The reference simulator (:class:`~repro.cache.cache.SetAssociativeCache`
driven by :func:`~repro.cache.hierarchy.simulate_llc`) walks lists of
:class:`~repro.cache.block.CacheLine` objects and allocates a
``CacheRequest`` per access.  That generality is what lets every policy
hook every event — but for the policies whose state fits in a few
per-line integers and flat tables it is pure overhead.

This module provides:

* **Fast-path kernels** — flat per-set tag/dirty/RRPV state (no
  per-line objects, set/tag splitting vectorized up front with NumPy;
  the recency kernel's sets are recency-ordered dicts, so a hit or a
  victim costs O(1)).  Eight kernel classes serve the
  twelve registry policies plus Belady's MIN, each with one coroutine
  loop that a whole-stream ``feed`` sends once and a ``step`` sends one
  access at a time.  The recency (LRU, MRU), random and MIN kernels
  live here; the RRIP kernel (SRRIP, BRRIP and DRRIP), SHiP/SHiP++,
  Hawkeye, Glider and one hashed-perceptron kernel for MPPPB and
  Perceptron live in :mod:`repro.cache.fastpolicies`, as does the
  substrate they share.
  Which policy takes which kernel, with which parameters, is declared
  once by ``kernel=`` on its :class:`~repro.policies.registry.PolicySpec`;
  MIN, built from the stream it replays and so not a registry policy,
  resolves in :func:`fast_path_kernel` itself.
* **A shared engine protocol** — :func:`replay` dispatches a policy
  (registry name or instance) to its fast kernel when one exists and
  falls back *transparently* to the reference engine otherwise, so
  callers never need to know which policies are accelerated.  A name
  is shorthand for a fresh instance, and a learned kernel writes its
  trained state back into a caller's instance at ``finish()``, so the
  object reads the same after either engine.
* **A parity harness** — both engines can record a per-access event
  stream ``(hit, bypassed, way, evicted_tag, evicted_dirty)``;
  :func:`verify_parity` asserts access-by-access equivalence plus equal
  :class:`~repro.cache.stats.CacheStats`, and names the first divergent
  access when they differ.
* **A fast stream filter** — :func:`fast_filter_to_llc_stream`, a
  rewrite of the policy-independent L1/L2 LRU filter that dominates
  stream construction, on recency-ordered dict sets; it produces a
  bit-identical :class:`~repro.cache.hierarchy.LLCStream`.

Determinism: the stochastic kernels (random, BRRIP) reproduce the
reference policies' exact RNG draw sequence (``np.random.default_rng``
seeded identically, drawn at the same events), so fast and reference
runs are bit-identical, not merely statistically alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import insight as obs_insight
from ..obs import instrument as obs_instrument
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..optgen.belady import INF
from ..policies.belady_policy import BeladyPolicy
from ..policies.registry import make_policy, policy_specs, spec_for_instance
from .block import AccessType, CacheRequest
from .config import CacheConfig, HierarchyConfig, scaled_hierarchy
from .fastpolicies import (
    _decode_stream,
    _DRRIPKernel,
    _GliderKernel,
    _HawkeyeKernel,
    _PerceptronKernel,
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
#: that carry ``kernel=`` (recency and random kernels here, the rest in
#: :mod:`repro.cache.fastpolicies`).
FAST_PATH_POLICIES = tuple(n for n, spec in policy_specs().items() if spec.kernel)

#: Registry names without a kernel: SDBP, whose LRU-by-last-touch
#: substrate and skewed three-table predictor no kernel models yet.  No
#: paper figure runs it; it replays on the reference engine.
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
    reference engine.  A name resolves as the fresh instance
    :func:`~repro.policies.registry.make_policy` builds; an instance
    resolves by *exact* type to its registry spec, which reads every
    parameter off it, so a subclass with overridden hooks is never
    silently fast-pathed.  A :class:`~repro.policies.belady_policy.BeladyPolicy`
    has no registry spec but resolves the same way: its exact type takes
    the MIN kernel, with the policy's next-use column.

    The instance is assumed fresh — an un-drawn RNG and untrained
    tables, which is how every experiment constructs them — because a
    kernel starts from the spec's parameters, not from the instance's
    current state.  A kernel built from a caller's instance writes the
    state it trains (PSEL, SHCT, predictor counters, ISVM weights, the
    OPTgen sampler, prediction scores, perceptron weights with their
    history and training sampler) back into it at ``finish()``.
    """
    if isinstance(policy, str):
        policy = make_policy(policy)
    if type(policy) is BeladyPolicy:
        return "belady", {"next_use": policy._next_use}
    spec = spec_for_instance(policy)
    if spec is None or spec.kernel is None:
        return None
    return spec.kernel(policy)


def _llc_config(config) -> CacheConfig:
    if config is None:
        return scaled_hierarchy().llc
    if isinstance(config, HierarchyConfig):
        return config.llc
    return config


# -- fast kernels -------------------------------------------------------------
# (_StreamKernel, the feed/step protocol and the per-set substrate, lives
# in fastpolicies and is shared by the kernels below and those there.)


class _RecencyKernel(_StreamKernel):
    """LRU (``newest=False``) / MRU (``newest=True``) fast kernel.

    Like every kernel class in this module and
    :mod:`repro.cache.fastpolicies`, all cross-access state lives in
    attributes so the kernel can be fed a stream in bounded-memory
    chunks (any number of :meth:`feed` calls, then :meth:`finish`) and
    pickled between chunks for checkpointed streaming replay; a one-shot
    :func:`replay` is a single :meth:`feed` of the whole stream.  The
    loop itself is the coroutine :func:`_recency_loop`.

    Each set's ``tag_t`` entry is a dict from resident tag to way whose
    key order is recency order, least recent first: a hit re-inserts its
    tag, LRU evicts the first key and MRU the last.  The LLC never
    invalidates a line, so a set holding ``n`` lines fills ways
    ``0..n-1`` and its next fill takes way ``n``, the reference's first
    invalid way; no fill count is kept.
    """

    def __init__(self, config: CacheConfig, newest: bool) -> None:
        super().__init__(config)
        self.newest = newest
        self.tag_t = [{} for _ in range(config.num_sets)]
        del self.fill_count

    def _loop(self):
        return _recency_loop(self)


def _recency_loop(kernel):
    assoc = kernel.config.associativity
    newest = kernel.newest
    tag_t = kernel.tag_t
    dirty_t = kernel.dirty_t
    dh, dm, wh, wm, ev, dev = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev
    )
    pch = kernel.pch
    pcm = kernel.pcm
    hit = None
    try:
        while True:
            (sets, tags, kinds, cores), start, stop, record = yield hit
            for i in range(start, stop):
                s = sets[i]
                t = tags[i]
                k = kinds[i]
                lines = tag_t[s]
                w = lines.pop(t, -1)
                if w >= 0:
                    lines[t] = w
                    hit = True
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
                hit = False
                ev_tag, ev_dirty = -1, False
                w = len(lines)
                if w == assoc:
                    ev_tag = next(reversed(lines)) if newest else next(iter(lines))
                    w = lines.pop(ev_tag)
                    ev_dirty = dirty_t[s][w]
                    ev += 1
                    if ev_dirty:
                        dev += 1
                lines[t] = w
                dirty_t[s][w] = k != _KIND_LOAD
                if record is not None:
                    record.append((0, 0, w, ev_tag, int(ev_dirty)))
    finally:
        kernel.dh, kernel.dm, kernel.wh, kernel.wm = dh, dm, wh, wm
        kernel.ev, kernel.dev = ev, dev


class _RandomKernel(_StreamKernel):
    """Random-victim fast kernel (reference RNG draw sequence preserved).

    The RNG and its refill buffer are attributes: a pickled kernel
    resumes the exact draw sequence, so chunked replay stays
    bit-identical to one-shot.
    """

    def __init__(self, config: CacheConfig, seed: int) -> None:
        super().__init__(config)
        # Batched draws are bit-identical to per-call draws for PCG64, so
        # a refill buffer preserves the reference policy's exact sequence.
        self.rng = np.random.default_rng(seed)
        self.draw_buf: list[int] = []
        self.draw_pos = 0

    def _loop(self):
        return _random_loop(self)


def _random_loop(kernel):
    config = kernel.config
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
    hit = None
    try:
        while True:
            (sets, tags, kinds, cores), start, stop, record = yield hit
            for i in range(start, stop):
                s = sets[i]
                t = tags[i]
                k = kinds[i]
                row = tag_t[s]
                if t in row:
                    w = row.index(t)
                    hit = True
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
                hit = False
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
    finally:
        kernel.draw_buf = draw_buf
        kernel.draw_pos = draw_pos
        kernel.dh, kernel.dm, kernel.wh, kernel.wm, kernel.ev, kernel.dev = (
            dh, dm, wh, wm, ev, dev
        )


class _BeladyKernel(_StreamKernel):
    """Belady's MIN fast kernel over a pre-recorded stream.

    Each resident line keeps its next use, an index into the recorded
    stream (``INF`` for none), in the per-set list ``nu_t``, and a hit
    moves it on.  A miss bypasses a line never used again, fills the
    first free way, or evicts the furthest next use (the first way on
    ties) unless the newcomer's is no sooner, when it bypasses.  The
    next-use column is indexed by the kernel's own running
    ``access_index``, which counts every access fed or stepped, exactly
    as :class:`_ReferenceKernel` numbers its requests; an access beyond
    the recorded stream raises :class:`IndexError`, as
    :class:`~repro.policies.belady_policy.BeladyPolicy` does.
    """

    def __init__(self, config: CacheConfig, next_use) -> None:
        super().__init__(config)
        num_sets, assoc = config.num_sets, config.associativity
        self.next_use = next_use.tolist()
        self.nu_t = [[INF] * assoc for _ in range(num_sets)]
        self.access_index = 0

    def _loop(self):
        return _belady_loop(self)


def _belady_loop(kernel):
    config = kernel.config
    assoc = config.associativity
    tag_t = kernel.tag_t
    nu_t = kernel.nu_t
    dirty_t = kernel.dirty_t
    fill_count = kernel.fill_count
    next_use = kernel.next_use
    dh, dm, wh, wm, ev, dev, byp, n = (
        kernel.dh, kernel.dm, kernel.wh, kernel.wm,
        kernel.ev, kernel.dev, kernel.byp, kernel.access_index,
    )
    pch = kernel.pch
    pcm = kernel.pcm
    hit = None
    try:
        while True:
            (sets, tags, kinds, cores), start, stop, record = yield hit
            for i in range(start, stop):
                try:
                    nu = next_use[n]
                except IndexError:
                    raise IndexError(
                        "access beyond the pre-recorded stream; MIN must be "
                        "replayed on exactly the stream it was built from"
                    ) from None
                n += 1
                s = sets[i]
                t = tags[i]
                k = kinds[i]
                row = tag_t[s]
                if t in row:
                    w = row.index(t)
                    hit = True
                    nu_t[s][w] = nu
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
                hit = False
                ev_tag, ev_dirty = -1, False
                if nu == INF:
                    w = -1
                elif fill_count[s] < assoc:
                    w = row.index(-1)
                    fill_count[s] += 1
                else:
                    nr = nu_t[s]
                    far = max(nr)
                    # The newcomer reused no sooner than every resident
                    # line is the furthest-reused: bypass it.
                    w = nr.index(far) if far > nu else -1
                    if w >= 0:
                        ev_tag, ev_dirty = row[w], dirty_t[s][w]
                        ev += 1
                        if ev_dirty:
                            dev += 1
                if w < 0:
                    byp += 1
                    if record is not None:
                        record.append((0, 1, -1, -1, 0))
                    continue
                row[w] = t
                nu_t[s][w] = nu
                dirty_t[s][w] = k != _KIND_LOAD
                if record is not None:
                    record.append((0, 0, w, ev_tag, int(ev_dirty)))
    finally:
        kernel.dh, kernel.dm, kernel.wh, kernel.wm = dh, dm, wh, wm
        kernel.ev, kernel.dev, kernel.byp, kernel.access_index = ev, dev, byp, n


# Kernel kind -> chunk-feedable class (params as from fast_path_kernel).
# "drrip" is the whole RRIP family: srrip and brrip take it too, with no
# leader sets.
_STREAM_KERNELS = {
    "lru": lambda cfg, **p: _RecencyKernel(cfg, newest=False, **p),
    "mru": lambda cfg, **p: _RecencyKernel(cfg, newest=True, **p),
    "random": _RandomKernel,
    "drrip": _DRRIPKernel,
    "ship": _ShipKernel,
    "hawkeye": _HawkeyeKernel,
    "glider": _GliderKernel,
    "perceptron": _PerceptronKernel,
    "belady": _BeladyKernel,
}


#: LLCStream kind code -> the reference engine's access type.
_ACCESS_TYPES = (AccessType.LOAD, AccessType.STORE, AccessType.WRITEBACK)


class _ReferenceKernel:
    """Chunk-feedable wrapper around the reference object engine.

    The reference side of every replay: :func:`reference_replay` feeds
    it the whole stream, the streaming path feeds it chunks, and the
    multi-core timing loop steps it (the :class:`_StreamKernel`
    protocol, with plain columns).  A running ``access_index`` carries
    across feeds and steps, so requests are numbered exactly as
    :meth:`LLCStream.requests` would number them in one shot.  The
    wrapped cache and policy are plain attribute state, so the kernel
    pickles for checkpointing whenever the policy itself does.
    """

    def __init__(self, policy, config: CacheConfig) -> None:
        from .cache import SetAssociativeCache

        self.llc = SetAssociativeCache(config, policy)
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
            result = self._access(columns, i)
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

    def step(self, columns: tuple, i: int) -> bool:
        return self._access(columns, i).hit

    def _access(self, columns: tuple, i: int):
        pcs, addresses, kinds, cores = columns
        result = self.llc.access(
            CacheRequest(
                pc=pcs[i],
                address=addresses[i],
                access_type=_ACCESS_TYPES[kinds[i]],
                core=cores[i],
                access_index=self.access_index,
            )
        )
        self.access_index += 1
        return result

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
    access at a time (``decode(stream)`` once, then ``step(columns, i)
    -> hit`` per access).  ``engine`` follows
    :func:`replay`: ``"auto"`` picks the fast kernel when one exists,
    ``"reference"`` forces the object engine, ``"fast"`` raises for
    unsupported policies.  A fast kernel built from an instance writes
    trained state back into it at ``finish()`` (see
    :func:`fast_path_kernel`); one built from a name has no instance to
    write to.
    """
    if engine not in ("auto", "fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    llc = _llc_config(config)
    instance = make_policy(policy) if isinstance(policy, str) else policy
    resolved = fast_path_kernel(instance) if engine != "reference" else None
    if resolved is None:
        if engine == "fast":
            name = policy if isinstance(policy, str) else type(policy).__name__
            raise ValueError(f"policy {name!r} has no fast-path kernel")
        return _ReferenceKernel(instance, llc)
    kind, params = resolved
    kernel = _STREAM_KERNELS[kind](llc, **params)
    if instance is policy:
        kernel.policy = policy
    return kernel


# -- the engine protocol ------------------------------------------------------


def reference_replay(stream, policy, config=None, record: list | None = None) -> CacheStats:
    """Replay on the reference object-based engine, optionally recording
    the per-access event stream for parity checking."""
    return _run(make_stream_kernel(policy, config, "reference"), stream, record)


def _run(kernel, stream, record) -> CacheStats:
    kernel.feed(stream, record)
    return kernel.finish()


def replay(
    stream,
    policy,
    config=None,
    engine: str = "auto",
    record: list | None = None,
) -> CacheStats:
    """Replay an LLC stream against a policy on the best engine.

    ``policy`` is a registry name or a :class:`ReplacementPolicy`
    instance; ``config`` a :class:`HierarchyConfig`, a single
    :class:`CacheConfig` (the LLC geometry), or None for the default
    scaled hierarchy.  ``engine`` is ``"auto"`` (fast when a kernel
    exists, reference otherwise), ``"fast"`` (error if unsupported), or
    ``"reference"``.  ``record``, when given, collects the per-access
    event tuples.

    When metrics/tracing are off — the default — this is one flag check
    and a tail call; the kernels themselves are never instrumented, so
    the fast path pays nothing per access.  An installed
    :mod:`repro.obs.insight` recorder is fed directly: decision events by
    the kernels and the reference policies alike, model-state signals
    by the fast kernels only (once per feed).  This wrapper only mirrors
    its gauges into the metrics registry after the run.
    """
    if not obs_metrics.ENABLED and obs_trace.get_tracer() is None:
        return _run(make_stream_kernel(policy, config, engine), stream, record)

    pname = policy if isinstance(policy, str) else getattr(
        policy, "name", type(policy).__name__
    )
    kernel = make_stream_kernel(policy, config, engine)
    used = "reference" if isinstance(kernel, _ReferenceKernel) else "fast"
    accesses = len(stream.addresses)
    with obs_trace.span(
        "sim.replay", policy=str(pname), engine=used, accesses=accesses,
        benchmark=stream.name,
    ):
        t0 = time.perf_counter()
        stats = _run(kernel, stream, record)
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
    """Fast rewrite of :func:`repro.cache.hierarchy.filter_to_llc_stream`.

    The L1/L2 filter is policy-independent (both levels are true LRU)
    and the recorded stream does not depend on the LLC's own state, so
    this simulates only L1 and L2 and skips the LLC entirely.  Only the
    set/tag split is vectorized with NumPy; the LRU sets are simulated
    access by access in Python, each set a recency-ordered dict (see
    :class:`StreamingLLCFilter`).  Output is bit-identical to the
    reference filter:
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
    that chunk (possibly empty).  Each L1 and L2 set is a dict whose key
    order is recency order, least recent first: a hit re-inserts its
    tag and the victim is the first key.  An L2 entry's value is the
    line's ``(dirty, pc)``, the PC being the one that filled it, which a
    dirty eviction's writeback carries.  All filter state (the per-set
    dicts and hit counts) is plain attribute state, so the filter
    pickles for checkpointed resume and a single whole-trace feed is
    bit-identical to :func:`_fast_filter` (which is routed through this
    class).
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
        self.l1_sets = [{} for _ in range(l1c.num_sets)]
        self.l2_sets = [{} for _ in range(l2c.num_sets)]
        self.l1_hits = self.l2_hits = 0

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
    l1_sets = filt.l1_sets
    l2_sets = filt.l2_sets

    r_pcs: list[int] = []
    r_addresses: list[int] = []
    r_kinds: list[int] = []
    l1_hits, l2_hits = filt.l1_hits, filt.l2_hits
    # Service level per source access (LLCStream.LEVEL_* codes: 0 L1 hit,
    # 1 L2 hit, 2 reached the LLC); L1 hits keep the zero fill.
    levels = bytearray(len(lines))

    for i in range(len(lines)):
        t = tag1[i]
        ways = l1_sets[set1[i]]
        if t in ways:
            del ways[t]
            ways[t] = None
            l1_hits += 1
            continue
        if len(ways) == assoc1:
            del ways[next(iter(ways))]
        ways[t] = None

        is_write = writes[i]
        s = set2[i]
        t = tag2[i]
        ways = l2_sets[s]
        line = ways.pop(t, None)
        if line is not None:
            ways[t] = (True, line[1]) if is_write else line
            l2_hits += 1
            levels[i] = 1
            continue
        levels[i] = 2
        pc = pcs[i]
        r_pcs.append(pc)
        r_addresses.append(addresses[i])
        r_kinds.append(_KIND_STORE if is_write else _KIND_LOAD)
        if len(ways) == assoc2:
            victim = next(iter(ways))
            dirty, victim_pc = ways.pop(victim)
            if dirty:
                r_pcs.append(victim_pc)
                r_addresses.append(((victim << tag_shift2) | s) << shift)
                r_kinds.append(_KIND_WRITEBACK)
        ways[t] = (is_write, pc)

    filt.l1_hits, filt.l2_hits = l1_hits, l2_hits
    return StreamChunk(
        name=filt.name,
        pcs=np.array(r_pcs, dtype=np.uint64),
        addresses=np.array(r_addresses, dtype=np.uint64),
        kinds=np.array(r_kinds, dtype=np.int8),
        # The filter sees one core's accesses; callers that stream a
        # core other than 0 overwrite the column.
        cores=np.zeros(len(r_pcs), dtype=np.int16),
        levels=np.frombuffer(levels, dtype=np.int8),
    )
