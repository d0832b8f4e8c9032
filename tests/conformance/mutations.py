"""Intentional bugs for mutation-testing the conformance suite.

A conformance suite that has never caught a bug is untested itself.
These helpers install a *known-wrong* fast-path kernel so the tests can
assert the fuzzer catches it, the shrinker minimises it, and the parity
error localises it, and corrupt the timing loop's per-access record so
the tests can assert each timing invariant trips.  They are test
fixtures, never shipped behaviour.
"""

from __future__ import annotations

import repro.cache.fastsim as fastsim
import repro.cpu.system as system


class OffByOneRecencyKernel(fastsim._RecencyKernel):
    """The LRU/MRU stream kernel with an off-by-one in the victim choice.

    An LRU/MRU replay written against the same event contract as
    :func:`repro.cache.fastsim._recency_loop`, except the chosen victim
    way is rotated by one — the classic indexing bug a fast-path rewrite
    can introduce.  Diverges from the reference engine on the first
    eviction from any full set.  It keeps its own per-way tag, dirty and
    last-touch tables, so it does not depend on how the real kernel lays
    out its sets; only the event counters that :meth:`finish` reports
    are shared.
    """

    def __init__(self, config, newest: bool) -> None:
        super().__init__(config, newest)
        num_sets, assoc = config.num_sets, config.associativity
        self.ways = [[-1] * assoc for _ in range(num_sets)]
        self.dirty = [[False] * assoc for _ in range(num_sets)]
        self.touch = [[0] * assoc for _ in range(num_sets)]
        self.clock = 0

    def feed(self, stream, record=None) -> None:
        config = self.config
        sets, tags, kinds, cores = fastsim._decode_stream(stream, config)
        assoc = config.associativity
        for i in range(len(sets)):
            s = sets[i]
            t = tags[i]
            k = kinds[i]
            self.clock += 1
            row, dirty, touch = self.ways[s], self.dirty[s], self.touch[s]
            if t in row:
                w = row.index(t)
                touch[w] = self.clock
                if k != fastsim._KIND_LOAD:
                    dirty[w] = True
                if k != fastsim._KIND_WRITEBACK:
                    self.dh += 1
                    c = cores[i]
                    self.pch[c] = self.pch.get(c, 0) + 1
                else:
                    self.wh += 1
                if record is not None:
                    record.append((1, 0, w, -1, 0))
                continue
            if k != fastsim._KIND_WRITEBACK:
                self.dm += 1
                c = cores[i]
                self.pcm[c] = self.pcm.get(c, 0) + 1
            else:
                self.wm += 1
            ev_tag, ev_dirty = -1, False
            if -1 in row:
                w = row.index(-1)
            else:
                w = touch.index(max(touch) if self.newest else min(touch))
                w = (w + 1) % assoc  # THE INJECTED OFF-BY-ONE
                ev_tag, ev_dirty = row[w], dirty[w]
                self.ev += 1
                if ev_dirty:
                    self.dev += 1
            row[w] = t
            touch[w] = self.clock
            dirty[w] = k != fastsim._KIND_LOAD
            if record is not None:
                record.append((0, 0, w, ev_tag, int(ev_dirty)))


def install_lru_off_by_one(monkeypatch) -> None:
    """Monkeypatch the LRU fast kernel with the off-by-one variant."""
    monkeypatch.setitem(
        fastsim._STREAM_KERNELS,
        "lru",
        lambda cfg, **params: OffByOneRecencyKernel(cfg, newest=False, **params),
    )


class StaleNextUseBeladyKernel(fastsim._BeladyKernel):
    """MIN's kernel reading each access's next use one access late.

    The slip a kernel makes when the index it reads the next-use column
    by drifts from its running access count; stores and compares stale
    reuse times, so it diverges from the reference engine within a few
    misses.
    """

    def __init__(self, config, next_use) -> None:
        super().__init__(config, next_use)
        self.next_use = self.next_use[1:] + [fastsim.INF]  # THE INJECTED SLIP


def install_belady_stale_next_use(monkeypatch) -> None:
    """Monkeypatch MIN's fast kernel with the stale-next-use variant."""
    monkeypatch.setitem(fastsim._STREAM_KERNELS, "belady", StaleNextUseBeladyKernel)


def corrupt_timing_record(monkeypatch, corrupt) -> None:
    """Have every timing run hand its record to ``corrupt`` afterwards.

    ``corrupt(record)`` edits the list of ``(core_id, cycle, dram)``
    entries in place, before the invariant checkers read it.
    """
    time_cores = system._time_cores

    def corrupted(cores, dram, config, record=None):
        time_cores(cores, dram, config, record)
        corrupt(record)

    monkeypatch.setattr(system, "_time_cores", corrupted)
