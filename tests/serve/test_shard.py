"""ShardEngine responses computed in-process (no worker processes)."""

import queue

import pytest

from repro.cache.config import CacheConfig
from repro.serve.shard import ShardEngine, ShardHandle

#: Keys of the ``prediction`` field per policy; None means no predictor.
_PREDICTION_KEYS = {
    "lru": None,
    "mpppb": None,
    "hawkeye": {"friendly"},
    "glider": {"friendly", "confidence", "weight_sum"},
}


@pytest.mark.parametrize("policy", sorted(_PREDICTION_KEYS))
def test_prediction_field_shape(policy):
    engine = ShardEngine(
        0, policy, {}, CacheConfig("LLC", 16 * 2 * 64, 2, latency=26)
    )
    expected = _PREDICTION_KEYS[policy]
    for i in range(40):
        msg = {"id": f"a{i}", "pc": i % 5, "address": (i * 7 % 23) * 64}
        for kind in ("access", "predict"):
            prediction = engine.handle(dict(msg, kind=kind))["prediction"]
            if expected is None:
                assert prediction is None
            else:
                assert set(prediction) == expected
                assert isinstance(prediction["friendly"], bool)


class _RecordingContext:
    """A multiprocessing-context stand-in: queues are in-process and
    ``Process.start`` records what a poller would read off the handle
    at that moment (restart count, ready event, process object)."""

    def __init__(self):
        self.handle = None
        self.seen = []

    def Queue(self, maxsize=0):
        return queue.Queue(maxsize)

    def Process(self, **kwargs):
        context = self

        class _Process:
            pid = None

            def start(self):
                handle = context.handle
                context.seen.append((handle.restarts, handle.ready, handle.process))

        return _Process()


def test_restart_count_moves_only_after_the_new_generation_is_published():
    context = _RecordingContext()
    handle = ShardHandle(
        0, context, policy="lru", policy_kwargs={}, cache_params={},
        run_dir=".", snapshot_path=None, queue_depth=4,
        heartbeat_interval=1.0, snapshot_every=0, batch_max=1,
        batch_budget_s=None,
    )
    context.handle = handle
    handle.start()
    handle.ready.set()  # the first generation reported ready
    dead_ready, dead_process = handle.ready, handle.process
    handle.start()
    restarts, ready, process = context.seen[-1]
    # The new generation's objects are in place while the count still
    # reads the old generation's value.
    assert restarts == 0
    assert ready is handle.ready and ready is not dead_ready
    assert not ready.is_set()
    assert process is handle.process and process is not dead_process
    assert handle.restarts == 1
