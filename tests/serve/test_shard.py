"""ShardEngine responses computed in-process (no worker processes)."""

import pytest

from repro.cache.config import CacheConfig
from repro.serve.shard import ShardEngine

#: Keys of the ``prediction`` field per policy; None means no predictor.
_PREDICTION_KEYS = {
    "lru": None,
    "mpppb": None,
    "hawkeye": {"friendly"},
    "glider": {"friendly", "confidence", "weight_sum"},
    "frd": {"friendly", "bucket", "distance"},
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
