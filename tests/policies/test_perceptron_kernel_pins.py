"""Literal pins of the hashed-perceptron policies' kernel parameters.

MPPPB and Perceptron each exist as one description (features, clamps,
θ, decision thresholds) that both engines read, so engine parity cannot
see a drift in it — a wrong salt moves the reference and the kernel
alike.  These dicts were recorded from the policies' previous,
separately written implementations; any change to them is a change to
the policies themselves.
"""

import pytest

from repro.cache.fastsim import fast_path_kernel
from repro.policies import MPPPBPolicy, PerceptronPolicy, make_policy

_MPPPB_FEATURES = (
    ("pc", 11),
    (("hist", 0), 13),
    (("hist", 1), 17),
    (("fold", 4), 19),
    (("fold", 8), 23),
    ("pc^page", 29),
    ("page", 31),
    ("tag16", 37),
    ("offset6", 41),
)

MPPPB = {
    "features": _MPPPB_FEATURES,
    "table_bits": 12,
    "theta": 68,
    "weight_min": -128,
    "weight_max": 127,
    "max_rrpv": 7,
    "history_length": 8,
    "num_sampler_sets": 64,
    "sampler_assoc": 16,
    "bypass_above": 50,
    "promote_at_most": 0,
    "hold_below": 10,
    "fill_cuts": (10, 5, 0),
}

PERCEPTRON = {
    "features": (
        ("pc", 101),
        (("hist", 0), 211),
        (("hist", 1), 212),
        (("hist", 2), 213),
        ("page", 307),
    ),
    "table_bits": 12,
    "theta": 32,
    "weight_min": -32,
    "weight_max": 31,
    "max_rrpv": 7,
    "history_length": 3,
    "num_sampler_sets": 64,
    "sampler_assoc": 16,
    "bypass_above": None,
    "promote_at_most": 8,
    "hold_below": 9,
    "fill_cuts": (8, 8, 8),
}


@pytest.mark.parametrize(
    "name, expected", [("mpppb", MPPPB), ("perceptron", PERCEPTRON)]
)
def test_registry_default_kernel_params(name, expected):
    assert fast_path_kernel(make_policy(name)) == ("perceptron", expected)


@pytest.mark.parametrize(
    "make, expected",
    [
        (
            lambda: MPPPBPolicy(
                table_bits=8, history_length=4, num_sampler_sets=4, bypass_threshold=0
            ),
            {**MPPPB, "table_bits": 8, "history_length": 4, "num_sampler_sets": 4,
             "bypass_above": 0},
        ),
        (
            lambda: MPPPBPolicy(dead_threshold=7, rrpv_bits=2, sampler_assoc=3),
            {**MPPPB, "max_rrpv": 3, "sampler_assoc": 3, "hold_below": 7,
             "fill_cuts": (7, 3, 0)},
        ),
        (
            lambda: PerceptronPolicy(allow_bypass=True, history_length=2),
            {**PERCEPTRON, "features": PERCEPTRON["features"][:3] + (("page", 307),),
             "history_length": 2, "bypass_above": 8},
        ),
        (
            lambda: PerceptronPolicy(history_length=0, dead_threshold=-3, theta=5),
            {**PERCEPTRON, "features": (("pc", 101), ("page", 307)), "theta": 5,
             "history_length": 0, "promote_at_most": -3, "hold_below": -2,
             "fill_cuts": (-3, -3, -3)},
        ),
    ],
    ids=["mpppb-small", "mpppb-thresholds", "perceptron-bypass", "perceptron-no-history"],
)
def test_constructor_arguments_reach_the_kernel_params(make, expected):
    assert fast_path_kernel(make()) == ("perceptron", expected)
