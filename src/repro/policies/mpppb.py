"""MPPPB: Multiperspective Placement, Promotion and Bypass
[Jiménez & Teran, MICRO 2017] — the CRC2 4th-place finisher.

MPPPB generalises the perceptron reuse predictor with a *multiperspective*
feature set chosen offline by a genetic algorithm; each feature has its
own weight table and the summed weights are compared against several
thresholds to choose between bypassing, distant placement, intermediate
placement and MRU placement, as well as promotion on hits.

We implement the published feature families (PC history at several
depths, PC xor address bits, page address, compressed tag bits and an
"offset" feature) with the perceptron update rule and two decision
thresholds (bypass and dead-on-arrival), as one description on
:class:`~repro.policies.perceptron._HashedPerceptronPolicy`.
"""

from __future__ import annotations

from .perceptron import PerceptronReusePredictor, _HashedPerceptronPolicy

#: MPPPB's multiperspective features as ``(source, salt)`` pairs (the
#: sources are :func:`~repro.policies.perceptron.feature_value`'s).
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


class MPPPBPolicy(_HashedPerceptronPolicy):
    """MPPPB LLC policy: multiperspective perceptron + graded insertion.

    Graded promotion: a hit with ``yout <= 0`` promotes fully, one below
    ``dead_threshold`` is held at no worse than ``max_rrpv - 1``, and a
    confident-dead one goes distant.  Graded placement: confident-dead
    fills go distant, uncertain ones to a middle priority (so a
    borderline prediction still gets an ageing window's worth of
    chances), confident-live ones near MRU.
    """

    name = "mpppb"

    def __init__(
        self,
        table_bits: int = 12,
        theta: int = 68,
        rrpv_bits: int = 3,
        num_sampler_sets: int = 64,
        sampler_assoc: int = 16,
        bypass_threshold: int = 50,
        dead_threshold: int = 10,
        history_length: int = 8,
    ) -> None:
        dead = dead_threshold
        super().__init__(
            PerceptronReusePredictor(_MPPPB_FEATURES, table_bits, theta, -128, 127),
            rrpv_bits=rrpv_bits,
            num_sampler_sets=num_sampler_sets,
            sampler_assoc=sampler_assoc,
            history_length=history_length,
            bypass_above=bypass_threshold,
            promote_at_most=0,
            hold_below=dead,
            fill_cuts=(dead, dead // 2, 0),
        )
