"""Experiment harness: one module per paper table/figure.

See DESIGN.md's per-experiment index for the mapping:

* Figure 4/5 -> `attention_analysis`
* Figure 6 -> `shuffle`
* Figure 9/10 -> `accuracy`
* Figure 11 -> `missrate`
* Figure 12 -> `speedup`
* Figure 13 -> `multicore`
* Figure 14 -> `seqlen`
* Figure 15 -> `convergence`
* Table 2 -> `repro.traces.stats`
* Table 3 -> `cost`
* Table 4 -> `semantics`

The drivers of Figures 9-13 (and the runner and tables they share) load
with the package.  The other drivers and ``plots`` load on first use of
one of their exports, so a Figure 9-13 run never imports them.
"""

from importlib import import_module

from .accuracy import (
    OfflineAccuracyResult,
    OnlineAccuracyResult,
    offline_accuracy,
    online_accuracy,
)
from .missrate import (
    CONTENDERS,
    MissRateResult,
    miss_rate_reduction,
    summarize_by_group,
)
from .multicore import MixResult, summarize_mixes, weighted_speedup_sweep
from .runner import DEFAULT, QUICK, ArtifactCache, ExperimentConfig
from .speedup import SpeedupResult, single_core_speedup, summarize_speedups
from .tables import arithmetic_mean, format_table, geometric_mean

__all__ = [
    "ArtifactCache",
    "AttentionCDFResult",
    "AttentionHeatmap",
    "CONTENDERS",
    "ConvergenceCurves",
    "DEFAULT",
    "ExperimentConfig",
    "MissRateResult",
    "MixResult",
    "ModelCost",
    "OfflineAccuracyResult",
    "OnlineAccuracyResult",
    "QUICK",
    "SequenceLengthCurves",
    "ShuffleResult",
    "SpeedupResult",
    "TargetPCResult",
    "anchor_pc_analysis",
    "arithmetic_mean",
    "ascii_plot",
    "attention_cdf",
    "attention_heatmap",
    "convergence_curves",
    "format_table",
    "geometric_mean",
    "miss_rate_reduction",
    "model_cost_table",
    "offline_accuracy",
    "online_accuracy",
    "s_curve",
    "sequence_length_sweep",
    "shares_anchor",
    "shuffle_experiment",
    "single_core_speedup",
    "summarize_by_group",
    "summarize_mixes",
    "summarize_speedups",
    "weighted_speedup_sweep",
]

_LAZY = {
    "AttentionCDFResult": "attention_analysis",
    "AttentionHeatmap": "attention_analysis",
    "attention_cdf": "attention_analysis",
    "attention_heatmap": "attention_analysis",
    "ConvergenceCurves": "convergence",
    "convergence_curves": "convergence",
    "ModelCost": "cost",
    "model_cost_table": "cost",
    "ascii_plot": "plots",
    "s_curve": "plots",
    "TargetPCResult": "semantics",
    "anchor_pc_analysis": "semantics",
    "shares_anchor": "semantics",
    "SequenceLengthCurves": "seqlen",
    "sequence_length_sweep": "seqlen",
    "ShuffleResult": "shuffle",
    "shuffle_experiment": "shuffle",
}


def __getattr__(name: str):
    """Resolve a lazy export on first use and cache it (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
