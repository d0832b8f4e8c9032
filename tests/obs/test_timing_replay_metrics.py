"""Figure 12's replay metrics.

Every one-core timing run replays its LLC stream through
:func:`repro.cache.fastsim.replay`, so a metrics-enabled Figure 12 run
(``fig12 --metrics-out``) carries a ``sim.replay`` and a ``sim.llc``
series for every (benchmark, policy) it timed, with the values of that
run.  A one-core system that fed an LLC kernel directly would time the
same IPCs and record none of them.
"""

from __future__ import annotations

from repro.cpu.system import SingleCoreSystem
from repro.eval.missrate import CONTENDERS
from repro.eval.runner import ArtifactCache, ExperimentConfig
from repro.eval.speedup import single_core_speedup
from repro.obs import metrics

CONFIG = ExperimentConfig(trace_length=3000)
BENCHMARKS = ("mcf", "lbm")


def test_fig12_records_every_replay():
    cache = ArtifactCache(CONFIG)
    with metrics.collecting() as registry:
        single_core_speedup(CONFIG, BENCHMARKS, cache=cache)
        snapshot = registry.snapshot()["metrics"]
    for policy in ("lru", *CONTENDERS):
        calls = snapshot[f"sim.replay.calls{{engine=fast,policy={policy}}}"]
        assert calls["value"] == len(BENCHMARKS)
        for benchmark in BENCHMARKS:
            system = SingleCoreSystem(
                CONFIG.hierarchy(), policy, stream=cache.llc_stream(benchmark)
            )
            result = system.run(cache.trace(benchmark))
            misses = snapshot[
                f"sim.llc.demand_misses{{benchmark={benchmark},policy={policy}}}"
            ]
            assert misses["value"] == result.llc_demand_misses > 0
