"""Import hygiene: a figure run imports only what it runs.

Each case runs in a fresh interpreter, since ``sys.modules`` in the test
process already holds whatever earlier tests imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: The drivers the end-to-end figure benchmark calls (Figures 9-13).
FIGURE_DRIVERS = (
    "repro.eval.accuracy",
    "repro.eval.missrate",
    "repro.eval.multicore",
    "repro.eval.runner",
    "repro.eval.speedup",
)

#: Modules a Figure 9-13 run executes none of.
NOT_LOADED_BY_FIGURES = (
    "repro.conformance",
    "repro.robust.suite",
    "repro.robust.supervise",
    "repro.perf.bench",
    "repro.serve",
    "repro.traces.ingest",
    "multiprocessing",
    "concurrent.futures",
    "repro.obs.report",
    "repro.eval.attention_analysis",
    "repro.eval.convergence",
    "repro.eval.cost",
    "repro.eval.plots",
    "repro.eval.semantics",
    "repro.eval.seqlen",
    "repro.eval.shuffle",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src/``; return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", [
    "repro",
    "repro.cache",
    "repro.conformance",
    "repro.core",
    "repro.core.glider",
    "repro.cpu",
    "repro.eval",
    "repro.eval.__main__",
    "repro.ml",
    "repro.obs",
    "repro.optgen",
    "repro.perf",
    "repro.policies",
    "repro.robust",
    "repro.serve",
    "repro.traces",
    "repro.traces.ingest",
])
def test_module_imports_alone(module):
    # Catches an import cycle that another module's import order would
    # hide: core.glider -> cache -> cache.fastsim -> policies.registry
    # -> core.glider once failed only when core.glider loaded first.
    run_fresh(f"import {module}")


def test_figure_drivers_leave_unused_subsystems_unloaded():
    out = run_fresh(f"""
        import sys
        for name in {FIGURE_DRIVERS!r}:
            __import__(name)
        print("\\n".join(m for m in {NOT_LOADED_BY_FIGURES!r} if m in sys.modules))
    """)
    assert out.split() == []


def test_lazy_exports_resolve():
    out = run_fresh("""
        import repro
        import sys

        assert "repro.cache" not in sys.modules
        assert callable(repro.cache.filter_to_llc_stream)
        assert callable(repro.eval.miss_rate_reduction)
        from repro.conformance import run_roundtrip_case
        from repro.cache import LLCStream, verify_parity
        from repro.eval import shuffle_experiment
        assert shuffle_experiment.__module__ == "repro.eval.shuffle"
        assert callable(repro.obs.report.generate_report)
        assert repro.cache.__dict__["verify_parity"] is (
            sys.modules["repro.cache.fastsim"].verify_parity
        )
        print(run_roundtrip_case.__module__, LLCStream.__name__, verify_parity.__name__)
        for package in (repro, repro.cache, repro.eval, repro.obs):
            try:
                package.nonexistent
            except AttributeError:
                print("AttributeError")
    """)
    assert out.split() == [
        "repro.conformance.ingest_roundtrip", "LLCStream", "verify_parity",
    ] + ["AttributeError"] * 4
