"""repro — a full reproduction of *Applying Deep Learning to the Cache
Replacement Problem* (Glider), MICRO 2019.

Subpackages:

* :mod:`repro.traces`  — workload models and access-trace substrate.
* :mod:`repro.cache`   — set-associative caches and the 3-level hierarchy.
* :mod:`repro.optgen`  — Belady's MIN and the OPTgen streaming oracle.
* :mod:`repro.policies`— baseline replacement policies (LRU … Hawkeye).
* :mod:`repro.core`    — **Glider**, the paper's contribution.
* :mod:`repro.ml`      — NumPy LSTM+attention and the offline linear models.
* :mod:`repro.cpu`     — core/DRAM timing, IPC and weighted speedup.
* :mod:`repro.eval`    — one experiment per paper table/figure.
* :mod:`repro.conformance` — differential fuzzing, invariant checking,
  and the minimized regression corpus keeping engines and oracle honest.
* :mod:`repro.obs`, :mod:`repro.perf`, :mod:`repro.robust`,
  :mod:`repro.serve` — observability, the parallel grid runner, fault
  tolerance and the prediction server.

``import repro`` loads no subpackage: each one loads on first use,
either by an explicit import or by attribute access (``repro.cache``
imports :mod:`repro.cache`).  A figure run therefore loads only the
modules it executes (see DESIGN.md, "Import layering").

Quick start::

    from repro.traces import get_trace
    from repro.cache import filter_to_llc_stream, simulate_llc
    from repro.core import GliderPolicy

    trace = get_trace("omnetpp", length=100_000)
    stream = filter_to_llc_stream(trace)
    stats = simulate_llc(stream, GliderPolicy())
    print(stats.summary())
"""

__version__ = "1.0.0"

from importlib import import_module

_SUBPACKAGES = frozenset({
    "cache", "conformance", "core", "cpu", "eval", "ml", "obs", "optgen",
    "perf", "policies", "robust", "serve", "traces",
})

__all__ = [
    "cache",
    "core",
    "cpu",
    "eval",
    "ml",
    "optgen",
    "policies",
    "traces",
    "__version__",
]


def __getattr__(name: str):
    """Load a subpackage on first attribute access (PEP 562)."""
    if name in _SUBPACKAGES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
