"""End-to-end figure benchmark for the ``repro.eval`` drivers.

Run from the repository root::

    python3 perfbench/run.py --workload llc_replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run imports the program from ``src/``, synthesizes the workload's
traces from ``--seed`` (set-up), then repeats whole workload passes for
``--seconds`` and reports medians.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics (see ``perfbench/README.md``).

Every time is reported in reference-host seconds: the host seconds
measured, scaled by how much slower than its reference time a fixed
speed probe ran just before and just after (see :func:`speed_probe`).
The raw host times are printed and kept in the result record.

Every pass's figure rows are checked (oracles on any seed, pinned
digests on the golden seed, and equality with the run's first pass).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (figure rows) and ``metrics``.  Per-run artifacts go to
``perfbench/out/``: a ``repro.obs`` metrics snapshot, a result record,
and for traced runs a JSONL span file for ``obs chrome``.
"""

from __future__ import annotations

import os

# The drivers are single-threaded; pin BLAS to one thread before NumPy
# loads so cpu_s measures the program, not idle BLAS workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("llc_replay", "timing_single", "timing_multi", "offline_train")
#: Fresh processes timed for setup_s (its median is reported).
SETUP_PROCESSES = 5
#: Synthesis repetitions timed in-process for the traced run's traces.synth_s.
SYNTH_REPEATS = 3
CHILD_TIMEOUT_S = 170
#: The speed probe's loop count, and its time on the reference host
#: (the 2-vCPU host the bounds were set on, when uncontended).
PROBE_LOOPS = 1_000_000
PROBE_REF_S = 0.07

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "accesses_per_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "replay.fast_s": "s",
    "replay.reference_s": "s",
    "replay.calls": "count",
    "replay.accesses": "count",
    "replay.fast_share": "ratio",
    "replay.host_us_per_access": "us",
    "cpu.single_s": "s",
    "cpu.single_accesses": "count",
    "cpu.multi_s": "s",
    "cpu.multi_accesses": "count",
    "cpu.host_us_per_access": "us",
    "ml.linear_s": "s",
    "ml.lstm_s": "s",
    "ml.lstm_epochs": "count",
    "optgen.label_s": "s",
    "optgen.belady_s": "s",
    "cache.filter_s": "s",
    "cache.filter_calls": "count",
    "cache.llc_fraction": "ratio",
    "traces.synth_s": "s",
    "traces.accesses": "count",
    "eval.self_s": "s",
    "eval.coverage": "ratio",
    "cache.llc_demand_misses": "count",
    "cpu.cycles": "cycles",
    "trace_overhead_pct": "%",
    "figure_headline": "%",
    "host.wall_s": "s",
    "host.speed": "ratio",
}
#: Per-layer metrics that are times, so they get the speed correction.
_TIMED = {name for name, unit in PER_LAYER.items() if unit in ("s", "us")} - {"host.wall_s"}


def import_program():
    """Put the checkout's ``src/`` first on the path and load the workloads.

    Exits non-zero (printing no result) when the checkout holds no
    program source, or when ``repro`` resolves anywhere else.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {package}")
    import workloads

    return workloads


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    On a shared host this process's speed drifts by up to 2x over
    seconds to minutes (co-tenants on the same physical core; steal time
    reads 0 and process CPU time is charged for it).  Scaling a
    measurement by ``PROBE_REF_S / probe`` taken around it removes most
    of that drift; the program cannot affect the probe.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Host speed relative to the reference host (1.0 = reference)."""
    return PROBE_REF_S / ((before + after) / 2)


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def _load_golden(workload: str, seed: int) -> list[str] | None:
    if not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text())
    if golden.get("seed") != seed:
        return None
    return golden["workloads"].get(workload)


class RowChecker:
    """Counts figure rows as operations and fails the bad ones."""

    def __init__(self, workload, golden: list[str] | None) -> None:
        self.workload = workload
        self.reference = golden
        self.golden = golden is not None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.headline: float | None = None

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def record(self, mode: str, index: int, result, extra_problems: list[str]) -> None:
        from workloads import row_digest

        label = f"{mode} pass {index}"
        if isinstance(result, BaseException):
            count = len(self.reference) if self.reference else 1
            self.attempted += count
            self._fail(count, f"{label}: {type(result).__name__}: {result}")
            return
        digests = [row_digest(row) for row in result.rows]
        self.digests.setdefault(mode, digests)
        self.headline = result.headline
        if self.reference is None:
            self.reference = digests
        expected = len(self.reference)
        self.attempted += max(expected, len(digests))
        if len(digests) != expected:
            self._fail(abs(expected - len(digests)), f"{label}: {len(digests)} rows, expected {expected}")
        if extra_problems:
            self._fail(len(digests), f"{label}: " + "; ".join(extra_problems[:3]))
            return
        for i, (row, digest) in enumerate(zip(result.rows, digests)):
            problems = self.workload.check_row(row)
            if i < expected and digest != self.reference[i]:
                source = "pinned" if self.golden else "first pass"
                problems.append(f"digest {digest} != {source} {self.reference[i]}")
            if problems:
                self._fail(1, f"{label} row {i}: " + "; ".join(problems))


def run_pass(workload, config, tracer=None, index: int = 0):
    """One timed workload pass -> (result or exception, wall_s, cpu_s)."""
    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = workload.run(config)
        else:
            with tracer.span("eval.pass", None, workload=workload.name, index=index):
                result = workload.run(config)
    except Exception as exc:  # a failing pass counts its rows as failed
        traceback.print_exc()
        result = exc
    return result, time.perf_counter() - t0, time.process_time() - c0


def time_setup_in_child(workload_name: str, seed: int) -> tuple[float, float]:
    """Set-up (program imports + trace synthesis) in a fresh process.

    Returns (host seconds, host speed during set-up).
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", workload_name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    seconds, host_speed = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(host_speed)


def layer_metrics(tracer, wall: float, headline: float) -> dict[str, float]:
    """Fold one traced pass's spans and counts into per-layer metrics."""
    s, c = tracer.self_s, tracer.counts
    replay_s = s.get("replay.fast", 0.0) + s.get("replay.reference", 0.0)
    cpu_s = s.get("cpu.single", 0.0) + s.get("cpu.multi", 0.0)
    cpu_accesses = c.get("cpu.single_accesses", 0) + c.get("cpu.multi_accesses", 0)
    covered = c.get("covered_s", 0.0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "replay.fast_s": s.get("replay.fast", 0.0),
        "replay.reference_s": s.get("replay.reference", 0.0),
        "replay.calls": c.get("replay.calls", 0),
        "replay.accesses": c.get("replay.accesses", 0),
        "replay.fast_share": ratio(c.get("replay.fast_accesses", 0), c.get("replay.accesses", 0)),
        "replay.host_us_per_access": ratio(replay_s, c.get("replay.accesses", 0), 1e6),
        "cpu.single_s": s.get("cpu.single", 0.0),
        "cpu.single_accesses": c.get("cpu.single_accesses", 0),
        "cpu.multi_s": s.get("cpu.multi", 0.0),
        "cpu.multi_accesses": c.get("cpu.multi_accesses", 0),
        "cpu.host_us_per_access": ratio(cpu_s, cpu_accesses, 1e6),
        "ml.linear_s": s.get("ml.linear", 0.0),
        "ml.lstm_s": s.get("ml.lstm", 0.0),
        "ml.lstm_epochs": c.get("ml.lstm_epochs", 0),
        "optgen.label_s": s.get("optgen.label", 0.0),
        "optgen.belady_s": s.get("optgen.belady", 0.0),
        "cache.filter_s": s.get("cache.filter", 0.0),
        "cache.filter_calls": c.get("cache.filter_calls", 0),
        "cache.llc_fraction": ratio(c.get("cache.llc_accesses", 0), c.get("cache.trace_accesses", 0)),
        "eval.self_s": wall - covered,
        "eval.coverage": ratio(covered, wall),
        "cache.llc_demand_misses": c.get("cache.llc_demand_misses", 0),
        "cpu.cycles": c.get("cpu.cycles", 0),
        "figure_headline": headline,
    }


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes (a count that repeats keeps its type)."""
    merged = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        merged[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return merged


class Samples:
    """Per-pass host times and host speeds of one mode (traced or not)."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.speed: list[float] = []

    def add(self, wall: float, cpu: float, host_speed: float) -> None:
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.speed.append(host_speed)

    def corrected(self, values: list[float]) -> list[float]:
        return [v * s for v, s in zip(values, self.speed)]


def run_workload(args) -> int:
    wl = import_program()
    workload = wl.WORKLOADS[args.workload]
    config = workload.config(args.seed)
    traced = args.trace == 1
    checker = RowChecker(workload, _load_golden(workload.name, args.seed))
    tracer = None
    if traced:
        from spans import LayerTracer
        from repro.traces.suite import get_trace

        tracer = LayerTracer(wl.MAX_IPC)
        synth = []
        for _ in range(SYNTH_REPEATS):
            get_trace.cache_clear()
            before = speed_probe()
            t0 = time.perf_counter()
            with tracer.span("traces.synth", "traces", workload=workload.name):
                traces = workload.traces(config)
            synth.append((time.perf_counter() - t0) * speed(before, speed_probe()))
        setup = {"traces.synth_s": statistics.median(synth),
                 "traces.accesses": sum(len(t) for t in traces)}
    else:
        workload.traces(config)
        setups = [time_setup_in_child(workload.name, args.seed) for _ in range(SETUP_PROCESSES)]
    accesses = workload.count_accesses(config, workload.benchmarks)

    modes = {False: Samples(), True: Samples()}
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    before = speed_probe()
    index = 0
    while True:
        use_tracer = traced and index % 2 == 1
        if use_tracer:
            tracer.install()
            tracer.reset_pass()
        try:
            result, wall, cpu = run_pass(workload, config, tracer if use_tracer else None, index)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = speed_probe()
        host_speed = speed(before, after)
        before = after
        modes[use_tracer].add(wall, cpu, host_speed)
        mode = "traced" if use_tracer else "untraced"
        checker.record(mode, index, result, tracer.violations if use_tracer else [])
        if use_tracer and not isinstance(result, BaseException):
            layer = layer_metrics(tracer, wall, result.headline)
            layers.append({k: v * host_speed if k in _TIMED else v for k, v in layer.items()})
        index += 1
        enough = index >= (2 if traced else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    untraced = modes[False]
    wall_s = statistics.median(untraced.corrected(untraced.wall))
    samples = {
        "wall_s": untraced.corrected(untraced.wall),
        "host_wall_s": untraced.wall,
        "host_speed": untraced.speed,
    }
    if traced:
        metrics = {**setup, **(median_of(layers) if layers else {})}
        traced_walls = modes[True].corrected(modes[True].wall)
        traced_wall = statistics.median(traced_walls) if traced_walls else wall_s
        metrics["trace_overhead_pct"] = 100.0 * (traced_wall / wall_s - 1.0)
        metrics["host.wall_s"] = statistics.median(untraced.wall)
        metrics["host.speed"] = statistics.median(untraced.speed + modes[True].speed)
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        samples["traced_wall_s"] = traced_walls
    else:
        cpu = untraced.corrected(untraced.cpu)
        setup_s = [seconds * host_speed for seconds, host_speed in setups]
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpu),
            "accesses_per_s": accesses / wall_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        samples.update(
            cpu_s=cpu, host_cpu_s=untraced.cpu, setup_s=setup_s,
            host_setup_s=[seconds for seconds, _ in setups],
        )

    correct = checker.failed == 0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": index,
        "accesses_per_pass": accesses,
        "figure_headline": checker.headline,
        "digests": checker.digests,
        "golden_checked": checker.golden,
        "problems": checker.problems,
        "skipped_entry_points": tracer.skipped if tracer else [],
        "probe": {"loops": PROBE_LOOPS, "reference_s": PROBE_REF_S},
        "samples": samples,
        "tails": {k: tail(v) for k, v in samples.items()},
        "metrics": metrics,
        "host": host_info(),
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.result.json").write_text(json.dumps(record, indent=1))
    _write_snapshot(OUT / f"{stem}.metrics.json", workload.name, metrics, units, record)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}.trace.jsonl")

    _print_report(record, units, checker)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _write_snapshot(path: Path, workload: str, metrics: dict, units: dict, record: dict) -> None:
    """Mirror the run's metrics into a ``repro.obs`` snapshot (``obs diff``-able).

    Built on a private registry: the process-global one, and with it the
    program's own instrumentation, stays disabled.
    """
    from repro.obs.metrics import MetricsRegistry, save_snapshot

    registry = MetricsRegistry()
    for name, value in metrics.items():
        registry.gauge(name, workload=workload).set(value)
    for name, values in record["samples"].items():
        registry.gauge(f"{name}.samples", workload=workload).set(len(values))
    meta = {
        k: record[k]
        for k in ("seed", "trace", "seconds", "passes", "accesses_per_pass", "probe", "host")
    }
    meta["units"] = units
    save_snapshot(path, registry.snapshot(run_id=None, meta=meta))


def _print_report(record: dict, units: dict, checker: RowChecker) -> None:
    print(
        f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['passes']} passes, {checker.attempted} rows, {checker.failed} failed"
        + (" (pinned digests checked)" if checker.golden else "")
    )
    for problem in checker.problems:
        print(f"  FAIL {problem}")
    for name, value in record["metrics"].items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    for name, values in record["samples"].items():
        t = record["tails"][name]
        tail_text = f"p{t[0]:g}={t[1]:.6g}" if t else "none (n < 20)"
        if values:
            print(
                f"  {name}: median {statistics.median(values):.6g}, "
                f"min {min(values):.6g}, max {max(values):.6g} of n={len(values)}, "
                f"tail {tail_text}"
            )


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def setup_only(args) -> int:
    """Child side of :func:`time_setup_in_child`."""
    before = speed_probe()
    t0 = time.perf_counter()
    wl = import_program()
    workload = wl.WORKLOADS[args.workload]
    workload.traces(workload.config(args.seed))
    seconds = time.perf_counter() - t0
    print(repr(seconds), repr(speed(before, speed_probe())))
    return 0


def pin(args) -> int:
    """Record this seed's row digests for every workload as the golden set."""
    wl = import_program()
    digests = {}
    for name in WORKLOAD_NAMES:
        workload = wl.WORKLOADS[name]
        result = workload.run(workload.config(args.seed))
        digests[name] = [wl.row_digest(row) for row in result.rows]
    GOLDEN.write_text(json.dumps({"seed": args.seed, "workloads": digests}, indent=1) + "\n")
    print(f"perfbench: pinned {sum(map(len, digests.values()))} row digests for seed {args.seed}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--pin", action="store_true",
        help="with --workload all: write this seed's row digests to perfbench/golden.json",
    )
    args = parser.parse_args(argv)
    if args.pin:
        return pin(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
