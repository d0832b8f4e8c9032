"""Run-to-run spread of the end-to-end metrics across seeds.

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, and reports for each metric the distance between the first and
third quartile of its values as a share of their median — the spread
that must stay within the metric's bound in ``BENCHMARK.json``.  With
``--trace 1`` it records the traced runs' per-layer metrics instead::

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --trace 1 --seeds 1 --out perfbench/STEADINESS.json
    python3 perfbench/steadiness.py --workloads offline_train --seeds 1-5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def _run(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"steadiness: {name} seed {seed} failed its output checks")
    record = HERE / "out" / f"{name}-seed{seed}-trace{trace}.result.json"
    return result, json.loads(record.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,2,5'")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: record the traced runs' per-layer metrics instead of spreads",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out" / "steadiness.json"),
        help="JSON report; the section for the other --trace value is kept",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.is_file() else {}
    report["seconds"] = spec["run_seconds"]
    section: dict = {"seeds": seeds, "workloads": {}}
    worst = 0.0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, record = _run(name, seed, spec["run_seconds"], args.trace)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            report["host"] = record["host"]
        if args.trace:
            section["workloads"][name] = {
                metric: {"median": statistics.median(v), "values": v}
                for metric, v in values.items()
            }
            coverage = min(values["eval.coverage"])
            overhead = statistics.median(values["trace_overhead_pct"])
            print(f"{name:<14} eval.coverage min {coverage:.4f}  "
                  f"trace_overhead_pct median {overhead:+.2f}", flush=True)
            continue
        rows = {metric: spread(v) for metric, v in values.items()}
        section["workloads"][name] = rows
        for metric, row in rows.items():
            ratio = row["spread"] / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, ratio)
            print(
                f"{name:<14} {metric:<16} median {row['median']:<12.6g} "
                f"spread {row['spread']:.4f}  bound {bounds[metric]}  "
                f"({ratio:.2f} of bound)",
                flush=True,
            )
    if not args.trace:
        section["worst_spread_over_bound_excluding_setup_s"] = worst
        print(f"steadiness: worst spread {worst:.2f} of its bound (setup_s excluded)")
    report["per_layer" if args.trace else "end_to_end"] = section
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"steadiness: wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
