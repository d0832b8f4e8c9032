"""Command-line experiment runner.

Run any paper experiment directly::

    python -m repro.eval fig11 --length 60000
    python -m repro.eval fig10 --benchmarks mcf,omnetpp
    python -m repro.eval table3
    python -m repro.eval fig14 --no-lstm

Each subcommand prints the same table its benchmark counterpart prints.

Robustness (fig9/fig10/fig11/fig12): ``--store DIR`` persists streams
and labels to a crash-safe artifact store so reruns resume instead of
recomputing; ``--robust`` retries failing benchmarks and degrades to
partial aggregates (with a resume manifest under the store); ``--fail
"mcf,lbm:2"`` injects benchmark failures to drill the machinery.

Performance: ``--jobs N`` fans the per-benchmark work of
fig9/fig10/fig11/fig12/fig13 across N supervised worker processes
(bit-identical results; pair with ``--store`` so streams are filtered
once).  ``--task-timeout`` puts a wall-clock deadline on each task,
``--max-pool-restarts`` bounds pool recycling after worker crashes, and
``--no-degrade`` turns the sequential fallback into a hard error; a
crash journal (JSONL) lands next to the resume manifest.  The
``bench`` subcommand times the filter/replay/insight stages on the
simulation engines and writes ``BENCH_sim.json`` (``--quick`` for the
CI smoke variant, ``--out`` to choose the path).

Observability: ``--metrics-out PATH`` writes a schema-tagged metrics
snapshot after the run (``-`` prints JSON on stdout, with all human
output moved to stderr; a ``.prom`` suffix selects the Prometheus
textfile format); ``--trace-out PATH`` appends Chrome-compatible span
events to a JSONL trace log; ``--insight-out PATH`` installs a sampled
decision recorder (online accuracy vs a rolling OPTgen, model drift,
worst decisions) and writes its ``repro.obs.insight/v1`` artifact — the
input of ``obs report``.  All carry the run's correlation id
(``--run-id`` to pin it), which is also stamped into the resume
manifest and crash journal.  ``--jobs N`` sweeps report live per-task
progress + ETA on stderr (``--quiet`` silences it).  The ``obs``
subcommand (``obs summarize|diff|chrome|report``) renders and compares
snapshot/trace/insight files — see ``python -m repro.eval obs --help``.

Conformance: the ``conformance`` subcommand (``conformance
fuzz|shrink|corpus``) runs the differential fuzzer that proves the two
simulation engines and the OPTgen oracle agree, minimizes any failing
trace with delta debugging, and replays the checked-in regression
corpus under ``tests/corpus/`` — see ``python -m repro.eval
conformance --help`` and the "Conformance & fuzzing" section of
EXPERIMENTS.md.

Serving: the ``serve`` subcommand (``serve run|load|bench``) runs the
fault-tolerant replacement-policy-as-a-service daemon — sharded policy
workers behind an NDJSON/TCP front end with backpressure, circuit
breakers, crash recovery, and graceful drain — plus its load generator
and chaos benchmark (``BENCH_serve.json``).  See ``python -m repro.eval
serve --help`` and the "Serving & load testing" section of
EXPERIMENTS.md.

Ingestion: the ``ingest`` subcommand (``ingest replay|scan``) streams
external trace files (ChampSim/CRC2 binary, DynamoRIO memtrace text,
request-log CSV; gzip or plain) through the simulator in bounded
memory, with strict/skip/quarantine corrupt-input handling, journaled
quarantine provenance, I/O fault injection, and checkpointed resumable
replay — see ``python -m repro.eval ingest --help`` and the
"Ingestion, quarantine & resumable replay" section of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..obs import insight as obs_insight
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..perf.parallel import RunContext
from .accuracy import offline_accuracy, online_accuracy
from .attention_analysis import attention_cdf, attention_heatmap
from .convergence import convergence_curves
from .cost import model_cost_table
from .missrate import miss_rate_reduction, summarize_by_group
from .multicore import summarize_mixes, weighted_speedup_sweep
from .runner import ArtifactCache, ExperimentConfig
from .semantics import anchor_pc_analysis
from .seqlen import sequence_length_sweep
from .shuffle import shuffle_experiment
from .speedup import single_core_speedup, summarize_speedups
from .tables import format_table


#: The experiments whose grids run under --robust/--fail (fig13's mixes
#: carry no resume manifest; the other experiments have no grid).
_ROBUST_EXPERIMENTS = ("fig9", "fig10", "fig11", "fig12")


def _benchmarks(args) -> tuple[str, ...] | None:
    return tuple(args.benchmarks.split(",")) if args.benchmarks else None


def _fault_plan(spec: str):
    """``--fail``'s argument type; the fault harness loads only when given."""
    from ..robust.faults import BenchmarkFaultPlan

    try:
        return BenchmarkFaultPlan.parse(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs":
        # Snapshot tooling is self-contained: don't drag the ML stack in.
        from ..obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "conformance":
        # Fuzz/shrink/corpus tooling has its own argument surface.
        from ..conformance.cli import main as conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "serve":
        # The prediction daemon / load generator has its own CLI.
        from ..serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "ingest":
        # External-trace ingestion (replay/scan) has its own CLI.
        from ..traces.ingest.cli import main as ingest_main

        return ingest_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m repro.eval", description=__doc__)
    parser.add_argument(
        "experiment",
        choices=[
            "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "table3", "table4", "bench",
        ],
    )
    parser.add_argument("--length", type=int, default=60_000, help="trace length")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for per-benchmark experiment stages",
    )
    parser.add_argument(
        "--quick", action="store_true", help="bench: small trace, one repeat"
    )
    parser.add_argument(
        "--out", default="BENCH_sim.json", metavar="PATH",
        help="bench: where to write the timing report",
    )
    parser.add_argument("--benchmarks", default=None, help="comma-separated subset")
    parser.add_argument(
        "--policies", default=None,
        help="fig11: comma-separated contender policies over the LRU "
        "baseline (default: hawkeye,mpppb,ship++,glider; any registry "
        "name works, e.g. srrip,sdbp,perceptron)",
    )
    parser.add_argument("--epochs", type=int, default=None, help="LSTM epochs")
    parser.add_argument("--mixes", type=int, default=8, help="fig13 mix count")
    parser.add_argument("--no-lstm", action="store_true", help="skip LSTM curves")
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="disk artifact store: reruns reuse cached streams/labels",
    )
    parser.add_argument(
        "--robust", action="store_true",
        help="retry failing benchmarks and finish the suite with partial results",
    )
    parser.add_argument(
        "--fail", default=None, metavar="SPEC", type=_fault_plan,
        help='inject benchmark failures, e.g. "mcf" (always) or "lbm:2" (twice)',
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None,
        help="retries per benchmark (--robust; default 3)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, help="suite deadline budget, seconds"
    )
    parser.add_argument(
        "--task-timeout", type=_positive_float, default=None, metavar="SEC",
        help="per-task wall-clock deadline in worker pools (--jobs > 1)",
    )
    parser.add_argument(
        "--max-pool-restarts", type=_non_negative_int, default=2, metavar="N",
        help="pool recreations after worker crashes before degrading",
    )
    parser.add_argument(
        "--no-degrade", action="store_true",
        help="raise instead of falling back to sequential after repeated pool breakage",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SEC",
        help="worker heartbeat period in supervised pools (--jobs > 1)",
    )
    parser.add_argument(
        "--heartbeat-grace", type=float, default=30.0, metavar="SEC",
        help="unchanged-heartbeat window before a pool worker is declared wedged",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a metrics snapshot after the run"
        " ('-' for JSON on stdout, '.prom' suffix for Prometheus textfile)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append Chrome-compatible span events to this JSONL trace log",
    )
    parser.add_argument(
        "--insight-out", default=None, metavar="PATH",
        help="record sampled decision telemetry during the run and write"
        " the repro.obs.insight/v1 artifact here (render with 'obs report')",
    )
    parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="correlation id stamped into metrics/trace/manifest/journal"
        " (default: freshly minted)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress human-readable tables and progress (machine output only)",
    )
    args = parser.parse_args(argv)
    if args.experiment not in _ROBUST_EXPERIMENTS:
        given = [
            flag
            for flag, value in (
                ("--robust", args.robust),
                ("--fail", args.fail),
                ("--max-attempts", args.max_attempts),
                ("--deadline", args.deadline),
            )
            if value is not None and value is not False
        ]
        if given:
            parser.error(
                f"{', '.join(given)} not supported for {args.experiment}"
                f" (robust runs: {', '.join(_ROBUST_EXPERIMENTS)})"
            )

    # --- observability wiring -------------------------------------------
    # One run_id correlates the metrics snapshot, the trace log, the
    # resume manifest, and the crash journal.
    if args.run_id:
        obs_trace.set_run_id(args.run_id)
    tracer = None
    if args.metrics_out or args.trace_out or args.insight_out:
        obs_trace.current_run_id(create=True)
    if args.metrics_out:
        obs_metrics.enable()
    if args.trace_out:
        tracer = obs_trace.install(obs_trace.TraceLog(args.trace_out))
    recorder = None

    # Human-readable output: stdout normally, stderr when stdout is
    # reserved for the machine-parseable snapshot, nowhere under --quiet.
    human_stream = sys.stderr if args.metrics_out == "-" else sys.stdout

    def emit(text: str = "") -> None:
        if not args.quiet:
            print(text, file=human_stream)

    config = ExperimentConfig(
        trace_length=args.length,
        lstm_embedding=32,
        lstm_hidden=32,
        lstm_history=20,
        lstm_epochs=args.epochs or 6,
    )
    cache = ArtifactCache(config, store=args.store)
    subset = _benchmarks(args)
    if args.insight_out:
        # The recorder must carry THIS run's LLC geometry (the scaled
        # hierarchy follows --length): engines check matches() before
        # reporting, so a default-shaped recorder would record nothing.
        recorder = obs_insight.enable(config.hierarchy())

    # The pool and robust-suite machinery loads only for runs that use it.
    supervise = None
    if args.jobs > 1 or args.robust or args.fail:
        from ..robust.supervise import SuperviseConfig

        supervise = SuperviseConfig(
            task_timeout=args.task_timeout,
            max_pool_restarts=args.max_pool_restarts,
            degrade=not args.no_degrade,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_grace=args.heartbeat_grace,
        )
    journal = None
    if args.store:
        journal = Path(args.store) / f"journal-{args.experiment}.jsonl"
    suite = None
    if args.robust or args.fail:
        from ..robust.retry import DeadlineBudget, RetryPolicy
        from ..robust.suite import RobustSuiteRunner

        manifest = None
        if args.store:
            manifest = Path(args.store) / f"manifest-{args.experiment}.json"
        suite = RobustSuiteRunner(
            retry_policy=RetryPolicy(
                max_attempts=3 if args.max_attempts is None else args.max_attempts
            ),
            manifest_path=manifest,
            budget=DeadlineBudget(args.deadline) if args.deadline else None,
            fault_plan=args.fail,
            supervise=supervise,
            journal_path=journal,
            repro_command=(
                f"PYTHONPATH=src python -m repro.eval {args.experiment}"
                f" --length {args.length} --benchmarks {{task}}"
            ),
        )
    run = RunContext(
        jobs=args.jobs,
        supervise=supervise,
        journal=journal,
        progress=args.jobs > 1 and not args.quiet,
        suite=suite,
    )

    with obs_trace.span(
        "eval.experiment", experiment=args.experiment, jobs=args.jobs,
        length=args.length,
    ):
        exit_code = _dispatch(args, config, cache, subset, run, emit)

    if recorder is not None:
        obs_insight.disable()
        recorder.publish()  # mirror gauges into the snapshot, if enabled
        obs_insight.save_artifact(args.insight_out, recorder.to_artifact())
        emit(f"insight artifact -> {args.insight_out}")
    if args.metrics_out:
        snapshot = obs_metrics.registry().snapshot(
            run_id=obs_trace.current_run_id(),
            meta={
                "experiment": args.experiment,
                "trace_length": args.length,
                "jobs": args.jobs,
            }
        )
        if args.metrics_out == "-":
            import json

            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            obs_metrics.save_snapshot(args.metrics_out, snapshot)
            emit(f"metrics snapshot -> {args.metrics_out}")
    if tracer is not None:
        obs_trace.uninstall()
        tracer.close()
        emit(f"trace log -> {args.trace_out}")
    return exit_code


def _dispatch(args, config, cache, subset, run, emit):
    """Run one experiment subcommand and emit its human-readable tables."""
    if args.experiment == "fig4":
        rows = attention_cdf(config, cache=cache)
        emit(format_table([r.as_row() for r in rows], "Figure 4"))
    elif args.experiment == "fig5":
        heatmap = attention_heatmap(config, cache=cache)
        emit(f"targets={heatmap.matrix.shape[0]} sparsity@0.3={heatmap.sparsity(0.3):.2f}")
    elif args.experiment == "fig6":
        rows = shuffle_experiment(config, benchmarks=subset, cache=cache)
        emit(format_table([r.as_row() for r in rows], "Figure 6"))
    elif args.experiment == "fig9":
        rows = offline_accuracy(config, benchmarks=subset, cache=cache, run=run)
        emit(format_table([r.as_row() for r in rows], "Figure 9"))
    elif args.experiment == "fig10":
        rows = online_accuracy(config, benchmarks=subset, cache=cache, run=run)
        emit(format_table([r.as_row() for r in rows], "Figure 10"))
    elif args.experiment == "fig11":
        contender_kwargs = (
            {"policies": tuple(args.policies.split(","))} if args.policies else {}
        )
        results = miss_rate_reduction(
            config, benchmarks=subset, include_belady=True, cache=cache, run=run,
            **contender_kwargs,
        )
        emit(format_table([r.as_row() for r in results], "Figure 11"))
        emit(format_table(summarize_by_group(results)))
    elif args.experiment == "fig12":
        results = single_core_speedup(config, benchmarks=subset, cache=cache, run=run)
        emit(format_table([r.as_row() for r in results], "Figure 12"))
        emit(format_table(summarize_speedups(results)))
    elif args.experiment == "fig13":
        results = weighted_speedup_sweep(
            config, num_mixes=args.mixes, cache=cache, run=run
        )
        emit(format_table([r.as_row() for r in results], "Figure 13"))
        emit(str(summarize_mixes(results)))
    elif args.experiment == "fig14":
        curves = sequence_length_sweep(
            config, benchmarks=subset, cache=cache, include_lstm=not args.no_lstm
        )
        emit(format_table(curves.rows(), "Figure 14"))
    elif args.experiment == "fig15":
        curves = convergence_curves(
            config, benchmarks=subset, cache=cache, include_lstm=not args.no_lstm
        )
        emit(format_table(curves.rows(), "Figure 15"))
    elif args.experiment == "table3":
        rows = model_cost_table()
        emit(format_table([r.as_row() for r in rows], "Table 3"))
    elif args.experiment == "table4":
        rows = anchor_pc_analysis(config, cache=cache)
        emit(format_table([r.as_row() for r in rows], "Table 4"))
    elif args.experiment == "bench":
        from ..perf.bench import run_bench

        report = run_bench(quick=args.quick, out=args.out)
        emit(f"bench report -> {args.out}")
        emit(f"filter speedup: {report['filter']['speedup']:.1f}x")
        for policy, entry in report["replay"].items():
            emit(f"replay {policy}: {entry['speedup']:.1f}x")

    report = run.report
    if report is not None:
        emit(f"suite: {report.summary()}")
        if report.failures:
            emit(format_table([f.as_row() for f in report.failures], "Failures"))
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
