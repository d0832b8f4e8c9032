"""CLI for external trace ingestion.

::

    python -m repro.eval ingest replay trace.champsim.gz --policy glider
    python -m repro.eval ingest replay trace.champsim.gz --policy lru \
        --checkpoint-every 50000 --store runs/ --resume
    python -m repro.eval ingest scan bad.memtrace.gz --on-error quarantine \
        --journal quarantine.jsonl

``replay`` streams a trace file through the L1/L2 filter and a
replacement policy (never materializing it) and prints miss-rate and
ingestion stats; with ``--checkpoint-every`` + ``--store`` the engine
state is checkpointed so a killed run continues from the last
checkpoint under ``--resume``, bit-exact.  ``scan`` only parses,
reporting corruption under the chosen ``--on-error`` policy — the CI
quarantine pass is ``scan --on-error quarantine --journal ...``.

``--flip``/``--truncate-at``/``--error-at`` inject I/O faults beneath
any gzip layer (see :class:`repro.robust.faults.IOFaults`) for chaos
drills without preparing corrupted files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .adapters import POLICIES, open_adapter
from .errors import IngestError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="trace file (gzip or plain)")
    parser.add_argument(
        "--format", default="auto", choices=("auto", "champsim", "memtrace", "csv"),
        help="trace format (auto sniffs from the filename)",
    )
    parser.add_argument(
        "--on-error", default="strict", choices=POLICIES,
        help="corrupt-input policy (strict raises typed errors with file:offset)",
    )
    parser.add_argument(
        "--chunk-records", type=int, default=1 << 16, metavar="N",
        help="records per streamed chunk (bounds peak memory)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="JSONL crash journal for quarantined byte ranges",
    )
    parser.add_argument(
        "--max-address-bits", type=int, default=52, metavar="BITS",
        help="addresses/PCs at or above 2^BITS are OutOfRangeAddress",
    )
    parser.add_argument(
        "--flip", default=None, metavar="OFF[,OFF...]",
        help="inject bit flips at these byte offsets (beneath gzip)",
    )
    parser.add_argument(
        "--truncate-at", type=int, default=None, metavar="OFF",
        help="inject clean EOF at this byte offset (beneath gzip)",
    )
    parser.add_argument(
        "--error-at", type=int, default=None, metavar="OFF",
        help="inject an I/O error at this byte offset (beneath gzip)",
    )
    parser.add_argument("--json", action="store_true", help="machine output on stdout")


def _faults(args):
    if args.flip is None and args.truncate_at is None and args.error_at is None:
        return None
    from ...robust.faults import IOFaults

    flips = tuple(int(o, 0) for o in args.flip.split(",")) if args.flip else ()
    return IOFaults(
        bitflip_offsets=flips,
        truncate_at=args.truncate_at,
        error_at=args.error_at,
    )


def _journal(args):
    if args.journal is None:
        return None
    from ...robust.supervise import CrashJournal

    return CrashJournal(args.journal)


def _cmd_replay(args) -> int:
    from .replay import stream_replay

    store = None
    if args.store:
        from ...robust.store import ArtifactStore

        store = ArtifactStore(args.store)
    recorder = None
    if args.insight_out:
        from ...obs import insight as obs_insight

        recorder = obs_insight.enable()
    try:
        result = stream_replay(
            args.path,
            args.policy,
            format=args.format,
            engine=args.engine,
            on_error=args.on_error,
            chunk_records=args.chunk_records,
            checkpoint_every=args.checkpoint_every,
            store=store,
            run_key=args.run_key,
            resume=args.resume,
            journal=_journal(args),
            faults=_faults(args),
            max_address_bits=args.max_address_bits,
        )
    except IngestError as error:
        print(f"ingest error [{type(error).__name__}]: {error}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            from ...obs import insight as obs_insight

            obs_insight.disable()
    if recorder is not None:
        from ...obs import insight as obs_insight

        obs_insight.save_artifact(args.insight_out, recorder.to_artifact())
        print(
            f"  insight: accuracy={recorder.accuracy:.4f}"
            f" scored={recorder.scored} -> {args.insight_out}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        s, g = result.stats, result.ingest
        print(f"{result.path} [{result.format}] policy={result.policy}")
        print(
            f"  records={result.records} llc_accesses={result.llc_accesses}"
            f" l1_hits={result.l1_hits} l2_hits={result.l2_hits}"
        )
        print(
            f"  demand {s.demand_hits}h/{s.demand_misses}m"
            f" miss_rate={s.demand_miss_rate:.4f}"
            f" evictions={s.evictions} ({s.dirty_evictions} dirty)"
        )
        print(
            f"  ingest: skipped={g.records_skipped}"
            f" quarantined={g.records_quarantined}"
            f" ranges={len(g.quarantined_ranges)} truncated={g.truncated}"
        )
        if result.resumed_from is not None:
            print(f"  resumed from record {result.resumed_from}")
        if result.checkpoints_written:
            print(f"  checkpoints written: {result.checkpoints_written}")
        print(f"  state digest: {result.state_digest}")
    return 0


def _cmd_scan(args) -> int:
    adapter = open_adapter(
        args.path,
        format=args.format,
        on_error=args.on_error,
        chunk_records=args.chunk_records,
        journal=_journal(args),
        faults=_faults(args),
        max_address_bits=args.max_address_bits,
    )
    try:
        for _chunk in adapter.chunks():
            pass
    except IngestError as error:
        print(f"ingest error [{type(error).__name__}]: {error}", file=sys.stderr)
        return 2
    g = adapter.stats
    if args.json:
        payload = {"path": str(adapter.path), "format": adapter.format}
        payload.update(g.as_dict())
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{adapter.path} [{adapter.format}]")
        print(
            f"  records={g.records_read} bytes={g.bytes_read} chunks={g.chunks}"
        )
        print(
            f"  skipped={g.records_skipped} quarantined={g.records_quarantined}"
            f" ranges={len(g.quarantined_ranges)} truncated={g.truncated}"
        )
        for start, end in g.quarantined_ranges:
            print(f"    quarantined bytes {start}..{end if end is not None else '?'}")
    # A scan that quarantined or truncated still exits 0: the point of
    # the non-strict policies is to finish and report.
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval ingest", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="stream a trace file through a policy")
    _add_common(replay)
    replay.add_argument(
        "--policy", default="lru",
        help="replacement policy name (e.g. lru, srrip, ship, hawkeye, "
        "glider, mpppb, sdbp)",
    )
    replay.add_argument(
        "--engine", default="auto", choices=("auto", "fast", "reference"),
        help="replay engine selection",
    )
    replay.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint engine state every N records (requires --store)",
    )
    replay.add_argument(
        "--store", default=None, metavar="DIR",
        help="artifact store directory for checkpoints",
    )
    replay.add_argument(
        "--run-key", default=None, metavar="KEY",
        help="checkpoint key (default: derived from file/policy/on-error)",
    )
    replay.add_argument(
        "--resume", action="store_true",
        help="continue from the latest checkpoint under --run-key",
    )
    replay.add_argument(
        "--insight-out", default=None, metavar="PATH",
        help="record sampled decision telemetry (online accuracy vs OPTgen,"
        " drift, worst decisions) and write the insight artifact here",
    )
    replay.set_defaults(func=_cmd_replay)

    scan = sub.add_parser("scan", help="parse and validate a trace file (no replay)")
    _add_common(scan)
    scan.set_defaults(func=_cmd_scan)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
