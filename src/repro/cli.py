"""Command-line interface: ``python -m repro <command>``.

Every data-path command is a thin wrapper over the
:class:`~repro.api.service.TopKService` façade: flags are parsed into
the declarative request specs of :mod:`repro.api.specs`, the service
answers with a :class:`~repro.api.results.ServiceResult`, and the
human-readable summary is printed from the result payload.  With
``--json PATH`` the full wire envelope (spec + result + enough context
to chain commands) is written too, so CLI invocations compose:
``repro query --json q.json`` followed by ``repro clean --from q.json``
re-targets the same database, ranking and ``k``.

Commands:

``generate``
    Produce a synthetic or simulated-MOV probabilistic database as a
    JSON file (Section VI workloads).
``quality``
    Compute the PWS-quality of a top-k query over a database file with
    any of the four algorithms.
``query``
    Answer a U-kRanks / PT-k / Global-topk query (plus the quality,
    shared from the same PSR pass).
``clean``
    Plan budgeted cleaning with DP / Greedy / RandP / RandU, report the
    expected improvement, optionally simulate execution and write the
    cleaned database.
``store``
    Inspect and maintain a snapshot store directory.  ``status`` (the
    default action, read-only next to a live writer) reports live
    snapshots, journal backlog and bytes, segment bytes, tombstones,
    the cross-process lock holder, quarantined files and counters;
    ``verify`` rebuilds every snapshot read-only and exits 1 on any
    failure; ``compact`` checkpoints the write-ahead journal; ``gc`` applies a
    ``--keep-last-n`` / ``--pin`` retention policy through the store's
    two-phase delete; ``unlock --force`` clears a stale lock record
    left by a dead writer.

``quality`` / ``query`` / ``clean`` accept ``--store DIR`` to serve
over a crash-safe :class:`~repro.store.SnapshotStore`: snapshots are
persisted durably, cleaning outcomes are journaled before they are
published, and a restart of the CLI over the same directory recovers
them (see the README's "Durability & crash recovery" section).

Costs and sc-probabilities for ``clean`` are either generated from
seeds (matching the paper's experimental setup) or read from a JSON
mapping ``{xtuple_id: value}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.api.results import ServiceResult
from repro.api.service import TopKService
from repro.api.specs import PLANNERS, CleaningSpec, QualitySpec, QuerySpec
from repro.core.quality import METHODS
from repro.exceptions import ReproError
from repro.datasets.mov import generate_mov
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.ranking import RankingFunction, by_sum_of_keys, by_value


def _non_negative_int(text: str) -> int:
    """argparse type: a non-negative integer (a usage error otherwise)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return int(text)


def _ranking_for(name: str) -> RankingFunction:
    if name == "value":
        return by_value()
    if name == "mov":
        return by_sum_of_keys("date", "rating")
    raise SystemExit(f"unknown ranking {name!r}; pick 'value' or 'mov'")


def _load_mapping(path: Optional[str]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _service_for(
    db_path: str, ranking_name: str, store_dir: Optional[str] = None
) -> Tuple[TopKService, str]:
    """A one-shot service with the database file registered.

    With ``store_dir`` the service opens a durable
    :class:`~repro.store.SnapshotStore` there first -- recovering any
    previously persisted snapshots and replaying the cleaning journal
    -- and registration persists the database before publishing it.
    """
    service = TopKService(
        ranking=_ranking_for(ranking_name), store_dir=store_dir
    )
    snapshot_id = service.register(io.load_json(db_path)).snapshot_id
    return service, snapshot_id


def _write_envelope(
    path: Optional[str],
    command: str,
    result: ServiceResult,
    db_path: str,
    ranking: str,
) -> None:
    """Write the JSON-out envelope chaining commands together."""
    if path is None:
        return
    envelope = {
        "command": command,
        "db": str(db_path),
        "ranking": ranking,
        "result": result.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(envelope, f, indent=2)
        f.write("\n")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a workload database to JSON."""
    if args.kind == "synthetic":
        db = generate_synthetic(
            num_xtuples=args.xtuples,
            sigma=args.sigma,
            uncertainty=args.uncertainty,
            seed=args.seed,
        )
        ranking_name = "value"
    else:
        db = generate_mov(num_xtuples=args.xtuples, seed=args.seed)
        ranking_name = "mov"
    io.save_json(db, args.output)
    print(
        f"wrote {db.num_xtuples} x-tuples / {db.num_tuples} tuples "
        f"({db.name}) to {args.output}"
    )
    if args.json is not None:
        # Register under the ranking matching the workload (mov values
        # are mappings; by-value would not even rank them) and record
        # it in the envelope so chained commands inherit it.
        service = TopKService(ranking=_ranking_for(ranking_name))
        result = service.register(db)
        _write_envelope(
            args.json, "generate", result, args.output, ranking_name
        )
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    """``repro quality``: score a top-k query's ambiguity."""
    service, snapshot_id = _service_for(args.db, args.ranking, args.store)
    spec = QualitySpec(
        k=args.k,
        method=args.method,
        samples=args.samples,
        deadline_ms=args.deadline_ms,
    )
    result = service.quality(snapshot_id, spec)
    payload = result.payload
    print(f"PWS-quality (k={args.k}, {args.method}): {payload['quality']:.6f}")
    if "num_results" in payload:
        print(f"distinct pw-results: {payload['num_results']}")
    _write_envelope(args.json, "quality", result, args.db, args.ranking)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: answer the probabilistic top-k semantics."""
    service, snapshot_id = _service_for(args.db, args.ranking, args.store)
    spec = QuerySpec(
        k=args.k,
        semantics=args.semantics,
        threshold=args.threshold,
        deadline_ms=args.deadline_ms,
    )
    result = service.query(snapshot_id, spec)
    payload = result.payload
    if args.semantics in ("ptk", "all"):
        tids = [tid for tid, _ in payload["ptk"]["members"]]
        print(f"PT-{args.k} (T={args.threshold}): {tids}")
    if args.semantics in ("ukranks", "all"):
        winners = [
            (w["rank"], w["tid"], round(w["probability"], 4))
            for w in payload["ukranks"]["winners"]
        ]
        print(f"U-kRanks: {winners}")
    if args.semantics in ("global-topk", "all"):
        tids = [tid for tid, _ in payload["global_topk"]["members"]]
        print(f"Global-top{args.k}: {tids}")
    quality = payload.get("quality")
    if quality is None:
        # Costs nothing extra: the semantics above warmed the session's
        # PSR cache at this k.
        quality = service.quality(snapshot_id, QualitySpec(k=args.k)).payload[
            "quality"
        ]
    print(f"PWS-quality: {quality:.6f}")
    _write_envelope(args.json, "query", result, args.db, args.ranking)
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    """``repro clean``: plan (and optionally simulate) cleaning."""
    db_path, ranking_name, k = args.db, args.ranking, args.k
    if args.from_json is not None:
        with open(args.from_json, "r", encoding="utf-8") as f:
            envelope = json.load(f)
        db_path = db_path or envelope.get("db")
        if ranking_name is None:
            ranking_name = envelope.get("ranking")
        upstream_spec = envelope.get("result", {}).get("spec") or {}
        if k is None:
            k = upstream_spec.get("k")
    if db_path is None:
        raise SystemExit("clean needs --db (or --from with a db path)")
    if ranking_name is None:
        ranking_name = "value"
    if k is None:
        k = 15
    service, snapshot_id = _service_for(db_path, ranking_name, args.store)
    execute = bool(args.execute or args.output)
    spec = CleaningSpec(
        k=k,
        budget=args.budget,
        planner=args.planner,
        costs=_load_mapping(args.costs),
        sc_probabilities=_load_mapping(args.sc),
        cost_seed=args.costs_seed,
        sc_seed=args.sc_seed,
        execute=execute,
        seed=args.execute_seed,
        deadline_ms=args.deadline_ms,
    )
    result = service.clean(snapshot_id, spec)
    payload = result.payload
    plan = payload["plan"]
    print(f"quality before cleaning: {payload['quality_before']:.6f}")
    print(
        f"{payload['planner']} plan: {plan['total_operations']} operations on "
        f"{len(plan['operations'])} x-tuples, cost "
        f"{plan['total_cost']}/{args.budget}"
    )
    print(f"expected improvement: {payload['expected_improvement']:.6f}")
    if args.verbose:
        for xid in sorted(plan["operations"]):
            print(f"  pclean({xid}) x{plan['operations'][xid]}")

    if execute:
        print(
            f"simulated execution: {payload['num_succeeded']}/"
            f"{len(payload['probes'])} x-tuples cleaned, spent "
            f"{payload['cost_spent']} of {payload['cost_assigned']} assigned"
        )
        print(f"quality after cleaning: {payload['quality_after']:.6f}")
        if args.output:
            cleaned = service.database(payload["new_snapshot_id"])
            io.save_json(cleaned, args.output)
            print(f"wrote cleaned database to {args.output}")
    _write_envelope(args.json, "clean", result, db_path, ranking_name)
    return 0


def _print_store_status(status: Dict[str, Any]) -> None:
    print(f"store {status['root']}:")
    print(f"  snapshots: {len(status['snapshots'])}")
    for snapshot_id in status["snapshots"]:
        print(f"    {snapshot_id}")
    print(
        f"  journal: {status['journal_records']} records, "
        f"{status['journal_bytes']} bytes"
    )
    print(
        f"  segments: {status['segment_files']} files, "
        f"{status['segment_bytes']} bytes; loaded {status['full_segments']} "
        f"full, {status['delta_segments']} delta"
    )
    if status["tombstones"]:
        print(f"  tombstones awaiting unlink: {status['tombstones']}")
    holder = status.get("lock_holder")
    if holder is not None:
        liveness = {True: "alive", False: "dead", None: "unknown"}[
            holder.get("alive")
        ]
        print(f"  lock holder: pid {holder.get('pid')} ({liveness})")
    if status["pending_cleanings"]:
        print(f"  pending cleanings: {status['pending_cleanings']}")
    if status["quarantined_files"]:
        print(f"  quarantined: {status['quarantined_files']}")
    recovery = status["recovery"]
    if recovery["journal_truncated_bytes"]:
        print(
            f"  journal tail truncated: {recovery['journal_truncated_bytes']} "
            f"bytes ({recovery['journal_truncate_reason']})"
        )
    if recovery["swept_temp_files"]:
        print(f"  swept temp files: {recovery['swept_temp_files']}")


def _write_store_envelope(
    json_path: Optional[str], envelope: Dict[str, Any]
) -> None:
    if json_path is None:
        return
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(envelope, f, indent=2)
        f.write("\n")


def cmd_store(args: argparse.Namespace) -> int:
    """``repro store [status|verify|compact|gc|unlock]``: maintain a store.

    ``status`` (the default) opens the directory *read-only* (shared
    lock, no repairs) and reports its health.  ``verify`` opens it
    read-only too, rebuilds every live snapshot with every check, and
    reports each failure, exiting 1 if there is any; it moves
    nothing.  ``compact`` checkpoints the journal, dropping records
    whose segments are durably committed and unlinking tombstoned
    files.  ``gc`` applies a retention policy
    (``--keep-last-n`` / ``--pin``) through the store's two-phase
    delete, then checkpoints so the reclaim actually happens.
    ``unlock`` reports the recorded cross-process lock holder and,
    with ``--force``, clears a stale record (a verifiably live holder
    is never broken).  Every action writes a JSON envelope with
    ``--json``; lock contention surfaces as the typed
    ``StoreLockedError`` error envelope, exit 1, and ``status``,
    ``compact`` or ``gc`` of a directory that holds no store as
    ``StoreError``, creating nothing.
    """
    from repro.store import (
        RetentionPolicy,
        SnapshotStore,
        StoreLock,
        require_store,
    )

    action = args.action
    if action == "unlock":
        lock = StoreLock(args.dir)
        holder = lock.holder()
        if args.force:
            report = lock.force_break()
            broken = report["broken"]
            holder = report["holder"]
            print(
                "lock record cleared"
                if broken
                else "lock record NOT cleared (holder is alive)"
            )
        else:
            broken = False
            print(
                "no lock record"
                if holder is None
                else f"lock record: pid {holder.get('pid')} "
                f"(alive={holder.get('alive')}); re-run with --force "
                f"to clear a stale record"
            )
        _write_store_envelope(
            args.json,
            {
                "command": "store",
                "action": "unlock",
                "broken": broken,
                "holder": holder,
            },
        )
        return 0

    if action == "verify":
        store = SnapshotStore(args.dir, mode="readonly")
        report = store.verify()
        print(
            f"verify: {len(report['verified'])} snapshots rebuilt, "
            f"{len(report['failed'])} failed"
        )
        for name, reason in report["failed"]:
            print(f"  {name}: {reason}")
        _write_store_envelope(
            args.json,
            {"command": "store", "action": "verify", **report},
        )
        return 1 if report["failed"] else 0

    if action == "status":
        store = SnapshotStore(args.dir, mode="readonly")
        status = store.status()
        _print_store_status(status)
        _write_store_envelope(
            args.json,
            {"command": "store", "action": "status", "status": status},
        )
        return 0

    require_store(args.dir)
    store = SnapshotStore(args.dir)
    if action == "compact":
        report = store.checkpoint()
        print(
            f"checkpoint: {report['records_before']} -> "
            f"{report['records_after']} journal records "
            f"({report['journal_bytes']} bytes), "
            f"{len(report['unlinked'])} segment files unlinked"
        )
    else:  # gc
        policy = RetentionPolicy(
            keep_last_n=args.keep_last_n, pinned=tuple(args.pin)
        )
        report = store.gc(policy)
        checkpoint = store.checkpoint()
        report = {"gc": report, "checkpoint": checkpoint}
        print(
            f"gc: {len(report['gc']['tombstoned'])} segments tombstoned, "
            f"{len(checkpoint['unlinked'])} files unlinked, "
            f"{len(report['gc']['live'])} live"
        )
    _write_store_envelope(
        args.json,
        {
            "command": "store",
            "action": action,
            "report": report,
            "status": store.status(),
        },
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic top-k quality and cleaning (ICDE 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a workload database")
    g.add_argument("kind", choices=("synthetic", "mov"))
    g.add_argument("--output", "-o", required=True)
    g.add_argument("--xtuples", type=int, default=1000)
    g.add_argument("--sigma", type=float, default=100.0)
    g.add_argument(
        "--uncertainty", choices=("gaussian", "uniform"), default="gaussian"
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--json", help="write the wire envelope here")
    g.set_defaults(fn=cmd_generate)

    q = sub.add_parser("quality", help="compute the PWS-quality")
    q.add_argument("--db", required=True)
    q.add_argument("-k", type=int, default=15)
    q.add_argument("--method", choices=METHODS, default="tp")
    q.add_argument("--samples", type=int, default=10_000)
    q.add_argument("--ranking", choices=("value", "mov"), default="value")
    q.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="shed the request with a typed error past this budget",
    )
    q.add_argument(
        "--store",
        default=None,
        help="durable snapshot store directory (recovered on open)",
    )
    q.add_argument("--json", help="write the wire envelope here")
    q.set_defaults(fn=cmd_quality)

    r = sub.add_parser("query", help="answer a probabilistic top-k query")
    r.add_argument("--db", required=True)
    r.add_argument("-k", type=int, default=15)
    r.add_argument(
        "--semantics",
        choices=("ptk", "ukranks", "global-topk", "all"),
        default="all",
    )
    r.add_argument("--threshold", type=float, default=0.1)
    r.add_argument("--ranking", choices=("value", "mov"), default="value")
    r.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="shed the request with a typed error past this budget",
    )
    r.add_argument(
        "--store",
        default=None,
        help="durable snapshot store directory (recovered on open)",
    )
    r.add_argument("--json", help="write the wire envelope here")
    r.set_defaults(fn=cmd_query)

    c = sub.add_parser("clean", help="plan (and simulate) budgeted cleaning")
    c.add_argument("--db", help="database file (or supply --from)")
    c.add_argument("-k", type=int, default=None)
    c.add_argument("--budget", type=int, required=True)
    c.add_argument("--planner", choices=sorted(PLANNERS), default="greedy")
    c.add_argument("--costs", help="JSON mapping {xid: cost}")
    c.add_argument("--sc", help="JSON mapping {xid: sc-probability}")
    c.add_argument("--costs-seed", type=int, default=0)
    c.add_argument("--sc-seed", type=int, default=0)
    c.add_argument("--execute", action="store_true", help="simulate the probes")
    c.add_argument("--execute-seed", type=int, default=0)
    c.add_argument("--output", "-o", help="write the cleaned database here")
    c.add_argument(
        "--ranking",
        choices=("value", "mov"),
        default=None,
        help="defaults to the --from envelope's ranking, else 'value'",
    )
    c.add_argument(
        "--from",
        dest="from_json",
        help="JSON envelope from a previous query/quality run; supplies "
        "db, ranking and k unless overridden",
    )
    c.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="shed the request with a typed error past this budget",
    )
    c.add_argument(
        "--store",
        default=None,
        help="durable snapshot store directory; cleaning outcomes are "
        "journaled and persisted before they are published",
    )
    c.add_argument("--json", help="write the wire envelope here")
    c.add_argument("--verbose", "-v", action="store_true")
    c.set_defaults(fn=cmd_clean)

    s = sub.add_parser(
        "store",
        help="inspect / maintain a snapshot store directory",
    )
    s.add_argument(
        "action",
        nargs="?",
        default="status",
        choices=("status", "verify", "compact", "gc", "unlock"),
        help="status (default, read-only), verify every snapshot by "
        "rebuilding it (read-only; exit 1 on a failure), compact the "
        "journal, gc segments by retention policy, or clear a stale "
        "lock record",
    )
    s.add_argument("--dir", required=True, help="store directory")
    s.add_argument("--json", help="write the action's envelope here")
    s.add_argument(
        "--keep-last-n",
        type=_non_negative_int,
        default=None,
        help="gc: keep only the newest N segments (plus pins)",
    )
    s.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="SNAPSHOT_ID",
        help="gc: never collect this snapshot (repeatable)",
    )
    s.add_argument(
        "--force",
        action="store_true",
        help="unlock: clear a stale lock record (live holders refuse)",
    )
    s.set_defaults(fn=cmd_store)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors -- validation failures, shed deadlines, an
    overloaded service -- exit 1 with a one-line message on stderr and
    (with ``--json``) a typed error envelope
    ``{"error": {"type": ..., "message": ...}}`` in place of the
    result, so scripted callers branch on the error type instead of
    parsing a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        json_path = getattr(args, "json", None)
        if json_path is not None:
            envelope = {
                "command": args.command,
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                },
            }
            with open(json_path, "w", encoding="utf-8") as f:
                json.dump(envelope, f, indent=2)
                f.write("\n")
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
