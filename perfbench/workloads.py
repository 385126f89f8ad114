"""The three workloads, driven through the public ``TopKService`` API.

Each workload generates its inputs from the seed (untimed), sets the
service up (timed as ``setup_s``), and yields a deterministic stream of
operations.  The harness in ``run.py`` times each operation's ``run``
alone; everything an operation's ``check`` does -- oracle sessions,
reopening stores, deleting copies -- happens outside the timed region.

Why each workload exists, and what it leaves out, is in README.md.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.api.pool import SessionPool
from repro.api.service import TopKService
from repro.api.specs import BatchSpec, CleaningSpec, QualitySpec, QuerySpec
from repro.core.counters import STORE_COUNTERS
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import CANONICAL_COLUMNS, ProbabilisticDatabase
from repro.queries.engine import QuerySession
from repro.store import RetentionPolicy, SnapshotStore
from repro.store.store import SEGMENT_SUFFIX

#: Absolute tolerance of every float comparison against an oracle.
TOLERANCE = 1e-9

#: Seeds serve-scan's request pattern, which is fixed across run seeds.
REQUEST_PATTERN_SEED = 2013


def _no_check(result: Any) -> List[str]:
    return []


@dataclass
class Op:
    """One request of the stream.

    ``run`` is the timed call; ``check`` runs afterwards, untimed, and
    returns failure messages.  ``independent`` marks checks that compare
    against an oracle computed apart from the service (the corrupted-
    answer self-test perturbs the first such result).  ``timings``
    collects sub-intervals ``run`` measures itself, in milliseconds.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]] = _no_check
    independent: bool = False
    timings: Dict[str, float] = field(default_factory=dict)


def fresh_copy(db: ProbabilisticDatabase) -> ProbabilisticDatabase:
    """Equal content in a new object, so no cached content hash rides
    along from an earlier phase or set-up."""
    return ProbabilisticDatabase(db.xtuples, name=db.name)


def mismatches(got: Any, want: Any, path: str = "") -> List[str]:
    """Differences between two JSON-like payloads; floats within
    :data:`TOLERANCE`, everything else exactly -- except where tied
    probabilities make more than one answer correct (see
    :func:`_member_mismatches` and :func:`_winner_mismatches`)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'payload'}: keys differ"]
        special = {"members": _member_mismatches, "winners": _winner_mismatches}
        return [
            message
            for key in sorted(want)
            for message in special.get(key, mismatches)(
                got[key], want[key], f"{path}.{key}"
            )
        ]
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [
            message
            for index, (g, w) in enumerate(zip(got, want))
            for message in mismatches(g, w, f"{path}[{index}]")
        ]
    if isinstance(want, float) and not isinstance(got, bool):
        if isinstance(got, (int, float)) and abs(got - want) <= TOLERANCE:
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _member_mismatches(got: Any, want: Any, path: str) -> List[str]:
    """Answer sets of ``[tid, probability]`` pairs.

    Members with tied probabilities may be listed in either order, and
    a tie at the cut-off may admit either tuple: every shared tuple must
    carry the same probability, and a tuple on one side only must tie
    with the other side's lowest probability.
    """
    if len(got) != len(want):
        return [f"{path}: {len(got)} members, expected {len(want)}"]
    failures = mismatches(
        sorted(p for _, p in got), sorted(p for _, p in want), f"{path} probabilities"
    )
    got_p, want_p = dict((t, p) for t, p in got), dict((t, p) for t, p in want)
    for tid in sorted(set(got_p) | set(want_p)):
        if tid in got_p and tid in want_p:
            if abs(got_p[tid] - want_p[tid]) > TOLERANCE:
                failures.append(f"{path}[{tid}]: {got_p[tid]!r} != {want_p[tid]!r}")
        else:
            mine, other = (got_p, want_p) if tid in got_p else (want_p, got_p)
            if abs(mine[tid] - min(other.values())) > TOLERANCE:
                failures.append(f"{path}: {tid} is not a tie at the cut-off")
    return failures


def _winner_mismatches(got: Any, want: Any, path: str) -> List[str]:
    """U-kRanks winners: each rank's winning probability must agree; a
    different tuple at equal probability is an equally correct answer."""
    if len(got) != len(want):
        return [f"{path}: {len(got)} ranks, expected {len(want)}"]
    failures = []
    for g, w in zip(got, want):
        failures += mismatches(
            {"rank": g["rank"], "probability": g["probability"]},
            {"rank": w["rank"], "probability": w["probability"]},
            f"{path}[{w['rank']}]",
        )
    return failures


def answer_payload(session: QuerySession, spec: Any) -> Dict[str, Any]:
    """The service's answer payload for ``spec``, rebuilt from a session
    the service never touched."""
    k = spec.k
    if isinstance(spec, QualitySpec):
        return {"k": k, "method": spec.method, "quality": session.quality(k).quality}
    return {
        "k": k,
        "ukranks": {
            "winners": [
                {"rank": w.rank, "tid": w.tid, "probability": w.probability}
                for w in session.ukranks(k).winners
            ]
        },
        "ptk": {
            "threshold": spec.threshold,
            "members": [[t, p] for t, p in session.ptk(k, spec.threshold).members],
        },
        "global_topk": {
            "members": [[t, p] for t, p in session.global_topk(k).members]
        },
        "quality": session.quality(k).quality,
    }


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def canonical_bytes(service: TopKService, snapshot_id: str) -> int:
    ranked = service.pool.ranked(snapshot_id)
    return sum(getattr(ranked, column).nbytes for column in CANONICAL_COLUMNS)


def service_totals(service: TopKService) -> Dict[str, int]:
    """A service's cumulative pool and store counters."""
    out = {
        "pool.session_hits": service.pool.session_hits,
        "pool.session_misses": service.pool.session_misses,
        "pool.evictions": service.pool.evictions,
    }
    store = service.store.counters() if service.store is not None else {}
    for name in STORE_COUNTERS:
        out[name] = store.get(name, 0)
    return out


class Workload:
    """Common shape; subclasses fill in inputs, set-up and the stream."""

    name = ""
    #: Operations per second on the reference machine (2 cores); the
    #: run's operation count is ``--seconds`` times this.
    nominal_rate = 1.0
    #: The operation class ``key_op_ms`` reports.
    key_class = ""
    setup_repeats = 3
    sizes: Dict[str, Dict[str, Any]] = {}

    def __init__(self, size: str, seed: int, workdir: Path) -> None:
        self.params = self.sizes[size]
        self.seed = seed
        self.workdir = workdir
        self.service: Optional[TopKService] = None
        self.setups = 0

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, count: int) -> Iterator[Op]:
        raise NotImplementedError

    def classify(self, op: Op, result: Any) -> str:
        return op.kind

    def totals(self) -> Dict[str, int]:
        """Cumulative pool and store counters of the current set-up."""
        assert self.service is not None
        return service_totals(self.service)

    def finish(self) -> Dict[str, List[str]]:
        """End-of-run checks by name (untimed); empty lists pass."""
        return {}

    def extra_metrics(self) -> Dict[str, float]:
        return {}

    def _new_dir(self, label: str) -> Path:
        """A fresh directory per set-up, so repeated set-ups never meet."""
        self.setups += 1
        path = self.workdir / f"{label}-{self.setups}"
        shutil.rmtree(path, ignore_errors=True)
        return path


# ----------------------------------------------------------------------
# serve-scan
# ----------------------------------------------------------------------
class ServeScan(Workload):
    """Reads over incomplete snapshots: every cold read is a full scan."""

    name = "serve-scan"
    nominal_rate = 5.5
    key_class = "read_cold"
    sizes = {
        "full": {"xtuples": 3000, "snapshots": 12, "ks": (15, 50, 100),
                 "batch_items": 16, "oracle_samples": 2},
        "tiny": {"xtuples": 60, "snapshots": 10, "ks": (3, 5, 8),
                 "batch_items": 4, "oracle_samples": 2},
    }

    def make_inputs(self) -> None:
        p = self.params
        rng = random.Random(self.seed)
        seeds = [rng.randrange(2**31) for _ in range(p["snapshots"])]
        self.bases = [self._generate(s) for s in seeds]
        self._fresh_rng = random.Random(rng.randrange(2**31))
        self._oracle_seed = rng.randrange(2**31)
        self._fresh: List[ProbabilisticDatabase] = []

    def _generate(self, seed: int) -> ProbabilisticDatabase:
        return generate_synthetic(
            num_xtuples=self.params["xtuples"], completion=0.85, seed=seed
        )

    def _fresh_snapshot(self, index: int) -> ProbabilisticDatabase:
        # Generated on first use and kept, so both phases of a traced
        # run register the same content.
        while len(self._fresh) <= index:
            self._fresh.append(self._generate(self._fresh_rng.randrange(2**31)))
        return fresh_copy(self._fresh[index])

    def setup(self) -> None:
        self.service = TopKService()
        self.ids = [
            self.service.register(fresh_copy(db)).snapshot_id for db in self.bases
        ]

    def classify(self, op: Op, result: Any) -> str:
        if op.kind == "read":
            return "read_cold" if result.counters["psr_misses"] > 0 else "read_warm"
        return op.kind

    def ops(self, count: int) -> Iterator[Op]:
        p = self.params
        service = self.service
        assert service is not None
        # The request pattern -- classes, snapshot recency, k, semantics
        # -- is the same for every seed, so cache hits and misses, and
        # with them the cold/warm mix, do not vary with the seed; the
        # seed picks the snapshots' contents and the oracle samples.
        rng = random.Random(REQUEST_PATTERN_SEED)
        # Each block of ten requests holds one batch and one register;
        # the rest are reads.  Recent snapshots are read most: distance
        # from the newest is exponential with mean 4, over more
        # snapshots than the pool's eight sessions.
        plan: List[Dict[str, Any]] = []
        for _ in range(math.ceil(count / 10)):
            block = ["read"] * 10
            batch_at, register_at = rng.sample(range(10), 2)
            block[batch_at], block[register_at] = "batch", "register"
            for kind in block:
                request: Dict[str, Any] = {"kind": kind}
                if kind == "batch":
                    request["items"] = tuple(
                        (QuerySpec if rng.random() < 0.5 else QualitySpec)(
                            k=rng.choice(p["ks"])
                        )
                        for _ in range(p["batch_items"])
                    )
                elif kind == "read":
                    k = rng.choice(p["ks"])
                    request["spec"] = (
                        QuerySpec(k=k) if rng.random() < 0.5 else QualitySpec(k=k)
                    )
                request["distance"] = int(rng.expovariate(0.25))
                plan.append(request)
        plan = plan[:count]
        # Oracle samples come from reads below the largest k, where the
        # scalar kernel's cold pass stays around a second.
        small_reads = [
            index for index, request in enumerate(plan)
            if request["kind"] == "read" and request["spec"].k < max(p["ks"])
        ]
        oracle_at = set(
            random.Random(self._oracle_seed).sample(
                small_reads, min(p["oracle_samples"], len(small_reads))
            )
        )
        ids = list(self.ids)
        seen: Dict[Any, Dict[str, Any]] = {}
        fresh = 0
        for index, request in enumerate(plan):
            if request["kind"] == "register":
                db = self._fresh_snapshot(fresh)
                fresh += 1
                yield self._register_op(service, db, ids)
                continue
            sid = ids[-1 - min(request["distance"], len(ids) - 1)]
            if request["kind"] == "batch":
                yield self._batch_op(service, sid, BatchSpec(items=request["items"]))
            else:
                yield self._read_op(
                    service, sid, request["spec"], index in oracle_at, seen
                )

    def _register_op(
        self, service: TopKService, db: ProbabilisticDatabase, ids: List[str]
    ) -> Op:
        expected_hash = fresh_copy(db).content_hash()

        def run() -> Any:
            result = service.register(db)
            ids.append(result.snapshot_id)
            return result

        def check(result: Any) -> List[str]:
            got = service.database(result.snapshot_id).content_hash()
            return [] if got == expected_hash else ["register: content hash differs"]

        return Op("register", run, check)

    def _batch_op(self, service: TopKService, sid: str, spec: BatchSpec) -> Op:
        def check(result: Any) -> List[str]:
            # Each item against its own query on a session that never
            # saw the batch's shared prefill.
            oracle = QuerySession(service.database(sid))
            failures = []
            for index, (item, envelope) in enumerate(
                zip(spec.items, result.payload["items"])
            ):
                failures += mismatches(
                    envelope["payload"], answer_payload(oracle, item),
                    f"batch item {index}",
                )
            return failures

        return Op("batch", lambda: service.batch(sid, spec), check, independent=True)

    def _read_op(
        self,
        service: TopKService,
        sid: str,
        spec: Any,
        use_oracle: bool,
        seen: Dict[Any, Dict[str, Any]],
    ) -> Op:
        run: Callable[[], Any] = (
            (lambda: service.query(sid, spec))
            if isinstance(spec, QuerySpec)
            else (lambda: service.quality(sid, spec))
        )

        def check(result: Any) -> List[str]:
            # Every read must repeat the first answer given for the same
            # request; sampled reads also match the scalar kernel.
            key = (sid, spec)
            failures = mismatches(result.payload, seen.setdefault(key, result.payload))
            if use_oracle:
                oracle = QuerySession(service.database(sid), backend="python")
                failures += mismatches(
                    result.payload, answer_payload(oracle, spec), "python oracle"
                )
            return failures

        return Op("read", run, check, independent=use_oracle)


# ----------------------------------------------------------------------
# clean-durable
# ----------------------------------------------------------------------
class CleanDurable(Workload):
    """Chains of executed cleanings on complete data, durably journaled."""

    name = "clean-durable"
    nominal_rate = 4.5
    key_class = "clean"
    setup_repeats = 5
    sizes = {
        "full": {"xtuples": 3000, "k": 100, "budget": 20, "bases": 4,
                 "journal_max_records": 4, "keep_last_n": 4},
        "tiny": {"xtuples": 80, "k": 5, "budget": 5, "bases": 3,
                 "journal_max_records": 4, "keep_last_n": 4},
    }

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        self.bases = [
            generate_synthetic(
                num_xtuples=self.params["xtuples"], seed=rng.randrange(2**31)
            )
            for _ in range(self.params["bases"])
        ]
        self.base_hashes = [fresh_copy(db).content_hash() for db in self.bases]
        self._stream_seed = rng.randrange(2**31)

    def setup(self) -> None:
        p = self.params
        self.store_dir = self._new_dir("clean-durable")
        store = SnapshotStore(
            self.store_dir, max_journal_records=p["journal_max_records"]
        )
        pool = SessionPool(
            store=store, retention=RetentionPolicy(keep_last_n=p["keep_last_n"])
        )
        self.service = TopKService(pool=pool)
        self.current = self.service.register(fresh_copy(self.bases[0])).snapshot_id
        #: Acknowledged snapshot ids, in order, with their content hash.
        self.acked: Dict[str, str] = {self.current: self.base_hashes[0]}

    def ops(self, count: int) -> Iterator[Op]:
        p = self.params
        service = self.service
        assert service is not None
        rng = random.Random(self._stream_seed)
        next_base = 1
        for index in range(count):
            if index % 20 == 19:
                # A durable register of a fresh base starts a new chain.
                slot = next_base % len(self.bases)
                next_base += 1
                yield self._register_op(service, slot)
                continue
            seeds = {
                "seed": rng.randrange(2**31),
                "cost_seed": rng.randrange(2**31),
                "sc_seed": rng.randrange(2**31),
            }
            if index % 10 == 4:
                spec = CleaningSpec(
                    k=p["k"], budget=p["budget"], planner="dp", execute=False,
                    **seeds,
                )
                yield self._plan_op(service, spec)
            else:
                spec = CleaningSpec(
                    k=p["k"], budget=p["budget"], adaptive=index % 4 == 3, **seeds
                )
                yield self._clean_op(service, spec)

    def _register_op(self, service: TopKService, slot: int) -> Op:
        db = fresh_copy(self.bases[slot])

        def run() -> Any:
            result = service.register(db)
            self.current = result.snapshot_id
            return result

        def check(result: Any) -> List[str]:
            got = service.database(result.snapshot_id).content_hash()
            self.acked[result.snapshot_id] = got
            if got != self.base_hashes[slot]:
                return ["register: content hash differs"]
            return []

        return Op("register", run, check)

    def _plan_op(self, service: TopKService, spec: CleaningSpec) -> Op:
        sid = self.current

        def check(result: Any) -> List[str]:
            gain = result.payload["expected_improvement"]
            return [] if gain >= -TOLERANCE else [f"plan: negative gain {gain}"]

        return Op("plan", lambda: service.clean(sid, spec), check)

    def _clean_op(self, service: TopKService, spec: CleaningSpec) -> Op:
        sid = self.current

        def run() -> Any:
            result = service.clean(sid, spec)
            self.current = result.payload["new_snapshot_id"]
            return result

        def check(result: Any) -> List[str]:
            outcome = result.payload["new_snapshot_id"]
            db = service.database(outcome)
            self.acked.pop(outcome, None)
            self.acked[outcome] = db.content_hash()
            cold = QuerySession(db).quality(spec.k).quality
            return mismatches(result.payload["quality_after"], cold, "quality_after")

        return Op("clean", run, check, independent=True)

    def finish(self) -> Dict[str, List[str]]:
        service = self.service
        assert service is not None and service.store is not None
        live = set(service.store.snapshots())
        journal = service.store.journal_records()
        failures = [
            f"live segment {sid} was never acknowledged"
            for sid in sorted(live - set(self.acked))
        ]
        reopened = SnapshotStore(self.store_dir, mode="readonly")
        loaded = reopened.snapshots()
        for sid in sorted(live):
            if sid not in loaded:
                failures.append(f"retained snapshot {sid} does not load")
            elif loaded[sid].db.content_hash() != self.acked.get(sid):
                failures.append(f"retained snapshot {sid} has the wrong hash")
        for record in journal:
            outcome = record.get("outcome")
            if outcome in self.acked and record.get("outcome_hash") != self.acked[outcome]:
                failures.append(f"journaled hash of {outcome} differs")
        if reopened.pending_cleanings():
            failures.append("reopened store owes replays")
        return {"reopen": failures}

    def extra_metrics(self) -> Dict[str, float]:
        service = self.service
        assert service is not None
        newest = list(self.acked)[-self.params["keep_last_n"]:]
        user = sum(canonical_bytes(service, sid) for sid in newest)
        return {"space_amp": directory_bytes(self.store_dir) / user}


# ----------------------------------------------------------------------
# store-reopen
# ----------------------------------------------------------------------
class StoreReopen(Workload):
    """Open a crashed store: verify every segment, replay the journal."""

    name = "store-reopen"
    nominal_rate = 1.5
    key_class = "first_answer"
    sizes = {
        "full": {"xtuples": 500, "chain": 16, "crashed": 2, "k": 50,
                 "clean_k": 100, "budget": 10},
        "tiny": {"xtuples": 40, "chain": 6, "crashed": 2, "k": 5,
                 "clean_k": 8, "budget": 3},
    }

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        self.base = generate_synthetic(
            num_xtuples=self.params["xtuples"], seed=rng.randrange(2**31)
        )
        self._chain_seed = rng.randrange(2**31)
        #: Counters summed over every reopened service.
        self._reopen_totals: Dict[str, int] = {}

    def setup(self) -> None:
        """Build the store the way a client did, then crash it between
        journal append and segment commit of the last cleanings."""
        self.pristine = self._new_dir("pristine")
        service = TopKService(store_dir=self.pristine)
        sid = service.register(fresh_copy(self.base)).snapshot_id
        # A cleaning whose probes all fail changes nothing and journals
        # nothing; clean until the chain holds its full length, so every
        # seed's store has the same number of segments.
        rng = random.Random(self._chain_seed)
        p = self.params
        for _ in range(p["chain"]):
            base = sid
            for _ in range(10):
                spec = CleaningSpec(
                    k=p["clean_k"], budget=p["budget"], seed=rng.randrange(2**31),
                    cost_seed=rng.randrange(2**31), sc_seed=rng.randrange(2**31),
                )
                sid = service.clean(base, spec).payload["new_snapshot_id"]
                if sid != base:
                    break
            else:
                raise RuntimeError("store-reopen: the cleaning chain stopped changing")
        self.newest = sid
        self.expected_ids = set(service.store.snapshots())
        self.expected_answer = service.query(sid, QuerySpec(k=self.params["k"])).payload
        for record in service.store.journal_records()[-self.params["crashed"]:]:
            (self.pristine / "segments" / (record["outcome"] + SEGMENT_SUFFIX)).unlink()
        self.service = None

    def totals(self) -> Dict[str, int]:
        return dict(self._reopen_totals)

    def ops(self, count: int) -> Iterator[Op]:
        for index in range(count):
            copy = self.workdir / f"sample-{index}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(self.pristine, copy)
            yield self._reopen_op(copy)

    def _reopen_op(self, copy: Path) -> Op:
        holder: Dict[str, TopKService] = {}
        timings: Dict[str, float] = {}

        def run() -> Any:
            start = time.perf_counter()
            service = TopKService(store_dir=copy)
            timings["open"] = (time.perf_counter() - start) * 1000.0
            holder["service"] = service
            return service.query(self.newest, QuerySpec(k=self.params["k"]))

        def check(result: Any) -> List[str]:
            service = holder.pop("service")
            for name, value in service_totals(service).items():
                self._reopen_totals[name] = self._reopen_totals.get(name, 0) + value
            failures = mismatches(result.payload, self.expected_answer, "first answer")
            if set(service.store.snapshots()) != self.expected_ids:
                failures.append("replayed snapshot set differs")
            shutil.rmtree(copy, ignore_errors=True)
            return failures

        return Op("first_answer", run, check, independent=True, timings=timings)


def warm_up(directory: Path) -> None:
    """Touch every code path once on a tiny store, so lazy imports and
    first-call costs land before any set-up or operation is timed."""
    db = generate_synthetic(num_xtuples=30, seed=0)
    service = TopKService(store_dir=directory)
    sid = service.register(db).snapshot_id
    service.query(sid, QuerySpec(k=5))
    service.batch(sid, BatchSpec(items=(QuerySpec(k=3), QualitySpec(k=5))))
    for spec in (
        CleaningSpec(k=5, budget=5),
        CleaningSpec(k=5, budget=5, adaptive=True),
        CleaningSpec(k=5, budget=5, planner="dp", execute=False),
    ):
        service.clean(sid, spec)
    TopKService(store_dir=directory)
    QuerySession(fresh_copy(db), backend="python").evaluate(5)
    shutil.rmtree(directory, ignore_errors=True)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ServeScan, CleanDurable, StoreReopen)
}
