"""Cost contracts: how a path's work grows with the data it serves.

Each row of :data:`CONTRACTS` names a path, two sizes at least 6x
apart, a bound, and the claim the bound checks.  A row's measure
counts one kind of work at each size: the number of ``call`` and
``c_call`` events :func:`sys.setprofile` sees while the path runs (a
Python function call, or a C function called from Python code, each
count one; C code calling C code counts nothing, so a ``map`` over a C
callable is one event however long its input, while a list
comprehension that calls a C method per item is one event per item),
a store's work per durable clean (journal bytes decoded, exclusive
lock holds, fsyncs, bytes hashed), the rows an open formats into
content-hash records, or the rows a PSR pass reads past its cutoff or
keeps.  The bound is on the ratio of the two counts, so a call
count holds across Python versions whose absolute counts differ; a
row may also cap each count (``most``), where the count itself is the
claim, and a row whose counts are too small for a ratio to mean
anything has no ratio bound.  A measure asserts what its path must
have done besides (a clean that changed the database, a batch that
ran exactly one PSR pass), so a count cannot pass by skipping the
work.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

import repro.db.database as database_module
import repro.store.store as store_module
from conftest import open_service
from repro.api import SessionPool, TopKService
from repro.api.pool import snapshot_id_of
from repro.api.specs import BatchSpec, CleaningSpec, QualitySpec, QuerySpec
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import hash_record, hash_records
from repro.queries import psr_numpy
from repro.queries.psr import TAIL_EPSILON, compute_rank_probabilities, tail_stop
from repro.store import (
    SEGMENT_SUFFIX,
    RetentionPolicy,
    SnapshotStore,
    StoreLock,
    clean_record,
)

#: Cleanings in a reopened store's history, and how many of the last
#: ones crashed between their journal append and their segment commit.
CHAIN = 12
CRASHED = 2


def count_events(run: Callable[[], object]) -> int:
    """``call`` plus ``c_call`` events while ``run()`` runs."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts["call"] + counts["c_call"]


def build_crashed_store(root: Path, num_xtuples: int) -> str:
    """A store shaped like perfbench's store-reopen: a full base, a
    chain of cleanings above it (deltas, with every ninth link full),
    and the last :data:`CRASHED` cleanings journaled but never
    committed, so that an open replays them.  Returns the newest id."""
    store = SnapshotStore(root)
    ranked = generate_synthetic(num_xtuples=num_xtuples, seed=1).ranked()
    sid = snapshot_id_of(ranked.db)
    store.persist(sid, ranked)
    rng = random.Random(2)
    for step in range(CHAIN):
        xids = rng.sample(ranked.xtuple_ids, 3)
        changes: Dict[str, Optional[str]] = {
            xid: rng.choice(ranked.db.tids_of(xid)) for xid in xids[:2]
        }
        changes[xids[2]] = None
        outcome = ranked.with_change_set(changes)
        outcome_id = snapshot_id_of(outcome.db)
        assert store.journal_clean(
            sid, {"step": step}, outcome_id, outcome.db.content_hash(), changes
        )
        store.persist(outcome_id, outcome, base=sid, changes=changes)
        sid, ranked = outcome_id, outcome
    for record in store.journal_records()[-CRASHED:]:
        (root / "segments" / (record["outcome"] + SEGMENT_SUFFIX)).unlink()
    return sid


def open_and_answer(tmp: Path, num_xtuples: int) -> int:
    """Events of one open of a crashed store plus its first answer."""
    pristine = tmp / f"pristine-{num_xtuples}"
    newest = build_crashed_store(pristine, num_xtuples)
    copy = tmp / f"copy-{num_xtuples}"
    shutil.copytree(pristine, copy)
    return count_events(
        lambda: open_service(copy).query(newest, QuerySpec(k=20))
    )


def rows_encoded_by_open(tmp: Path, num_xtuples: int) -> int:
    """Rows an open of a crashed store plus its first answer formats
    into content-hash records: every row handed to ``hash_records`` or
    ``hash_record``, wherever they are called from."""
    pristine = tmp / f"pristine-{num_xtuples}"
    newest = build_crashed_store(pristine, num_xtuples)
    copy = tmp / f"copy-{num_xtuples}"
    shutil.copytree(pristine, copy)
    rows = [0]

    def many(xids, tids, values, probabilities, starts):
        rows[0] += starts[-1] - starts[0] if starts else 0
        return hash_records(xids, tids, values, probabilities, starts)

    def one(xid, alternatives):
        rows[0] += len(alternatives)
        return hash_record(xid, alternatives)

    # Each module that imported a function by name calls its own copy.
    patched = [
        (module, name, original, wrapper)
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, original, wrapper in (
            ("hash_records", hash_records, many),
            ("hash_record", hash_record, one),
        )
        if getattr(module, name, None) is original
    ]
    assert any(module is database_module for module, *_ in patched)
    for module, name, _, wrapper in patched:
        setattr(module, name, wrapper)
    try:
        service = open_service(copy)
        service.query(newest, QuerySpec(k=20))
    finally:
        for module, name, original, _ in patched:
            setattr(module, name, original)
    assert service.store.counters()["psr_store_replays"] == CRASHED
    return rows[0]


def chain_step(
    ranked, rng: random.Random, removals: int
) -> Tuple[Dict[str, Optional[str]], object]:
    """One cleaning's change set on ``ranked`` (two collapses, then
    ``removals`` removals) and the outcome it derives."""
    xids = rng.sample(ranked.xtuple_ids, 2 + removals)
    changes: Dict[str, Optional[str]] = {
        xid: rng.choice(ranked.db.tids_of(xid)) for xid in xids[:2]
    }
    changes.update((xid, None) for xid in xids[2:])
    return changes, ranked.with_change_set(changes)


def durable_clean_work(tmp: Path, records: int) -> Dict[str, int]:
    """A store's work during one durable clean, after ``records``
    earlier cleanings and with default settings (no checkpoint
    threshold, so the journal holds every record), behind a pool whose
    retention policy keeps every segment: journal bytes decoded,
    exclusive lock holds and fsyncs.  Another handle commits one more
    cleaning after the service opens, so the clean has one record it
    has not read yet, of the same size whatever the history."""
    root = tmp / f"history-{records}"
    peer = SnapshotStore(root)
    ranked = generate_synthetic(num_xtuples=300, seed=1).ranked()
    sid = snapshot_id_of(ranked.db)
    peer.persist(sid, ranked)
    rng = random.Random(2)
    for step in range(records):
        changes, outcome = chain_step(ranked, rng, 0)
        outcome_id = snapshot_id_of(outcome.db)
        assert peer.journal_clean(
            sid, {"step": step}, outcome_id, outcome.db.content_hash(), changes
        )
        peer.persist(outcome_id, outcome, base=sid, changes=changes)
        sid, ranked = outcome_id, outcome
    service = TopKService(
        pool=SessionPool(
            store=SnapshotStore(root),
            retention=RetentionPolicy(keep_last_n=10 * records),
        )
    )
    changes, outcome = chain_step(ranked, rng, 1)
    outcome_id = snapshot_id_of(outcome.db)
    record = clean_record(sid, {}, outcome_id, outcome.db.content_hash(), changes)
    peer.persist(outcome_id, outcome, base=sid, changes=changes, record=record)

    work = {"decoded": 0, "holds": 0, "fsyncs": 0}
    decode, acquire, fsync = store_module.decode_journal, StoreLock._acquire, os.fsync

    def decoding(data):
        work["decoded"] += len(data)
        return decode(data)

    def acquiring(lock, operation, mode):
        work["holds"] += mode == "exclusive"
        return acquire(lock, operation, mode)

    def syncing(fd):
        work["fsyncs"] += 1
        return fsync(fd)

    store_module.decode_journal = decoding
    StoreLock._acquire = acquiring  # type: ignore[method-assign]
    os.fsync = syncing
    try:
        result = service.clean(sid, CleaningSpec(k=10, budget=30, seed=3))
    finally:
        store_module.decode_journal = decode
        StoreLock._acquire = acquire  # type: ignore[method-assign]
        os.fsync = fsync
    assert result.payload["new_snapshot_id"] != sid, "the clean changed nothing"
    return work


def registered(num_xtuples: int) -> Tuple[TopKService, str]:
    """A storeless service holding one incomplete snapshot, cold."""
    service = TopKService()
    db = generate_synthetic(num_xtuples=num_xtuples, completion=0.85, seed=1)
    return service, service.register(db).snapshot_id


def warm_read(tmp: Path, num_xtuples: int) -> int:
    """Events of a k = 100 read served from its session's cached PSR
    pass: an earlier read ran the pass, and this one answers PT-k at
    another threshold from it."""
    service, sid = registered(num_xtuples)
    service.query(sid, QuerySpec(k=100))
    return count_events(lambda: service.query(sid, QuerySpec(k=100, threshold=0.2)))


def cold_batch(tmp: Path, num_xtuples: int) -> int:
    """Events of a three-item batch on a cold session (the largest item
    at k = 100), which must run exactly one PSR pass."""
    service, sid = registered(num_xtuples)
    spec = BatchSpec(
        items=(QuerySpec(k=10), QuerySpec(k=50, semantics="ptk"), QualitySpec(k=100))
    )
    results = []
    events = count_events(lambda: results.append(service.batch(sid, spec)))
    passes = results[0].counters["psr_misses"]
    assert passes == 1, f"the batch ran {passes} PSR passes, not one"
    return events


def executed_clean(tmp: Path, num_xtuples: int) -> int:
    """Events of an executed clean (k = 100, budget 20) on a storeless
    service holding one complete snapshot, whose k = 100 pass ends
    before the database does.  A clean on a tiny snapshot runs first,
    so the count holds no first-use imports."""
    warm = TopKService()
    warm_id = warm.register(generate_synthetic(num_xtuples=30, seed=1)).snapshot_id
    warm.clean(warm_id, CleaningSpec(k=5, budget=10, seed=3))
    service = TopKService()
    db = generate_synthetic(num_xtuples=num_xtuples, seed=1)
    sid = service.register(db).snapshot_id
    spec = CleaningSpec(k=100, budget=20, seed=3)
    results = []
    events = count_events(lambda: results.append(service.clean(sid, spec)))
    assert results[0].payload["new_snapshot_id"] != sid, "the clean changed nothing"
    with service.pool.lease(sid) as session:
        cutoff = session.rank_probabilities(100).cutoff
    assert cutoff < db.num_tuples, "the pass read the whole database"
    return events


def hashed_beyond_content(tmp: Path, num_xtuples: int) -> int:
    """Bytes a durable clean hands SHA-256 and CRC-32 besides one pass
    over its outcome's content records: its segment and its journal and
    lock frames.  The service has cleaned the same base once before, so
    its store has already read the base's segment back, which the first
    durable clean on a base does."""
    service = open_service(tmp / f"store-{num_xtuples}")
    db = generate_synthetic(num_xtuples=num_xtuples, seed=1)
    sid = service.register(db).snapshot_id
    service.clean(sid, CleaningSpec(k=10, budget=30, seed=2))
    hashed = [0]
    sha256, crc32 = hashlib.sha256, zlib.crc32

    def hashing(data=b""):
        hashed[0] += len(data)
        return sha256(data)

    def checking(data, value=0):
        hashed[0] += len(data)
        return crc32(data, value)

    hashlib.sha256, zlib.crc32 = hashing, checking
    try:
        result = service.clean(sid, CleaningSpec(k=10, budget=30, seed=3))
    finally:
        hashlib.sha256, zlib.crc32 = sha256, crc32
    outcome = result.payload["new_snapshot_id"]
    assert outcome != sid, "the clean changed nothing"
    with service.pool.lease(outcome) as session:
        db = session.ranked.db
        content = sum(map(len, hash_records(
            db.xids, db.tids.tolist(), db.values.tolist(),
            db.probabilities.tolist(), db.offsets.tolist(),
        )))
    assert hashed[0] >= content, "the clean did not hash its outcome"
    return hashed[0] - content


def rows_past_cutoff(tmp: Path, num_xtuples: int) -> int:
    """Rows a cold k = 20 pass on complete data reads past its cutoff,
    where Lemma 2 stops it (run without the tail stop, which certifies
    a row close by).  A tail-stopped k = 20 pass on as many incomplete
    x-tuples must run ⌈cutoff / (GROUP_BLOCKS · BLOCK_ROWS)⌉ groups: one
    per full group of rows it keeps."""
    work = {"rows": 0, "groups": 0}
    scan_group = psr_numpy._scan_group

    def scanning(probabilities, xtuple_indices, k, state, end):
        work["rows"] += end - state.row
        work["groups"] += 1
        return scan_group(probabilities, xtuple_indices, k, state, end)

    complete = generate_synthetic(num_xtuples=num_xtuples, seed=1).ranked()
    incomplete = generate_synthetic(
        num_xtuples=num_xtuples, completion=0.85, seed=1
    ).ranked()
    psr_numpy._scan_group = scanning
    try:
        stopped = compute_rank_probabilities(complete, 20, tail_epsilon=0.0)
        read = work["rows"]
        work["groups"] = 0
        tailed = compute_rank_probabilities(incomplete, 20)
    finally:
        psr_numpy._scan_group = scan_group
    assert stopped.cutoff < complete.num_tuples, "Lemma 2 did not stop the pass"
    assert tailed.cutoff == tail_stop(incomplete, 20, TAIL_EPSILON) < (
        incomplete.num_tuples
    ), "the tail stop did not stop the pass"
    span = psr_numpy.GROUP_BLOCKS * psr_numpy.BLOCK_ROWS
    assert work["groups"] == math.ceil(tailed.cutoff / span), (
        f"a tail-stopped pass over {tailed.cutoff} rows ran "
        f"{work['groups']} groups"
    )
    return read - stopped.cutoff


def rows_kept_on_incomplete_data(tmp: Path, num_xtuples: int) -> int:
    """Rows a cold k = 100 pass keeps on incomplete data, where the tail
    stop ends it.  The rows it leaves must hold at most TAIL_EPSILON of
    the top-k mass an unstopped pass finds there."""
    ranked = generate_synthetic(
        num_xtuples=num_xtuples, completion=0.85, seed=1
    ).ranked()
    stopped = compute_rank_probabilities(ranked, 100)
    unstopped = compute_rank_probabilities(ranked, 100, tail_epsilon=0.0)
    assert unstopped.cutoff == ranked.num_tuples
    left = math.fsum(unstopped.topk_prefix[stopped.cutoff :].tolist())
    assert left <= TAIL_EPSILON, (
        f"the rows past the cutoff hold {left:g} of top-k mass"
    )
    return stopped.cutoff


@dataclass(frozen=True)
class Contract:
    path: str
    sizes: Tuple[int, int]
    claim: str
    measure: Callable[[Path, int], int]
    #: The most the large count may be, as a multiple of the small one
    #: (``None`` where the counts are too small for a ratio to say
    #: anything, and ``most`` is the claim).
    bound: Optional[float] = None
    #: The most either count may be, when the count itself is claimed.
    most: Optional[int] = None


CONTRACTS = (
    Contract(
        path="store open plus first answer",
        sizes=(500, 6000),
        bound=1.5,
        claim=(
            "a store open rebuilds a snapshot from its columns, and replays "
            "a crashed cleaning by splicing them: no Python work per "
            "x-tuple or per tuple"
        ),
        measure=open_and_answer,
    ),
    Contract(
        path="rows an open encodes into content-hash records",
        sizes=(500, 3000),
        claim=(
            "a store open takes a full segment's content-hash records from "
            "the segment and formats only the rows the delta rebuild and the "
            "replays change (two collapses each), whatever the base holds"
        ),
        measure=rows_encoded_by_open,
        most=2 * (1 + CRASHED),
    ),
    Contract(
        path="journal bytes a durable clean decodes",
        sizes=(16, 128),
        bound=1.0,
        claim=(
            "a durable clean reads only the journal records appended since "
            "its handle last read the file, not the journal's history"
        ),
        measure=lambda tmp, records: durable_clean_work(tmp, records)["decoded"],
    ),
    Contract(
        path="store lock holds of a durable clean",
        sizes=(16, 128),
        bound=1.0,
        claim=(
            "a durable clean takes the store's exclusive lock once: record, "
            "segment and retention sweep are one transaction"
        ),
        measure=lambda tmp, records: durable_clean_work(tmp, records)["holds"],
        most=1,
    ),
    Contract(
        path="fsyncs of a durable clean",
        sizes=(16, 128),
        bound=1.0,
        claim=(
            "a durable clean syncs its journal record, its segment and the "
            "segment directory, whatever the store holds"
        ),
        measure=lambda tmp, records: durable_clean_work(tmp, records)["fsyncs"],
        most=3,
    ),
    Contract(
        path="warm k = 100 read",
        sizes=(500, 3000),
        bound=1.0,
        claim=(
            "a read whose PSR pass is cached extracts its answers from the "
            "pass's columns: no Python work per x-tuple"
        ),
        measure=warm_read,
    ),
    Contract(
        path="three-item batch",
        sizes=(500, 3000),
        bound=1.2,
        claim=(
            "a batch runs one PSR pass, at its largest k, and serves every "
            "item from it: no Python work per x-tuple beyond the rows the "
            "pass scans"
        ),
        measure=cold_batch,
    ),
    Contract(
        path="executed in-memory clean",
        sizes=(500, 3000),
        bound=1.5,
        claim=(
            "a clean plans from its base's PSR pass, probes, derives its "
            "outcome by splicing the changed x-tuples and scores it with one "
            "fresh pass, both passes stopped by Lemma 2: no Python work per "
            "x-tuple"
        ),
        measure=executed_clean,
    ),
    Contract(
        path="bytes a durable clean hashes besides its outcome's records",
        sizes=(500, 3000),
        bound=1.1,
        claim=(
            "a durable clean hashes its outcome's content records once, plus "
            "its delta segment and its journal and lock frames: nothing "
            "else it hashes grows with the database"
        ),
        measure=hashed_beyond_content,
        most=4096,
    ),
    Contract(
        path="rows a Lemma 2-stopped pass reads past its cutoff",
        sizes=(500, 6000),
        claim=(
            "a PSR pass sizes its groups from the row by which Lemma 2 has "
            "fired, so where x-tuples saturate at their last members it "
            "reads at most the rest of the block its cutoff falls in, "
            "whatever the database's size"
        ),
        measure=rows_past_cutoff,
        most=psr_numpy.BLOCK_ROWS - 1,
    ),
    Contract(
        path="rows a tail-stopped pass keeps",
        sizes=(500, 3000),
        claim=(
            "the tail stop bounds the rows left with the x-tuples' own "
            "masses, so a k = 100 pass on incomplete data certifies its "
            "tail within 2,000 rows, where the prefix mass alone took 2,776"
        ),
        measure=rows_kept_on_incomplete_data,
        most=2000,
    ),
)


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.path)
def test_work_grows_within_its_bound(contract, tmp_path):
    small, large = contract.sizes
    assert large >= 6 * small
    counts = [contract.measure(tmp_path, size) for size in contract.sizes]
    assert contract.bound is not None or contract.most is not None
    assert contract.bound is None or counts[1] <= contract.bound * counts[0], (
        f"{contract.path}: {counts[0]} at {small}, {counts[1]} at {large} "
        f"(more than x{contract.bound}); the claim: {contract.claim}"
    )
    if contract.most is not None:
        assert max(counts) <= contract.most, (
            f"{contract.path}: {counts} at {contract.sizes}, more than "
            f"{contract.most}; the claim: {contract.claim}"
        )
