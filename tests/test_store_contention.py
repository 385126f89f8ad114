"""Multi-writer safety of the snapshot store.

The ISSUE's acceptance bar: two processes hammering one store root
must end with zero quarantines, a bounded journal, and a fresh reopen
that matches an in-memory oracle to 1e-9.  ``fcntl.flock`` is per
open-file-description, so two :class:`StoreLock` / store handles in
*one* process contend exactly like two processes -- that is what makes
the lock-semantics tests here deterministic.  The real two-interpreter
convergence run lives in :class:`TestTwoProcessConvergence`; the
``contend`` fault kind rounds out the sweep.
"""

from __future__ import annotations

import errno
import json
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro.store.store as store_module
from conftest import assert_payloads_close, open_service
from repro.api.pool import SessionPool, snapshot_id_of
from repro.api.service import TopKService
from repro.api.specs import CleaningSpec, QuerySpec
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import RankedDatabase
from repro.db.ranking import by_value
from repro.exceptions import (
    SimulatedCrashError,
    StoreError,
    StoreLockedError,
    StoreReadOnlyError,
)
from repro.store import (
    JOURNAL_NAME,
    RetentionPolicy,
    SnapshotStore,
    StoreLock,
    clean_record,
)
from repro.store.format import encode_journal, encode_lock_record
from repro.store.locks import boot_nonce
from repro.testing import FaultEvent, FaultPlan, use_faults

K = 5
QUERY_SPEC = QuerySpec(k=K)
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = str(REPO_ROOT / "src")


def small_db(seed: int = 3):
    return generate_synthetic(num_xtuples=20, seed=seed)


def ranked_db(seed: int = 3) -> RankedDatabase:
    return RankedDatabase(small_db(seed), by_value())


def read_only_mount(monkeypatch) -> None:
    """Make every writable ``os.open`` fail as on a read-only mount."""
    real_open = os.open
    writable = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND

    def open_read_only(path, flags, *args, **kwargs):
        if flags & writable:
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr("repro.store.locks.os.open", open_read_only)


def dead_pid() -> int:
    """A PID that is (with overwhelming likelihood) no longer alive."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# ---------------------------------------------------------------------------
# Lock semantics (deterministic, in-process)
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_two_handles_contend_like_two_processes(self, tmp_path):
        first = StoreLock(tmp_path)
        second = StoreLock(tmp_path, timeout_ms=50.0)
        with first.exclusive():
            with pytest.raises(StoreLockedError) as excinfo:
                with second.exclusive():
                    pass
            message = str(excinfo.value)
            assert f"pid {os.getpid()}" in message
            assert "alive" in message
            assert "unlock --force" in message
        # Released: the second handle now acquires cleanly.
        with second.exclusive():
            assert second.held()

    def test_shared_readers_coexist(self, tmp_path):
        first = StoreLock(tmp_path)
        second = StoreLock(tmp_path, timeout_ms=50.0)
        with first.shared():
            with second.shared():
                assert first.held() and second.held()

    def test_shared_excludes_exclusive_and_vice_versa(self, tmp_path):
        reader = StoreLock(tmp_path)
        writer = StoreLock(tmp_path, timeout_ms=50.0)
        with reader.shared():
            with pytest.raises(StoreLockedError):
                with writer.exclusive():
                    pass
        with writer.exclusive():
            blocked = StoreLock(tmp_path, timeout_ms=50.0)
            with pytest.raises(StoreLockedError):
                with blocked.shared():
                    pass

    def test_bounded_wait_succeeds_after_release(self, tmp_path):
        holder = StoreLock(tmp_path)
        waiter = StoreLock(tmp_path, timeout_ms=5_000.0)
        entered = threading.Event()

        def hold_briefly():
            with holder.exclusive():
                entered.set()
                time.sleep(0.08)

        thread = threading.Thread(target=hold_briefly)
        thread.start()
        try:
            assert entered.wait(5.0)
            with waiter.exclusive():
                assert waiter.waits == 1
        finally:
            thread.join()

    def test_holder_reports_record_and_liveness(self, tmp_path):
        lock = StoreLock(tmp_path)
        assert lock.holder() is None
        with lock.exclusive():
            holder = lock.holder()
            assert holder is not None
            assert holder["pid"] == os.getpid()
            assert holder["mode"] == "exclusive"
            if boot_nonce():
                assert holder["alive"] is True

    def test_release_clears_the_holder_record(self, tmp_path):
        # A record that outlived its hold used to name the *last*
        # holder forever, steering operators at a lock that was free.
        # Release truncates it (while still holding the flock), so a
        # readable record always means a current or crashed holder.
        lock = StoreLock(tmp_path)
        with lock.exclusive():
            assert lock.holder() is not None
        assert lock.holder() is None
        # Shared holds never write a record to begin with.
        with lock.shared():
            assert lock.holder() is None
        assert lock.holder() is None

    def test_stale_record_is_reported_dead_and_breakable(self, tmp_path):
        nonce = boot_nonce()
        if not nonce:
            pytest.skip("no boot id on this host; liveness is unknown")
        lock = StoreLock(tmp_path)
        lock.path.write_bytes(
            encode_lock_record(
                {"pid": dead_pid(), "boot": nonce, "mode": "exclusive"}
            )
        )
        holder = lock.holder()
        assert holder is not None and holder["alive"] is False
        report = lock.force_break()
        assert report["broken"] is True
        assert lock.holder() is None

    def test_force_break_refuses_a_live_holder(self, tmp_path):
        nonce = boot_nonce()
        if not nonce:
            pytest.skip("no boot id on this host; liveness is unknown")
        lock = StoreLock(tmp_path)
        lock.path.write_bytes(
            encode_lock_record(
                {"pid": os.getpid(), "boot": nonce, "mode": "exclusive"}
            )
        )
        report = lock.force_break()
        assert report["broken"] is False
        assert lock.holder() is not None

    def test_foreign_boot_liveness_is_unknown(self, tmp_path):
        lock = StoreLock(tmp_path)
        lock.path.write_bytes(
            encode_lock_record(
                {"pid": 1, "boot": "some-other-boot", "mode": "exclusive"}
            )
        )
        holder = lock.holder()
        assert holder is not None and holder["alive"] is None


# ---------------------------------------------------------------------------
# Store-level locking modes
# ---------------------------------------------------------------------------


class TestStoreModes:
    def test_open_is_shed_typed_while_writer_holds_the_lock(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root)  # creates the directory layout
        external = StoreLock(root)
        with external.exclusive():
            with pytest.raises(StoreLockedError):
                SnapshotStore(root, lock_timeout_ms=50.0)
            # Readers are shed too: recovery needs the shared lock.
            with pytest.raises(StoreLockedError):
                SnapshotStore(root, mode="readonly", lock_timeout_ms=50.0)

    def test_readonly_open_coexists_with_readers(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        external = StoreLock(root)
        with external.shared():
            reader = SnapshotStore(
                root, mode="readonly", lock_timeout_ms=200.0
            )
            assert reader.has_segment("s1")

    def test_readonly_mode_rejects_every_write(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root).persist("s1", ranked_db())
        reader = SnapshotStore(root, mode="readonly")
        with pytest.raises(StoreReadOnlyError):
            reader.persist("s2", ranked_db(4))
        with pytest.raises(StoreReadOnlyError):
            reader.journal_clean("s1", {"k": K}, "s2", "hash")
        with pytest.raises(StoreReadOnlyError):
            reader.checkpoint()
        with pytest.raises(StoreReadOnlyError):
            reader.gc()

    def test_readonly_open_leaves_the_listing_unchanged(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root).persist("s1", ranked_db())
        (root / "quarantine").rmdir()
        before = sorted(p.relative_to(root) for p in root.rglob("*"))
        reader = SnapshotStore(root, mode="readonly")
        assert reader.status()["quarantined_files"] == []
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == before

    def test_readonly_open_needs_no_write_access(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        SnapshotStore(root).persist("s1", ranked_db())
        read_only_mount(monkeypatch)
        reader = SnapshotStore(root, mode="readonly")
        assert reader.has_segment("s1")
        assert reader.status()["snapshots"] == ["s1"]

    def test_readonly_open_that_must_create_the_lock_is_typed(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        root = tmp_path / "store"
        SnapshotStore(root).persist("s1", ranked_db())
        (root / "store.lock").unlink()
        read_only_mount(monkeypatch)
        with pytest.raises(StoreError, match="cannot open the store lock"):
            SnapshotStore(root, mode="readonly")
        out = tmp_path / "out.json"
        assert main(["store", "--dir", str(root), "--json", str(out)]) == 1
        assert json.loads(out.read_text())["error"]["type"] == "StoreError"
        assert "store.lock" in capsys.readouterr().err

    def test_lock_waits_surface_as_a_counter(self, tmp_path):
        root = tmp_path / "store"
        SnapshotStore(root)
        external = StoreLock(root)
        entered = threading.Event()

        def hold_briefly():
            with external.shared():
                entered.set()
                time.sleep(0.08)

        thread = threading.Thread(target=hold_briefly)
        thread.start()
        try:
            assert entered.wait(5.0)
            store = SnapshotStore(root, lock_timeout_ms=5_000.0)
            assert store.counters()["psr_store_lock_waits"] >= 1
        finally:
            thread.join()

    def test_status_lock_holder_clears_between_operations(self, tmp_path):
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.persist("s1", ranked_db())
        status = store.status()
        # Between operations nobody holds the flock and the release
        # cleared the record: a non-None holder in status always means
        # an operation in flight or a holder that crashed, never a
        # writer that finished long ago.
        assert status["lock_holder"] is None
        assert status["segment_files"] == 1
        assert status["segment_bytes"] > 0
        assert status["tombstones"] == 0


# ---------------------------------------------------------------------------
# Tail reads: a transaction decodes only what the journal gained since
# its handle last read it, and reads the whole file after a rewrite
# ---------------------------------------------------------------------------


def durable_clean(store: SnapshotStore, base_id: str, base: RankedDatabase, seed: int):
    """A durable clean of ``base`` (a collapse and a removal) as the
    service runs one: record and segment in one transaction.  Returns
    the outcome's id and view."""
    rng = random.Random(seed)
    collapse, removal = rng.sample(base.xtuple_ids, 2)
    changes = {collapse: base.db.tids_of(collapse)[0], removal: None}
    outcome = base.with_change_set(changes)
    outcome_id = snapshot_id_of(outcome.db)
    record = clean_record(
        base_id, {"seed": seed}, outcome_id, outcome.db.content_hash(), changes
    )
    assert store.persist(
        outcome_id, outcome, base=base_id, changes=changes, record=record
    )
    return outcome_id, outcome


def on_disk(root: Path):
    """The journal's clean prefix as a fresh read-only open reads it."""
    return SnapshotStore(root, mode="readonly").journal_records()


def held_open(path: Path) -> bool:
    """Whether this process has the file at ``path`` open (``True``
    when its open files cannot be listed)."""
    target = path.stat()
    try:
        fds = os.listdir("/dev/fd")
    except OSError:
        return True
    for fd in fds:
        try:
            stat = os.stat(f"/dev/fd/{fd}")
        except OSError:
            continue
        if (stat.st_dev, stat.st_ino) == (target.st_dev, target.st_ino):
            return True
    return False


def land_in_inode(journal: Path, keep: Path) -> bool:
    """Give the journal the inode number of ``keep``, a hard link to
    the journal a handle read, made before a rewrite renamed another
    file over it.  A file system may hand that number to a new file
    once no link and no open file holds the inode (ext4 hands a freed
    number straight back), so unless this process holds it open, the
    journal's bytes move into it and it is renamed into place.
    Returns whether it was; ``keep`` is gone either way."""
    if held_open(keep):
        keep.unlink()
        return False
    data = journal.read_bytes()
    with open(keep, "r+b") as f:
        f.truncate(0)
        f.write(data)
    os.replace(keep, journal)
    return True


class TestTailReads:
    @staticmethod
    def stores(tmp_path):
        """Handle A holding a base, two spare snapshots and a durable
        clean of the base, and handle B opened on the same root after
        them (so it holds the clean's outcome, and journals cleans of
        it).  Returns the root, A, B, the clean's outcome and the
        spares' ids."""
        root = tmp_path / "store"
        a = SnapshotStore(root)
        base = ranked_db(3)
        base_id = snapshot_id_of(base.db)
        a.persist(base_id, base)
        spares = []
        for seed in (4, 5):
            view = ranked_db(seed)
            spares.append(snapshot_id_of(view.db))
            a.persist(spares[-1], view)
        outcome = durable_clean(a, base_id, base, seed=1)
        return root, a, SnapshotStore(root), outcome, spares

    def test_a_peer_clean_and_its_tombstones_reach_the_next_transaction(
        self, tmp_path, monkeypatch
    ):
        root, a, b, (sid, view), spares = self.stores(tmp_path)
        journal = root / JOURNAL_NAME
        size = journal.stat().st_size
        newest, _ = durable_clean(b, sid, view, seed=2)
        assert sorted(b.gc(RetentionPolicy(keep_last_n=0))["tombstoned"]) == sorted(
            spares
        )
        appended = journal.stat().st_size - size
        decoded = []
        decode = store_module.decode_journal

        def decoding(data):
            decoded.append(len(data))
            return decode(data)

        monkeypatch.setattr(store_module, "decode_journal", decoding)
        # A's sweep must know B's record (it protects B's outcome) and
        # B's tombstones (the spares are gone already), having decoded
        # only the bytes B appended.
        report = a.gc(RetentionPolicy(keep_last_n=0))
        assert decoded == [appended]
        assert report["tombstoned"] == []
        assert newest in report["protected"]
        assert a.journal_records() == on_disk(root)

    @pytest.mark.parametrize("same_inode", [False, True], ids=["new", "reused"])
    def test_a_peer_checkpoint_then_appends_is_read_whole(self, tmp_path, same_inode):
        root, a, b, (sid, view), spares = self.stores(tmp_path)
        journal = root / JOURNAL_NAME
        keep = root / "journal.keep"
        os.link(journal, keep)
        mark = journal.stat().st_size
        # B's checkpoint drops A's record (its outcome is committed);
        # B's cleans then grow the new journal past A's offset.
        assert b.checkpoint()["compacted"]
        for seed in (2, 3):
            sid, view = durable_clean(b, sid, view, seed)
        assert journal.stat().st_size >= mark
        # A holds the journal it read open: the rewrite cannot have
        # its inode number.
        assert not (same_inode and land_in_inode(journal, keep))
        report = a.gc(RetentionPolicy(keep_last_n=0))
        assert sorted(report["tombstoned"]) == sorted(spares)
        assert sid in report["protected"]
        assert a.journal_records() == on_disk(root)

    def test_a_peer_resurrection_is_read_whole(self, tmp_path):
        root, a, _, (sid, view), spares = self.stores(tmp_path)
        tombstoned = a.gc(RetentionPolicy(keep_last_n=0))["tombstoned"]
        assert sorted(tombstoned) == sorted(spares)
        # B opens after the sweep, so it does not hold the victims:
        # re-persisting one resurrects it (a journal rewrite), and B's
        # clean then grows the journal past A's offset.
        b = SnapshotStore(root)
        revived = tombstoned[0]
        assert b.persist(revived, ranked_db(4 if revived == spares[0] else 5))
        durable_clean(b, sid, view, seed=2)
        # A's checkpoint unlinks the files of the tombstones it knows
        # of: it must know that the revived one is gone.
        assert a.checkpoint()["unlinked"] == [s for s in tombstoned if s != revived]
        assert revived in SnapshotStore(root, mode="readonly").snapshot_ids()
        assert a.journal_records() == on_disk(root)

    def test_a_journal_shorter_than_the_mark_is_read_whole(self, tmp_path):
        root, a, _, _, spares = self.stores(tmp_path)
        journal = root / JOURNAL_NAME
        clean_only = journal.stat().st_size
        assert sorted(a.gc(RetentionPolicy(keep_last_n=0))["tombstoned"]) == sorted(
            spares
        )
        # The journal A read loses its tombstones in place.
        os.truncate(journal, clean_only)
        report = a.checkpoint()
        assert report["records_before"] == 1
        assert report["unlinked"] == []
        assert a.journal_records() == on_disk(root) == []

    def test_a_rewrite_the_size_of_the_mark_cannot_take_its_inode(self, tmp_path):
        # A reads [T(x), C].  B resurrects x ([C]), tombstones v and
        # checkpoints ([T(v)]), then journals the same clean again:
        # [T(v), C], as long as A's journal, C at A's offset.  Were the
        # last rewrite in A's inode, A would keep T(x) and unlink x.
        root = tmp_path / "store"
        a = SnapshotStore(root)
        base = ranked_db(3)
        base_id = snapshot_id_of(base.db)
        a.persist(base_id, base)
        views = {}
        for seed in (4, 5):
            view = ranked_db(seed)
            views[snapshot_id_of(view.db)] = view
            a.persist(snapshot_id_of(view.db), view)
        x, v = sorted(views)
        assert a.gc(RetentionPolicy(keep_last_n=0, pinned=(base_id, v)))[
            "tombstoned"
        ] == [x]
        outcome_id, outcome = durable_clean(a, base_id, base, seed=1)
        (record,) = [r for r in a.journal_records() if r["kind"] == "clean"]
        journal = root / JOURNAL_NAME
        keep = root / "journal.keep"
        os.link(journal, keep)
        size = journal.stat().st_size

        b = SnapshotStore(root)
        assert b.persist(x, views[x])
        assert b.gc(RetentionPolicy(keep_last_n=0, pinned=(x,)))["tombstoned"] == [v]
        assert b.checkpoint()["unlinked"] == [v]
        changes = record["changes"]
        assert not b.persist(
            outcome_id, outcome, base=base_id, changes=changes, record=record
        )
        assert journal.stat().st_size == size
        assert not land_in_inode(journal, keep)

        report = a.checkpoint()
        assert report["unlinked"] == []
        assert (root / "segments" / (x + ".seg")).exists()
        assert a.journal_records() == on_disk(root) == []
        assert x in SnapshotStore(root, mode="readonly").snapshot_ids()

    def test_a_torn_tail_ends_the_prefix_at_its_first_bad_frame(self, tmp_path):
        root, a, b, (sid, view), _ = self.stores(tmp_path)
        before = a.journal_records()
        # B crashes mid-append, leaving a torn frame after A's offset.
        plan = FaultPlan([FaultEvent(kind="torn", step="journal:payload")])
        with use_faults(plan), pytest.raises(SimulatedCrashError):
            durable_clean(b, sid, view, seed=2)
        assert plan.drawn
        a.gc(RetentionPolicy(keep_last_n=None))
        assert a.journal_records() == before == on_disk(root)
        # A's next append lands where the clean prefix ends, cutting the
        # torn frame off first, as an exclusive open would: every reader
        # sees the record, and nothing is left to truncate.
        durable_clean(a, sid, view, seed=3)
        (record,) = [r for r in a.journal_records() if r not in before]
        assert record["base"] == sid
        assert a.journal_records() == before + [record] == on_disk(root)
        journal = root / JOURNAL_NAME
        assert journal.read_bytes() == encode_journal(before + [record])
        reopened = SnapshotStore(root)
        assert reopened.recovery.journal_truncated_bytes == 0
        assert reopened.journal_records() == before + [record]


# ---------------------------------------------------------------------------
# A persist decides from the disk, not from what its handle holds
# ---------------------------------------------------------------------------


class TestPersistAfterAPeerCollected:
    """Handle A holds X; handle B's GC tombstones X and its checkpoint
    unlinks the file (a second checkpoint also retires the tombstone).
    A still holds X in memory, and persisting X again must write it."""

    @staticmethod
    def collect(root: Path, x: str, checkpoints: int) -> None:
        b = SnapshotStore(root)
        assert b.gc(RetentionPolicy(keep_last_n=0))["tombstoned"] == [x]
        assert b.checkpoint()["unlinked"] == [x]
        for _ in range(checkpoints - 1):
            b.checkpoint()

    @staticmethod
    def assert_durable(root: Path, x: str, view: RankedDatabase) -> None:
        reader = SnapshotStore(root, mode="readonly")
        assert reader.snapshot_ids() == [x]
        assert reader.load(x).db.content_hash() == view.db.content_hash()

    @pytest.mark.parametrize("checkpoints", [1, 2], ids=["tombstoned", "retired"])
    def test_persist_writes_a_held_id_again(self, tmp_path, checkpoints):
        root = tmp_path / "store"
        a = SnapshotStore(root)
        view = ranked_db()
        x = snapshot_id_of(view.db)
        assert a.persist(x, view)
        self.collect(root, x, checkpoints)
        assert a.has_segment(x)
        assert a.persist(x, view) is True
        assert a.has_segment(x)
        self.assert_durable(root, x, view)

    @pytest.mark.parametrize("checkpoints", [1, 2], ids=["tombstoned", "retired"])
    def test_a_pool_re_registering_it_writes_it_again(self, tmp_path, checkpoints):
        root = tmp_path / "store"
        pool = SessionPool(store=SnapshotStore(root))
        view = ranked_db()
        x = pool.register(view)
        self.collect(root, x, checkpoints)
        assert pool.register(view) == x
        self.assert_durable(root, x, view)


# ---------------------------------------------------------------------------
# The "contend" fault kind: a second interpreter at an exact step
# ---------------------------------------------------------------------------


class TestContendFault:
    def test_second_process_is_shed_typed_mid_persist(self, tmp_path):
        root = tmp_path / "store"
        marker = tmp_path / "probe.json"
        store = SnapshotStore(root)
        command = textwrap.dedent(
            f"""
            import json, sys
            sys.path.insert(0, {SRC_DIR!r})
            from repro.exceptions import StoreLockedError
            from repro.store import SnapshotStore
            try:
                SnapshotStore({str(root)!r}, lock_timeout_ms=200.0)
            except StoreLockedError as exc:
                report = {{"locked": True, "message": str(exc)}}
            else:
                report = {{"locked": False}}
            with open({str(marker)!r}, "w") as f:
                json.dump(report, f)
            """
        )
        plan = FaultPlan(
            [
                FaultEvent(
                    kind="contend", step="segment:written", command=command
                )
            ]
        )
        with use_faults(plan):
            assert store.persist("s1", ranked_db())
        assert plan.drawn, "contend fault never fired"
        probe = json.loads(marker.read_text())
        # The second interpreter hit the held writer lock exactly
        # mid-write and failed *typed*, naming the live holder.
        assert probe["locked"] is True
        assert f"pid {os.getpid()}" in probe["message"]
        # The write itself was untouched by the contention.
        assert store.has_segment("s1")


# ---------------------------------------------------------------------------
# The acceptance bar: two real processes, one root
# ---------------------------------------------------------------------------

CHILD_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])

from repro.api.service import TopKService
from repro.api.specs import CleaningSpec
from repro.datasets.synthetic import generate_synthetic

root = sys.argv[2]
seeds = [int(s) for s in sys.argv[3:]]
service = TopKService(store_dir=root)
base = service.register(
    generate_synthetic(num_xtuples=20, seed=3)
).snapshot_id
for seed in seeds:
    service.clean(
        base, CleaningSpec(k=5, budget=40, execute=True, seed=seed)
    )
"""


class TestTwoProcessConvergence:
    def test_two_writers_converge_with_bounded_journal(self, tmp_path):
        root = tmp_path / "store"
        # Overlapping seed sets: both children register the same base
        # (idempotent adoption) and child B re-derives one of child
        # A's outcomes (content-addressed adoption under contention).
        seeds_a = [11, 12, 13]
        seeds_b = [13, 14, 15]
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env["REPRO_JOURNAL_MAX_RECORDS"] = "3"
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    CHILD_SCRIPT,
                    SRC_DIR,
                    str(root),
                    *[str(s) for s in seeds],
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seeds in (seeds_a, seeds_b)
        ]
        for child in children:
            _, stderr = child.communicate(timeout=240)
            assert child.returncode == 0, stderr

        # The fault-free oracle: one in-memory service, same workload.
        oracle = TopKService()
        base_id = oracle.register(small_db()).snapshot_id
        expected = {}
        for seed in sorted(set(seeds_a) | set(seeds_b)):
            spec = CleaningSpec(k=K, budget=40, execute=True, seed=seed)
            outcome = oracle.clean(base_id, spec).payload["new_snapshot_id"]
            expected[outcome] = oracle.query(outcome, QUERY_SPEC).payload

        reopened = open_service(root)
        # Zero quarantines, nothing left to replay.
        assert reopened.store.recovery.quarantined == ()
        assert reopened.store.pending_cleanings() == []
        # The journal stayed bounded by the checkpoint threshold.
        assert len(reopened.store.journal_records()) <= 3
        # Every outcome both processes produced is present and agrees
        # with the oracle to 1e-9.
        loaded = set(reopened.store.recovery.loaded)
        assert {base_id, *expected} <= loaded
        for outcome_id, payload in expected.items():
            assert_payloads_close(
                reopened.query(outcome_id, QUERY_SPEC).payload, payload
            )

    def test_mid_compaction_crash_under_contention_stays_consistent(
        self, tmp_path
    ):
        # One writer is armed to die mid-compaction (after the rewrite
        # hit the temp file, before the rename committed) while a
        # clean writer races it on the same root.  Whichever records
        # were acknowledged must survive, uncorrupted, and replay to
        # the oracle's answers.
        root = tmp_path / "store"
        seeds_a = [21, 22, 23]
        seeds_b = [24, 25, 26]
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        env["REPRO_JOURNAL_MAX_RECORDS"] = "2"
        env_armed = dict(env)
        env_armed["REPRO_FAULTS"] = json.dumps(
            {"events": [{"kind": "crash", "step": "checkpoint:written"}]}
        )
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    CHILD_SCRIPT,
                    SRC_DIR,
                    str(root),
                    *[str(s) for s in seeds],
                ],
                env=child_env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seeds, child_env in ((seeds_a, env_armed), (seeds_b, env))
        ]
        stderrs = []
        for child in children:
            _, stderr = child.communicate(timeout=240)
            stderrs.append(stderr)
        # The unfaulted writer must finish; the armed one either died
        # at the injected step or never compacted (the other process
        # got there first) -- both are legal outcomes under contention.
        assert children[1].returncode == 0, stderrs[1]
        if children[0].returncode != 0:
            assert "SimulatedCrashError" in stderrs[0]

        oracle = TopKService()
        base_id = oracle.register(small_db()).snapshot_id
        expected = {}
        for seed in seeds_a + seeds_b:
            spec = CleaningSpec(k=K, budget=40, execute=True, seed=seed)
            outcome = oracle.clean(base_id, spec).payload["new_snapshot_id"]
            expected[outcome] = oracle.query(outcome, QUERY_SPEC).payload

        reopened = open_service(root)
        # The crash corrupted nothing: no quarantine, no torn journal,
        # every acknowledged cleaning either durable or replayed.
        assert reopened.store.recovery.quarantined == ()
        assert reopened.store.recovery.journal_truncated_bytes == 0
        assert reopened.store.pending_cleanings() == []
        present = set(reopened.store.recovery.loaded) & set(expected)
        # The clean writer's three outcomes are all durable (the dead
        # writer's are whatever it acknowledged before dying).
        assert len(present) >= 3
        for outcome_id in present:
            assert_payloads_close(
                reopened.query(outcome_id, QUERY_SPEC).payload,
                expected[outcome_id],
            )
        # Compaction still bounds the journal after the dust settles.
        reopened.store.checkpoint()
        reopened.store.checkpoint()  # retires any tombstones
        assert reopened.store.journal_records() == []
