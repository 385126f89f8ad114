"""Journaled cleanings still replay after a kernel change.

Each store under ``tests/fixtures/replay_stores`` holds a base snapshot
and one journaled cleaning whose outcome segment never committed (see
``build.py`` there).  They were built by the code that preceded the
division-free numpy block kernel.  Replay re-executes the journaled
``CleaningSpec`` with the current kernel and must regenerate the exact
content hash the journal recorded: a kernel whose rounding flipped a
planning decision would make the store refuse to open with
``JournalReplayError``.
"""

import shutil
from pathlib import Path

import pytest

from repro.api import TopKService
from repro.store import SnapshotStore

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "replay_stores"
STORES = sorted(path.name for path in FIXTURES.iterdir() if path.is_dir())


def test_every_database_and_planner_has_a_store():
    assert STORES == sorted(
        f"{db}-{plan}"
        for db in ("udb1", "udb2", "syn60")
        for plan in ("greedy", "adaptive", "dp")
    )


@pytest.mark.parametrize("name", STORES)
def test_pending_cleaning_replays_to_its_journaled_hash(tmp_path, name):
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    pending = SnapshotStore(root, mode="readonly").pending_cleanings()
    assert len(pending) == 1

    service = TopKService(store_dir=root)  # replays, or raises

    for record in pending:
        outcome = service.pool.database(record["outcome"])
        assert outcome.content_hash() == record["outcome_hash"]
    assert service.store.pending_cleanings() == []
