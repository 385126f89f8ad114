"""A store written in the schema-4 layout still opens, replays and answers.

``tests/fixtures/schema4_store/store`` was written by the code that
last wrote schema-4 full segments (see ``build.py`` there): two full
segments whose structure is typed columns, two delta segments above
one of them, and a journaled clean whose segment never committed.
``expected.json`` holds every snapshot's k = 5 answers and quality as
that code computed them.
"""

import json
import shutil
from pathlib import Path

from repro.api import QualitySpec, QuerySpec, TopKService
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import decode_segment

from test_schema2_store import assert_close

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "schema4_store"


def test_schema_4_store_opens_replays_and_answers_as_written(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", root)
    expected = json.loads((FIXTURE / "expected.json").read_text(encoding="utf-8"))
    schemas = sorted(
        decode_segment(path.read_bytes()).header["schema"]
        for path in (root / "segments").glob("*" + SEGMENT_SUFFIX)
    )
    assert schemas == [3, 3, 4, 4]
    (pending,) = SnapshotStore(root, mode="readonly").pending_cleanings()
    assert pending["schema"] == 2 and pending["changes"]

    service = TopKService(store_dir=root)  # replays the pending record
    store = service.store
    assert store.recovery.quarantined == ()
    assert store.pending_cleanings() == []
    outcome = service.pool.database(pending["outcome"])
    assert outcome.content_hash() == pending["outcome_hash"]
    report = store.verify()
    assert report["failed"] == []
    assert report["verified"] == sorted(expected)
    assert list((root / "quarantine").iterdir()) == []
    # The replayed outcome's base is live, so it is written as a delta:
    # the schema-4 segments are read, never rewritten.
    assert sorted(
        decode_segment(path.read_bytes()).header["schema"]
        for path in (root / "segments").glob("*" + SEGMENT_SUFFIX)
    ) == [3, 3, 3, 4, 4]

    for snapshot_id, answers in sorted(expected.items()):
        query = service.query(snapshot_id, QuerySpec(k=5)).payload
        quality = service.quality(snapshot_id, QualitySpec(k=5)).payload
        assert_close(query, answers["query"], f"{snapshot_id} query")
        assert_close(quality, answers["quality"], f"{snapshot_id} quality")
