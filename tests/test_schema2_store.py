"""A store written in the schema-2 layout still opens, replays and answers.

``tests/fixtures/schema2_store/store`` was written by the code that
last wrote schema-2 full segments (see ``build.py`` there): two full
segments, two delta segments above one of them, and a journaled clean
whose segment never committed.  ``expected.json`` holds every
snapshot's k = 5 answers and quality as that code computed them.
"""

import json
import math
import shutil
from pathlib import Path
from typing import Any

from repro.api import QualitySpec, QuerySpec, TopKService
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import decode_segment

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "schema2_store"


def assert_close(actual: Any, expected: Any, where: str = "") -> None:
    """Equal JSON, with every float within 1e-9 of its counterpart."""
    if isinstance(expected, float):
        assert isinstance(actual, (int, float)), where
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=1e-9), where
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{index}]")
    else:
        assert actual == expected, where


def test_schema_2_store_opens_replays_and_answers_as_written(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURE / "store", root)
    expected = json.loads((FIXTURE / "expected.json").read_text(encoding="utf-8"))
    schemas = sorted(
        decode_segment(path.read_bytes()).header["schema"]
        for path in (root / "segments").glob("*" + SEGMENT_SUFFIX)
    )
    assert schemas == [2, 2, 3, 3]
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

    for snapshot_id, answers in sorted(expected.items()):
        query = service.query(snapshot_id, QuerySpec(k=5)).payload
        quality = service.quality(snapshot_id, QualitySpec(k=5)).payload
        assert_close(query, answers["query"], f"{snapshot_id} query")
        assert_close(quality, answers["quality"], f"{snapshot_id} quality")
