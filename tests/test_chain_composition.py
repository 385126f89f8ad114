"""A delta chain is rebuilt in one derivation.

A delta segment's first use composes the change sets of its chain's
links, from the nearest view the handle holds (or the full segment) up
to the snapshot, a later entry for an x-tuple replacing an earlier one,
applies them in one splice and checks the snapshot's own content hash.
The links in between stay segments and are checked at their own first
use or by the scrub.  The splice of the composed set must be, bit for
bit, the splice of each link in turn; a bad link must still be refused
with its own reason when a snapshot above it is leased, unless the
composed view proves the snapshot's content by its hash.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pool import SessionPool, snapshot_id_of
from repro.cli import main
from repro.datasets.synthetic import generate_synthetic
from repro.db.database import CANONICAL_COLUMNS, RankedDatabase, change_set
from repro.db.ranking import by_value
from repro.exceptions import CorruptSnapshotError
from repro.store import SEGMENT_SUFFIX, SnapshotStore
from repro.store.format import DeltaLink, Segment, decode_segment, encode_segment
from repro.store.store import MAX_DELTA_DEPTH

from strategies import databases

ChangeSet = Dict[str, Optional[str]]


def composed(change_sets: List[ChangeSet]) -> ChangeSet:
    """The change sets in chain order, a later entry replacing an
    earlier one, as a chain's first use composes them."""
    changes: ChangeSet = {}
    for link in change_sets:
        changes.update(link)
    return changes


def assert_bitwise_equal(left: RankedDatabase, right: RankedDatabase) -> None:
    for name in CANONICAL_COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name
    db, other = left.db, right.db
    assert db.xids == other.xids
    assert db.tids.tolist() == other.tids.tolist()
    assert db.sizes.tolist() == other.sizes.tolist()
    for name in ("values", "probabilities"):
        a, b = getattr(db, name), getattr(other, name)
        assert a.dtype == b.dtype, name
        if a.dtype == object:
            assert [(type(x), x) for x in a] == [(type(x), x) for x in b], name
        else:
            assert a.tobytes() == b.tobytes(), name
    assert db.content_records() == other.content_records()
    assert db.content_hash() == other.content_hash()


@st.composite
def chains(draw) -> Tuple[RankedDatabase, List[ChangeSet]]:
    """A base view and up to :data:`MAX_DELTA_DEPTH` change sets, each
    applying to the view the ones before it derive.  A draw prefers
    x-tuples an earlier link collapsed, so a chain reveals an x-tuple
    again (to the one tuple it kept) or removes it after its reveal."""
    db = draw(
        st.one_of(
            st.builds(
                generate_synthetic,
                num_xtuples=st.integers(4, 40),
                seed=st.integers(0, 2**16),
                completion=st.sampled_from([1.0, 0.85]),
            ),
            databases(max_xtuples=8, values="float"),
            databases(max_xtuples=8, values="int"),
        )
    )
    view = RankedDatabase(db, by_value())
    view.db.content_hash()  # a store's full view has hashed
    start, change_sets = view, []
    revealed: List[str] = []
    for _ in range(draw(st.integers(1, MAX_DELTA_DEPTH))):
        present = view.xtuple_ids
        if not present:
            break
        changes: ChangeSet = {}
        for _ in range(draw(st.integers(1, 3))):
            again = [xid for xid in revealed if view.db.has_xtuple(xid)]
            xid = draw(st.sampled_from(again if again and draw(st.booleans()) else present))
            changes[xid] = draw(st.sampled_from([None, *view.db.tids_of(xid)]))
        revealed += [xid for xid, tid in changes.items() if tid is not None]
        change_sets.append(changes)
        view = view.with_change_set(changes)
    return start, change_sets


class TestComposition:
    @settings(max_examples=60, deadline=None)
    @given(chains())
    def test_one_splice_of_the_composed_set_is_the_chain(self, drawn):
        start, change_sets = drawn
        step = start
        for changes in change_sets:
            step = step.with_change_set(changes)
        assert_bitwise_equal(start.with_change_set(composed(change_sets)), step)

    def test_a_second_reveal_and_a_removal_after_a_reveal(self):
        start = generate_synthetic(num_xtuples=30, seed=4, completion=0.85).ranked()
        start.db.content_hash()
        a, b, c = [xt for xt in start.db.xtuples if len(xt.alternatives) > 1][:3]
        change_sets = [
            {a.xid: a.tids[1], b.xid: b.tids[0]},
            {a.xid: a.tids[1], c.xid: None},
            {b.xid: None},
        ]
        step = start
        for changes in change_sets:
            step = step.with_change_set(changes)
        assert composed(change_sets) == {
            a.xid: a.tids[1], b.xid: None, c.xid: None
        }
        assert_bitwise_equal(start.with_change_set(composed(change_sets)), step)
        assert not step.db.has_xtuple(b.xid)
        assert step.db.tids_of(a.xid) == [a.tids[1]]


def segment_path(root: Path, snapshot_id: str) -> Path:
    return root / "segments" / (snapshot_id + SEGMENT_SUFFIX)


def persisted_chain(root: Path, links: int) -> Tuple[List[str], List[RankedDatabase]]:
    """A full segment and ``links`` deltas above it, under their real
    snapshot ids: the first link removes an x-tuple, each later one
    collapses another."""
    store = SnapshotStore(root)
    views = [generate_synthetic(num_xtuples=20, seed=8, completion=0.85).ranked()]
    uncertain = [xt for xt in views[0].db.xtuples if len(xt.alternatives) > 1]
    for index in range(links):
        xt = uncertain[index]
        views.append(views[-1].with_change_set({xt.xid: None if index == 0 else xt.tids[0]}))
    ids: List[str] = []
    for index, view in enumerate(views):
        ids.append(snapshot_id_of(view.db))
        store.persist(
            ids[-1],
            view,
            base=ids[-2] if index else None,
            changes=change_set(views[index - 1].db, view.db) if index else None,
        )
    assert [decode_segment(segment_path(root, sid).read_bytes()).link is None
            for sid in ids] == [True] + [False] * links
    return ids, views


def reseal(root: Path, snapshot_id: str, link: DeltaLink, content_hash: str) -> None:
    """Write a delta segment whose CRCs and digest verify: an open
    indexes it, and only its first use can find it wrong."""
    segment_path(root, snapshot_id).write_bytes(
        encode_segment(
            snapshot_id=snapshot_id, content_hash=content_hash, columns={}, delta=link
        )
    )


def header(root: Path, snapshot_id: str) -> Segment:
    return decode_segment(segment_path(root, snapshot_id).read_bytes())


class TestABadMiddleLink:
    @pytest.mark.parametrize("missing", ["unknown", "removed below"])
    def test_a_change_set_its_base_lacks_is_refused_when_the_top_is_leased(
        self, tmp_path, missing
    ):
        root = tmp_path / "store"
        ids, views = persisted_chain(root, 3)
        full, below, middle, top = ids
        segment = header(root, middle)
        # "removed below": the link under it removed this x-tuple, so
        # the composed set applies to the full view, and only the top's
        # content hash tells.
        xid = "no-such-xtuple" if missing == "unknown" else next(
            iter(change_set(views[0].db, views[1].db))
        )
        tid = None if missing == "unknown" else views[0].db.tids_of(xid)[0]
        link = segment.link
        reseal(
            root,
            middle,
            DeltaLink(link.base, link.depth, {**link.changes, xid: tid}),
            segment.header["content_hash"],
        )

        pool = SessionPool(store=SnapshotStore(root))
        assert pool.store.recovery.quarantined == ()
        with pytest.raises(CorruptSnapshotError) as failure:
            with pool.lease(top):
                pass
        assert f"its base {middle!r} was quarantined" in str(failure.value)
        refused = pool.store._refused
        assert sorted(refused) == sorted([middle, top])
        assert f"its change set does not apply to base {below!r}" in refused[middle]
        assert sorted(os.listdir(root / "quarantine")) == sorted(
            sid + SEGMENT_SUFFIX for sid in (middle, top)
        )
        for sid in (full, below):
            with pool.lease(sid) as session:
                assert snapshot_id_of(session.ranked.db) == sid

    def test_a_resealed_middle_link_lets_the_top_be_served(self, tmp_path, capsys):
        root = tmp_path / "store"
        ids, views = persisted_chain(root, 3)
        full, below, middle, top = ids
        segment = header(root, middle)
        # Its change set is right; its header names another content.
        reseal(root, middle, segment.link, views[1].db.content_hash())

        pool = SessionPool(store=SnapshotStore(root))
        with pool.lease(top) as session:
            assert session.ranked.db.content_hash() == views[3].db.content_hash()
        assert isinstance(pool.store._index[middle], Segment)  # never rebuilt

        # The scrub, in another process's handle, reports the link the
        # served top never touched.
        out = tmp_path / "verify.json"
        assert main(["store", "verify", "--dir", str(root), "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["verified"] == sorted([full, below])
        failed = dict(report["failed"])
        assert sorted(failed) == sorted(sid + SEGMENT_SUFFIX for sid in (middle, top))
        assert failed[middle + SEGMENT_SUFFIX] == (
            f"segment corrupt: content hash of base {below!r} with the change "
            f"set does not match the header"
        )
        assert failed[top + SEGMENT_SUFFIX] == (
            f"segment corrupt: its base {middle!r} was quarantined"
        )
        assert "2 failed" in capsys.readouterr().out

        # Leasing the link refuses it with the same reason, and the top
        # with it.
        with pytest.raises(CorruptSnapshotError) as failure:
            with pool.lease(middle):
                pass
        assert failed[middle + SEGMENT_SUFFIX] in str(failure.value)
        assert pool.store._refused[top] == failed[top + SEGMENT_SUFFIX]
        assert sorted(os.listdir(root / "quarantine")) == sorted(
            sid + SEGMENT_SUFFIX for sid in (middle, top)
        )
