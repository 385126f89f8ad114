"""Cost contracts: how a path's work grows with the data it serves.

Each row of :data:`CONTRACTS` names a path, two sizes at least 6x
apart, a bound, and the claim the bound checks.  A path's work is the
number of ``call`` and ``c_call`` events :func:`sys.setprofile` sees
while it runs: a Python function call, or a C function called from
Python code, each count one.  C code calling C code counts nothing, so
a ``map`` over a C callable is one event however long its input,
while a list comprehension that calls a C method per item is one
event per item.  The bound is on the ratio of the two counts, not on
either count, so it holds across Python versions whose absolute
counts differ.
"""

from __future__ import annotations

import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import pytest

from conftest import open_service
from repro.api.pool import snapshot_id_of
from repro.api.specs import QuerySpec
from repro.datasets.synthetic import generate_synthetic
from repro.store import SEGMENT_SUFFIX, SnapshotStore

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
    store = SnapshotStore(root, durability="none")
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


@dataclass(frozen=True)
class Contract:
    path: str
    sizes: Tuple[int, int]
    bound: float
    claim: str
    measure: Callable[[Path, int], int]


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
)


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.path)
def test_work_grows_within_its_bound(contract, tmp_path):
    small, large = contract.sizes
    assert large >= 6 * small
    counts = [contract.measure(tmp_path, size) for size in contract.sizes]
    ratio = counts[1] / counts[0]
    assert ratio <= contract.bound, (
        f"{contract.path}: {counts[0]} events at {small}, {counts[1]} at "
        f"{large} (x{ratio:.2f} > x{contract.bound}); the claim: {contract.claim}"
    )
