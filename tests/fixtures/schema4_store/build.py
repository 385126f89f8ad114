"""Build the schema-4 snapshot store in this directory.

``store/`` holds full segments in the schema-4 layout (the structure
as typed columns: ``xids`` and ``tids`` JSON tables, u32 ``sizes``,
float64-or-JSON ``values`` and ``probabilities``, then the five ranked
columns) as the code before schema 5 wrote them, delta segments
(schema 3) and a schema-2 journal:

* base ``A``, 60 x-tuples of complete synthetic data, and base ``B``,
  30 x-tuples of incomplete synthetic data: two full segments, so one
  pass over the store rebuilds two schema-4 segments;
* two durable cleans, one of ``A`` and one of that outcome: two delta
  segments, the second two links above ``A``;
* a durable clean of ``A`` that crashed at ``segment:begin`` (an armed
  ``REPRO_FAULTS`` plan): its journal record, with its change set, is
  pending and replays at the next open.

``expected.json`` holds, per snapshot the store serves after that
replay, the k = 5 query answers (every semantics) and the k = 5
quality, as the building code computed them on a copy of the store.
``tests/test_schema4_store.py`` opens a copy with the current code and
checks that nothing is quarantined, the pending record replays,
``verify()`` finds nothing and the answers agree within 1e-9.

The committed store was built by commit f0f9606, the last one that
wrote schema-4 segments.  Rebuild it only on purpose::

    PYTHONPATH=<src of f0f9606> python build.py OUTDIR

Every step runs in a fresh interpreter so the fault plan arms only the
crashed clean.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_STEP = """
import json, sys
from repro.api import CleaningSpec, TopKService
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import SimulatedCrashError

store, action, argument = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
service = TopKService(store_dir=store)
if action == "register":
    db = generate_synthetic(**argument)
    print(service.register(db).snapshot_id)
else:
    snapshot_id, fields = argument
    try:
        result = service.clean(snapshot_id, CleaningSpec(**fields))
    except SimulatedCrashError:
        print("crashed")
        sys.exit(0)
    if action == "crash":
        sys.exit("the armed crash did not fire")
    outcome = result.payload["new_snapshot_id"]
    if outcome == snapshot_id:
        sys.exit("the clean changed nothing")
    print(outcome)
"""

_ANSWERS = """
import json, sys
from repro.api import QualitySpec, QuerySpec, TopKService

service = TopKService(store_dir=sys.argv[1])
assert service.store.pending_cleanings() == []
answers = {}
for snapshot_id in sorted(service.store.snapshots()):
    answers[snapshot_id] = {
        "query": service.query(snapshot_id, QuerySpec(k=5)).payload,
        "quality": service.quality(snapshot_id, QualitySpec(k=5)).payload,
    }
print(json.dumps(answers))
"""

_CRASH = {"events": [{"kind": "crash", "step": "segment:begin"}]}


def _run(code: str, *args: str, faults: object = None) -> str:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return done.stdout.strip()


def _step(store: Path, action: str, argument: object, faults: object = None) -> str:
    return _run(_STEP, str(store), action, json.dumps(argument), faults=faults)


def _schemas(store: Path) -> dict:
    from repro.store.format import decode_segment

    return {
        path.name: decode_segment(path.read_bytes()).header["schema"]
        for path in sorted((store / "segments").glob("*.seg"))
    }


def build(out: Path) -> None:
    store = out / "store"
    if store.exists():
        shutil.rmtree(store)
    base_a = _step(store, "register", {"num_xtuples": 60, "seed": 7})
    outcome_1 = _step(store, "clean", [base_a, {"k": 5, "budget": 10, "seed": 1}])
    outcome_2 = _step(
        store,
        "clean",
        [outcome_1, {"k": 5, "budget": 10, "adaptive": True, "seed": 4}],
    )
    base_b = _step(
        store, "register", {"num_xtuples": 30, "seed": 8, "completion": 0.85}
    )
    crashed = _step(
        store,
        "crash",
        [base_a, {"k": 5, "budget": 40, "planner": "dp", "seed": 3}],
        faults=_CRASH,
    )
    assert crashed == "crashed", crashed
    # Only what a store holds: the lock file and the empty quarantine
    # are recreated by the next open.
    (store / "store.lock").unlink()
    (store / "quarantine").rmdir()
    schemas = _schemas(store)
    assert sorted(schemas.values()) == [3, 3, 4, 4], schemas
    assert schemas[base_a + ".seg"] == schemas[base_b + ".seg"] == 4, schemas
    assert schemas[outcome_2 + ".seg"] == 3, schemas

    with tempfile.TemporaryDirectory() as work:
        copy = Path(work) / "store"
        shutil.copytree(store, copy)
        answers = json.loads(_run(_ANSWERS, str(copy)))
    assert len(answers) == 5, sorted(answers)
    (out / "expected.json").write_text(
        json.dumps(answers, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    build(Path(sys.argv[1]))
