"""Build the crash-pending snapshot stores in this directory.

Each store holds one registered base snapshot and one journaled
cleaning whose outcome segment never committed: the cleaning process
died at an armed ``REPRO_FAULTS`` crash at ``segment:begin``, the way
the CI fault-smoke job crashes a durable clean.  Opening such a store
replays the record by re-executing its ``CleaningSpec``, and the
replay must regenerate the journaled outcome hash.

The committed stores were built by the code that preceded the
division-free numpy block kernel (with its division-based kernel), so
``tests/test_replay_fixtures.py`` checks that journaled cleanings
still replay after a kernel change.  Rebuild them only on purpose::

    PYTHONPATH=<src of the building commit> python build.py OUTDIR

Every step runs in a fresh interpreter so the fault plan arms only the
cleaning process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

#: store name -> (database, CleaningSpec fields)
CASES = {
    "udb1-greedy": ("udb1", {"k": 2, "budget": 10, "seed": 1}),
    "udb1-adaptive": ("udb1", {"k": 2, "budget": 10, "adaptive": True, "seed": 4}),
    "udb1-dp": ("udb1", {"k": 2, "budget": 10, "planner": "dp", "seed": 3}),
    "udb2-greedy": ("udb2", {"k": 2, "budget": 10, "seed": 1}),
    "udb2-adaptive": ("udb2", {"k": 2, "budget": 10, "adaptive": True, "seed": 4}),
    "udb2-dp": ("udb2", {"k": 2, "budget": 10, "planner": "dp", "seed": 3}),
    "syn60-greedy": ("syn60", {"k": 5, "budget": 40, "seed": 1}),
    "syn60-adaptive": ("syn60", {"k": 5, "budget": 40, "adaptive": True, "seed": 4}),
    "syn60-dp": ("syn60", {"k": 5, "budget": 40, "planner": "dp", "seed": 3}),
}

_STEP = """
import json, sys
from repro.api import CleaningSpec, TopKService
from repro.datasets.paper import udb1, udb2
from repro.datasets.synthetic import generate_synthetic
from repro.exceptions import SimulatedCrashError

store, name, fields = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
databases = {
    "udb1": udb1,
    "udb2": udb2,
    "syn60": lambda: generate_synthetic(num_xtuples=60, seed=1),
}
service = TopKService(store_dir=store)
base = service.register(databases[name]()).snapshot_id
if fields is not None:
    try:
        service.clean(base, CleaningSpec(**fields))
    except SimulatedCrashError:
        sys.exit(0)
    sys.exit("the armed crash did not fire")
"""

_CRASH = {"events": [{"kind": "crash", "step": "segment:begin"}]}


def _step(store: Path, name: str, fields: object, faults: object) -> None:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    subprocess.run(
        [sys.executable, "-c", _STEP, str(store), name, json.dumps(fields)],
        env=env,
        check=True,
    )


def build(out: Path) -> None:
    for store_name, (db_name, fields) in CASES.items():
        store = out / store_name
        if store.exists():
            shutil.rmtree(store)
        _step(store, db_name, None, None)  # register the base
        _step(store, db_name, fields, _CRASH)  # crash the clean


if __name__ == "__main__":
    build(Path(sys.argv[1]))
