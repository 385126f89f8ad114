"""Does a durable clean get slower as the store's journal grows?

Runs 480 durable cleans on one store with the default settings: no
checkpoint threshold, so the journal keeps every record, and no
retention policy.  The cleans run in 40 chains of 12, each chain on a
fresh complete 3k-tuple base (300 x-tuples, registered durably first).
Prints the median wall time of the first 40 and the last 40 cleans,
the journal's record count and size at the end, and the journal bytes
the store decoded per clean, first 40 and last 40.

A clean that costs its change keeps both medians and both decode
figures flat however long the journal gets.  It measures wall-clock
time, so it is not a test; run it twice and compare, on an idle
machine:

    PYTHONPATH=src python scripts/journal_growth.py
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.store.store as store_module  # noqa: E402
from repro.api import CleaningSpec, TopKService  # noqa: E402
from repro.datasets.synthetic import generate_synthetic  # noqa: E402

BASES = 40
CLEANS_PER_BASE = 12
XTUPLES = 300
WINDOW = 40


def main() -> None:
    # The default store settings, whatever the environment says.
    os.environ.pop(store_module.JOURNAL_MAX_RECORDS_ENV, None)
    decoded = [0]
    decode = store_module.decode_journal

    def counting(data: bytes):
        decoded[0] += len(data)
        return decode(data)

    store_module.decode_journal = counting
    times: List[float] = []
    decodes: List[int] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        service = TopKService(store_dir=root)
        for base in range(BASES):
            db = generate_synthetic(num_xtuples=XTUPLES, seed=1000 + base)
            sid = service.register(db).snapshot_id
            for step in range(CLEANS_PER_BASE):
                spec = CleaningSpec(
                    k=100,
                    budget=20,
                    seed=base * CLEANS_PER_BASE + step,
                    cost_seed=base,
                    sc_seed=step,
                )
                decoded[0] = 0
                start = time.perf_counter()
                result = service.clean(sid, spec)
                times.append((time.perf_counter() - start) * 1000.0)
                decodes.append(decoded[0])
                sid = result.payload["new_snapshot_id"]
        store = service.store
        assert store is not None
        records = len(store.journal_records())
        journal_bytes = (root / store_module.JOURNAL_NAME).stat().st_size
    store_module.decode_journal = decode

    print(f"durable cleans: {len(times)} ({BASES} bases x {CLEANS_PER_BASE})")
    print(
        f"median clean ms: first {WINDOW} {statistics.median(times[:WINDOW]):.2f}, "
        f"last {WINDOW} {statistics.median(times[-WINDOW:]):.2f}"
    )
    print(f"journal at the end: {records} records, {journal_bytes} bytes")
    print(
        f"journal bytes decoded per clean: first {WINDOW} "
        f"{statistics.mean(decodes[:WINDOW]):.0f}, "
        f"last {WINDOW} {statistics.mean(decodes[-WINDOW:]):.0f}"
    )


if __name__ == "__main__":
    main()
