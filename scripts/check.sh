#!/usr/bin/env sh
# Single entry point for everything CI gates on: repro-lint, ruff,
# mypy, the tier-1 test suite (its scalar-oracle, delta-vs-cold and
# batch-vs-independent checks included), fault-smoke's gates beyond
# tier-1 (the store state machine on its larger profile, a committed
# schema-1 store opened through the CLI, an env-armed crash recovered
# through the CLI, and the concurrent-writer chaos run), and the
# perfbench smoke (its own tests plus a tiny run of each workload, and
# the PSR kernel sweep at a quick size).  `make check` calls this.
#
# repro-lint and pytest always run (they ship with the repo).  ruff
# and mypy run when installed and are reported as SKIPPED otherwise,
# so the script is useful both in CI (all tools present) and in a
# minimal dev environment -- a skip is loud, never silent.
set -u

fail=0

step() {
    name=$1
    shift
    echo "==> $name"
    if "$@"; then
        echo "==> $name: ok"
    else
        echo "==> $name: FAILED"
        fail=1
    fi
    echo
}

step "repro-lint" python -m repro.tooling.lint src

if command -v ruff >/dev/null 2>&1; then
    step "ruff" ruff check src tests benchmarks
else
    echo "==> ruff: SKIPPED (not installed; pip install -e '.[lint]')"
    echo
fi

if command -v mypy >/dev/null 2>&1; then
    step "mypy" mypy --strict src/repro
else
    echo "==> mypy: SKIPPED (not installed; pip install -e '.[typecheck]')"
    echo
fi

step "pytest" python -m pytest -q

# A committed schema-1 store through the CLI, as CI's fault-smoke job
# runs it: nothing quarantined, one journaled cleaning pending, and
# `repro store verify` (a rebuild of every snapshot) finds nothing;
# nor does it in copies of the committed schema-2 and schema-4 stores.  The crash
# and chaos stores below end with the same scrub.
fixture_status() {
    dir=$(mktemp -d)
    cp -r tests/fixtures/replay_stores/syn60-greedy "$dir/store" &&
        python -m repro store --dir "$dir/store" --json "$dir/status.json" &&
        python -c 'import json, sys; s = json.load(open(sys.argv[1]))["status"]; assert s["quarantined_files"] == [] and len(s["pending_cleanings"]) == 1, s' "$dir/status.json" &&
        python -m repro store verify --dir "$dir/store" &&
        cp -r tests/fixtures/schema2_store/store "$dir/schema2" &&
        python -m repro store verify --dir "$dir/schema2" &&
        cp -r tests/fixtures/schema4_store/store "$dir/schema4" &&
        python -m repro store verify --dir "$dir/schema4"
    status=$?
    rm -rf "$dir"
    return $status
}
step "schema-1 store opens through the CLI" fixture_status

step "store state machine (store-model profile)" \
    python -m pytest -x -q tests/test_store_model.py --hypothesis-profile store-model

# CI fault-smoke's env-armed crash: the durable clean "crashes" after
# the journal append, status shows the pending record, and the next
# durable command replays it as one delta segment on the full base.
crash_recovery() (
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    python -m repro generate synthetic -o "$dir/db.json" --xtuples 60 --seed 1 &&
        {
            ! REPRO_FAULTS='{"events": [{"kind": "crash", "step": "segment:begin", "skip": 1}]}' \
                python -m repro clean --db "$dir/db.json" --budget 40 -k 5 --execute --store "$dir/store" ||
                { echo "expected the injected crash to fail the clean"; false; }
        } &&
        python -m repro store --dir "$dir/store" &&
        python -m repro query --db "$dir/db.json" -k 5 --store "$dir/store" &&
        python -m repro store --dir "$dir/store" --json "$dir/status.json" &&
        python -c 'import json, sys; s = json.load(open(sys.argv[1]))["status"]; assert len(s["snapshots"]) == 2 and s["pending_cleanings"] == [], s; assert (s["full_segments"], s["delta_segments"]) == (1, 1), s' "$dir/status.json" &&
        python -m repro store verify --dir "$dir/store"
)
step "env-armed crash of a durable clean, then CLI recovery" crash_recovery

# CI fault-smoke's concurrent-writer chaos: five interpreters clean one
# store root, the first with an env-armed crash, under a checkpoint
# threshold of 3; a fresh reopen must converge with no quarantine, an
# empty journal after compaction, and the base plus 5 outcomes.
writer_chaos() (
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
    run_writer() {
        python -m repro clean --db "$dir/db.json" --budget 40 -k 5 \
            --execute --execute-seed "$1" --store "$dir/store" || true
    }
    python -m repro generate synthetic -o "$dir/db.json" --xtuples 60 --seed 1 || exit 1
    export REPRO_JOURNAL_MAX_RECORDS=3
    REPRO_FAULTS='{"events": [{"kind": "crash", "step": "segment:begin", "skip": 1}]}' \
        run_writer 11 &
    for seed in 12 13 14 15; do run_writer "$seed"; done
    wait
    unset REPRO_JOURNAL_MAX_RECORDS
    python -m repro clean --db "$dir/db.json" --budget 40 -k 5 \
        --execute --execute-seed 11 --store "$dir/store" &&
        python -m repro store compact --dir "$dir/store" &&
        python -m repro store --dir "$dir/store" --json "$dir/status.json" &&
        python -c '
import json, sys
s = json.load(open(sys.argv[1]))["status"]
assert s["quarantined_files"] == [], s
assert s["pending_cleanings"] == [], s
assert s["journal_records"] == 0, s
assert len(s["snapshots"]) == 6, s  # base + 5 distinct outcomes
' "$dir/status.json" &&
        python -m repro store verify --dir "$dir/store"
)
step "concurrent-writer chaos + compaction bound" writer_chaos

step "perfbench tests" python -m pytest -q perfbench/tests
for workload in serve-scan clean-durable store-reopen; do
    step "perfbench $workload (tiny)" \
        python3 perfbench/run.py --workload "$workload" --size tiny --seconds 2
done
step "PSR kernel sweep (quick)" \
    python scripts/psr_sweep.py --sizes 2000 --repeats 1

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED"
else
    echo "check: all gates passed"
fi
exit "$fail"
