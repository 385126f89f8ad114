#!/usr/bin/env sh
# Single entry point for everything CI gates on: repro-lint, ruff,
# mypy, the tier-1 test suite (its scalar-oracle, delta-vs-cold and
# batch-vs-independent checks included), a committed schema-1 store
# opened through the CLI, and the perfbench smoke (its own tests plus
# a tiny run of each workload).  `make check` calls this.
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
# runs it: nothing quarantined, one journaled cleaning pending.
fixture_status() {
    dir=$(mktemp -d)
    cp -r tests/fixtures/replay_stores/syn60-greedy "$dir/store" &&
        python -m repro store --dir "$dir/store" --json "$dir/status.json" &&
        python -c 'import json, sys; s = json.load(open(sys.argv[1]))["status"]; assert s["quarantined_files"] == [] and len(s["pending_cleanings"]) == 1, s' "$dir/status.json"
    status=$?
    rm -rf "$dir"
    return $status
}
step "schema-1 store opens through the CLI" fixture_status

step "perfbench tests" python -m pytest -q perfbench/tests
for workload in serve-scan clean-durable store-reopen; do
    step "perfbench $workload (tiny)" \
        python3 perfbench/run.py --workload "$workload" --size tiny --seconds 2
done

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED"
else
    echo "check: all gates passed"
fi
exit "$fail"
