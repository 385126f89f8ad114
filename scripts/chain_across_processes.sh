#!/usr/bin/env sh
# A delta chain built across processes, then read back in fresh ones.
#
# Twelve chained durable cleans (`repro clean --execute --store S
# --output d<i+1>.json`), each on the previous one's output, over a
# 300-x-tuple synthetic database (k = 20, budget 10): every command
# registers its input, whose stored copy a fresh process rebuilds by
# composing its delta chain, and extends the chain by one link (every
# ninth link is a full segment).  Then a fresh `repro query --db
# d12.json --store S` must answer as the storeless query does, within
# 1e-9, and `repro store verify` must rebuild every snapshot with none
# failed.  Needs `repro` importable (installed, or PYTHONPATH=src).
# CI's fault-smoke job and scripts/check.sh run it.
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

python -m repro generate synthetic -o "$dir/d0.json" --xtuples 300 --seed 1 >/dev/null
i=0
while [ "$i" -lt 12 ]; do
    python -m repro clean --db "$dir/d$i.json" -k 20 --budget 10 --execute \
        --execute-seed "$((i + 1))" --store "$dir/S" --output "$dir/d$((i + 1)).json" >/dev/null
    i=$((i + 1))
done
python -m repro store --dir "$dir/S" --json "$dir/status.json" >/dev/null
python -c '
import json, sys
s = json.load(open(sys.argv[1]))["status"]
assert s["quarantined_files"] == [] and s["pending_cleanings"] == [], s
assert (s["full_segments"], s["delta_segments"]) == (2, 9), s
' "$dir/status.json"

python -m repro query --db "$dir/d12.json" -k 20 --store "$dir/S" --json "$dir/stored.json" >/dev/null
python -m repro query --db "$dir/d12.json" -k 20 --json "$dir/plain.json" >/dev/null
python -c '
import json, math, sys

def close(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-9)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[key], b[key]) for key in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(close, a, b))
    return a == b

stored, plain = (json.load(open(path))["result"]["payload"] for path in sys.argv[1:])
assert close(stored, plain), (stored, plain)
' "$dir/stored.json" "$dir/plain.json"

python -m repro store verify --dir "$dir/S" --json "$dir/verify.json"
python -c '
import json, sys
report = json.load(open(sys.argv[1]))
assert report["failed"] == [] and len(report["verified"]) == 11, report
' "$dir/verify.json"
