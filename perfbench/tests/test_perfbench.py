"""The benchmark's own tests: tiny-size runs of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, benchmark_json_entries  # noqa: E402

WORKLOADS = ("serve-scan", "clean-durable", "store-reopen")

#: Per-class metrics each workload's report must carry.
REPORTED = {
    "serve-scan": ("read_cold_ms.p50", "read_warm_ms.p50", "batch_ms.p50",
                   "register_ms.p50"),
    "clean-durable": ("clean_ms.p50", "plan_ms.p50", "register_ms.p50",
                      "space_amp"),
    "store-reopen": ("open_ms.p50", "first_answer_ms.p50"),
}


def run(
    workload: str, *extra: str, tmp: Path
) -> Tuple[int, str, Dict[str, Any]]:
    report = tmp / f"{workload}.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "5", "--size", "tiny",
         "--report", str(report), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    full = json.loads(report.read_text()) if report.exists() else {}
    return proc.returncode, proc.stdout, full


def last_json(stdout: str) -> Dict[str, Any]:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload: str, tmp_path: Path) -> None:
    code, stdout, report = run(workload, "--trace", "0", tmp=tmp_path)
    result = last_json(stdout)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END[name][0]
        assert metric["value"] > 0
    shown = report["report_metrics"]
    assert shown["failed_frac"] == {"value": 0.0, "unit": "failed/attempted"}
    for name in REPORTED[workload]:
        assert name in shown and shown[name]["unit"] in ("ms", "ratio"), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload: str, tmp_path: Path) -> None:
    code, stdout, report = run(workload, "--trace", "1", tmp=tmp_path)
    result = last_json(stdout)
    assert code == 0, stdout
    assert list(result["metrics"]) == list(PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[name][0]
    assert "tracing overhead" in stdout
    for row in report["attribution"].values():
        assert row["samples"] >= 1 and "unattributed" in row


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails_the_run(workload: str, tmp_path: Path) -> None:
    code, stdout, report = run(workload, "--trace", "0", "--corrupt", tmp=tmp_path)
    result = last_json(stdout)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert report["failures"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(workload: str, tmp_path: Path) -> None:
    counts: List[Dict[str, Any]] = []
    for attempt in range(2):
        directory = tmp_path / str(attempt)
        directory.mkdir()
        code, stdout, report = run(workload, "--trace", "1", tmp=directory)
        assert code == 0, stdout
        counts.append(report["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["psr.passes"] + counts[0]["store.writes"] > 0


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_registry() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = benchmark_json_entries()
    assert declared["end_to_end"] == entries["end_to_end"]
    assert declared["per_layer"] == entries["per_layer"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["perfbench"]
    assert max(e["bound"] for e in declared["end_to_end"]) == END_TO_END["setup_s"][2]
