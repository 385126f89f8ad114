"""``repro-lint``: one known-good / known-bad fixture per rule.

Each rule is exercised against a minimal module written into a temp
tree that mirrors the real ``src/repro/...`` layout (the rules are
path-scoped, so layout *is* input).  The suite ends with the
self-check the PR's contract demands: ``repro-lint`` over the real
``src/`` reports zero findings at HEAD.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path


from repro.tooling.lint import RULES, Finding, LintReport, lint_paths, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(tmp_path: Path, relpath: str, code: str) -> LintReport:
    """Write ``code`` at ``relpath`` under a temp root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code), encoding="utf-8")
    return lint_paths([relpath], root=tmp_path)


def codes(report: LintReport) -> list:
    return [f.code for f in report.findings]


# ---------------------------------------------------------------------------
# REP001 unseeded-rng
# ---------------------------------------------------------------------------


class TestUnseededRNG:
    def test_flags_module_level_random(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            import random
            v = random.random()
            """,
        )
        assert codes(report) == ["REP001"]

    def test_flags_unseeded_constructors(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            import random
            import numpy as np
            a = random.Random()
            b = np.random.default_rng()
            """,
        )
        assert codes(report) == ["REP001", "REP001"]

    def test_flags_legacy_numpy_global_state(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            import numpy as np
            v = np.random.rand(3)
            """,
        )
        assert codes(report) == ["REP001"]

    def test_flags_from_random_import_function(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            from random import randint
            """,
        )
        assert codes(report) == ["REP001"]

    def test_seeded_rng_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            import random
            import numpy as np
            from random import Random
            a = random.Random(7)
            b = np.random.default_rng(123)
            c = Random(seed := 5)
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP002 untracked-shared-memory
# ---------------------------------------------------------------------------


SHM_CREATE = """
from multiprocessing.shared_memory import SharedMemory
seg = SharedMemory(name="repro_x", create=True, size=64)
"""


class TestUntrackedSharedMemory:
    def test_flags_create_outside_parallel(self, tmp_path):
        report = lint_source(tmp_path, "src/repro/queries/x.py", SHM_CREATE)
        assert codes(report) == ["REP002"]

    def test_no_module_is_exempt(self, tmp_path):
        report = lint_source(
            tmp_path, "src/repro/core/parallel.py", SHM_CREATE
        )
        assert codes(report) == ["REP002"]

    def test_attach_existing_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            from multiprocessing.shared_memory import SharedMemory
            seg = SharedMemory(name="repro_x")
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP003 wall-clock-in-kernel
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_flags_time_time_in_kernel(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            import time
            t = time.time()
            """,
        )
        assert codes(report) == ["REP003"]

    def test_flags_datetime_now(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            import datetime
            t = datetime.datetime.now()
            """,
        )
        assert codes(report) == ["REP003"]

    def test_monotonic_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            import time
            t0 = time.monotonic()
            t1 = time.perf_counter()
            """,
        )
        assert codes(report) == []

    def test_service_layer_out_of_scope(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            import time
            t = time.time()
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP004 float-equality
# ---------------------------------------------------------------------------


class TestFloatEquality:
    def test_flags_float_literal_equality(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            def f(x):
                return x == 0.0 or x != -1.5
            """,
        )
        assert codes(report) == ["REP004", "REP004"]

    def test_ordered_and_int_comparisons_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            def f(x, tol=1e-9):
                return x <= 0.0 or abs(x - 1.5) < tol or x == 0
            """,
        )
        assert codes(report) == []

    def test_out_of_scope_elsewhere(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/datasets/x.py",
            """
            def f(x):
                return x == 0.0
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP005 unfrozen-api-spec
# ---------------------------------------------------------------------------


class TestFrozenApiSpecs:
    def test_flags_unfrozen_dataclass(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            from dataclasses import dataclass

            @dataclass
            class Spec:
                k: int = 1
            """,
        )
        assert codes(report) == ["REP005"]

    def test_flags_type_tagged_spec_without_round_trip(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Spec:
                TYPE = "query"
                k: int = 1
            """,
        )
        assert codes(report) == ["REP005"]
        assert "to_dict" in report.findings[0].message

    def test_frozen_round_tripping_spec_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Spec:
                TYPE = "query"
                k: int = 1

                def to_dict(self):
                    return {"k": self.k}

                @classmethod
                def from_dict(cls, payload):
                    return cls(**payload)
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP006 swallowed-base-exception
# ---------------------------------------------------------------------------


class TestExceptionHygiene:
    def test_flags_bare_except(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert codes(report) == ["REP006"]

    def test_flags_swallowed_base_exception(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            try:
                pass
            except BaseException:
                cleanup = True
            """,
        )
        assert codes(report) == ["REP006"]

    def test_reraising_base_exception_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            try:
                pass
            except ValueError:
                pass
            try:
                pass
            except BaseException:
                cleanup = True
                raise
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP007 undeclared-counter
# ---------------------------------------------------------------------------


class TestCounterRegistry:
    def test_flags_undeclared_counter(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            class S:
                def __init__(self):
                    self.psr_bogus = 0

                def bump(self):
                    self.psr_bogus += 1
            """,
        )
        assert codes(report) == ["REP007", "REP007"]

    def test_registered_counters_are_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            class S:
                def __init__(self):
                    self.psr_hits = 0
                    self.psr_misses = 0

                def bump(self):
                    self.psr_hits += 1
            """,
        )
        assert codes(report) == []

    def test_store_counters_are_declared(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/store/x.py",
            """
            class S:
                def __init__(self):
                    self.psr_store_writes = 0
                    self.psr_store_replays = 0
                    self.psr_store_quarantined = 0
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP008 print-in-library
# ---------------------------------------------------------------------------


class TestPrintInLibrary:
    def test_flags_print(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            print("debugging")
            """,
        )
        assert codes(report) == ["REP008"]


# ---------------------------------------------------------------------------
# REP009 layering-violation
# ---------------------------------------------------------------------------


class TestLayering:
    def test_db_must_not_import_upward(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            from repro.queries.engine import QuerySession
            """,
        )
        assert codes(report) == ["REP009"]

    def test_lower_layer_must_not_import_api(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            from repro.api.service import TopKService
            """,
        )
        assert codes(report) == ["REP009"]

    def test_library_must_not_import_tooling(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            from repro.tooling import lint
            """,
        )
        assert codes(report) == ["REP009"]

    def test_function_level_import_is_sanctioned(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            def lazy():
                from repro.queries.engine import QuerySession

                return QuerySession
            """,
        )
        assert codes(report) == []

    def test_cli_may_import_api(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/cli.py",
            """
            from repro.api.service import TopKService
            """,
        )
        assert codes(report) == []

    def test_store_must_not_import_api(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/store/x.py",
            """
            from repro.api.pool import SessionPool
            """,
        )
        # Flagged both as an out-of-layer store import and as a
        # non-sanctioned importer of the service façade.
        assert "REP009" in codes(report)

    def test_db_must_not_import_store(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            from repro.store import SnapshotStore
            """,
        )
        assert codes(report) == ["REP009", "REP009"]

    def test_store_may_import_db_and_faults(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/store/x.py",
            """
            from repro.db.database import ProbabilisticDatabase
            from repro.exceptions import CorruptSnapshotError
            from repro.testing.faults import FaultPlan
            from repro.core.lockcheck import OrderedLock
            """,
        )
        assert codes(report) == []

    def test_api_may_import_store(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            from repro.store import SnapshotStore
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP010 mutable-default-argument
# ---------------------------------------------------------------------------


class TestMutableDefaults:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            def f(xs=[], *, seen=set(), table={}):
                return xs, seen, table
            """,
        )
        assert codes(report) == ["REP010", "REP010", "REP010"]

    def test_none_default_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            def f(xs=None, count=0, name="x"):
                return xs, count, name
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# REP011 unscoped-file-write
# ---------------------------------------------------------------------------


class TestScopedWrites:
    def test_flags_write_mode_open_outside_store(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            def dump(path, text):
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            """,
        )
        assert codes(report) == ["REP011"]

    def test_flags_append_and_keyword_mode(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            def log(path):
                open(path, mode="ab").close()
            """,
        )
        assert codes(report) == ["REP011"]

    def test_flags_path_open_plus_mode(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            def touch(path):
                with path.open("r+b") as f:
                    f.truncate()
            """,
        )
        assert codes(report) == ["REP011"]

    def test_flags_os_open_write_flags(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            import os

            def raw(path):
                return os.open(path, os.O_WRONLY | os.O_CREAT)
            """,
        )
        assert codes(report) == ["REP011", "REP011"]

    def test_reads_are_clean_everywhere(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            import os

            def slurp(path):
                with open(path, "r", encoding="utf-8") as f:
                    data = f.read()
                fd = os.open(path, os.O_RDONLY)
                os.close(fd)
                return data
            """,
        )
        assert codes(report) == []

    def test_store_and_io_and_cli_are_sanctioned(self, tmp_path):
        code = """
            def persist(path, data):
                with open(path, "wb") as f:
                    f.write(data)
            """
        for relpath in (
            "src/repro/store/x.py",
            "src/repro/db/io.py",
            "src/repro/cli.py",
        ):
            report = lint_source(tmp_path, relpath, code)
            assert codes(report) == [], relpath


# ---------------------------------------------------------------------------
# REP012 unscoped-file-locking
# ---------------------------------------------------------------------------


class TestScopedLocking:
    def test_flags_fcntl_import_and_call_outside_store(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/api/x.py",
            """
            import fcntl

            def grab(fd):
                fcntl.flock(fd, fcntl.LOCK_EX)
            """,
        )
        assert codes(report) == ["REP012", "REP012", "REP012"]

    def test_flags_from_import(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/queries/x.py",
            """
            from fcntl import flock

            def grab(fd):
                flock(fd, 2)
            """,
        )
        assert codes(report) == ["REP012"]

    def test_store_is_sanctioned(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/store/x.py",
            """
            import fcntl

            def grab(fd):
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            """,
        )
        assert codes(report) == []

    def test_unrelated_attribute_access_is_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/core/x.py",
            """
            class Box:
                flock = None

            def use(box):
                return box.flock
            """,
        )
        assert codes(report) == []


# ---------------------------------------------------------------------------
# Framework behaviour
# ---------------------------------------------------------------------------


class TestFramework:
    def test_syntax_error_becomes_rep000(self, tmp_path):
        report = lint_source(tmp_path, "src/repro/db/x.py", "def broken(:\n")
        assert codes(report) == ["REP000"]
        assert report.errors == 1

    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "src/repro/db/x.py"
        target.parent.mkdir(parents=True)
        target.write_text('print("hello")\n', encoding="utf-8")
        exit_code = main(["--root", str(tmp_path), "--json", "src"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["version"] == 2
        assert payload["summary"] == {"errors": 1}
        (finding,) = payload["findings"]
        assert sorted(finding) == ["code", "column", "line", "message", "path"]
        assert finding["code"] == "REP008"
        assert finding["path"] == "src/repro/db/x.py"
        assert finding["line"] == 1

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "nowhere"]) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_findings_are_sorted_and_renderable(self, tmp_path):
        report = lint_source(
            tmp_path,
            "src/repro/db/x.py",
            """
            print("b")
            print("a")
            """,
        )
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        rendered = report.findings[0].render()
        assert rendered.startswith("src/repro/db/x.py:2:0: REP008 error:")

    def test_every_rule_has_catalogue_metadata(self):
        assert len(RULES) == 12
        for code, rule in RULES.items():
            assert code.startswith("REP") and len(code) == 6
            assert rule.description and rule.name
            assert rule.include

    def test_finding_round_trips_to_dict(self):
        finding = Finding("REP001", "src/x.py", 3, 7, "msg")
        assert finding.to_dict()["line"] == 3


# ---------------------------------------------------------------------------
# The contract: the real tree is clean
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_src_tree_is_clean_at_head(self):
        report = lint_paths(["src"], root=REPO_ROOT)
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.files_checked > 50

    def test_rep008_exempts_exactly_the_cli(self, tmp_path):
        # REP008 declares its own exemption: the CLI, whose job is
        # stdout (and the lint tool's reporter).  The exemption is
        # load-bearing -- the CLI's own source, written at any other
        # library path, is a finding.
        assert RULES["REP008"].exclude == (
            "src/repro/tooling/*",
            "src/repro/cli.py",
        )
        cli = (REPO_ROOT / "src/repro/cli.py").read_text(encoding="utf-8")
        assert "REP008" not in codes(lint_source(tmp_path, "src/repro/cli.py", cli))
        for elsewhere in (
            "src/repro/cli_main.py",
            "src/repro/api/cli.py",
            "src/repro/db/x.py",
        ):
            assert "REP008" in codes(lint_source(tmp_path, elsewhere, cli))
