"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.api import QuerySpec, ServiceResult, spec_from_dict
from repro.cli import main
from repro.db import io
from repro.datasets.paper import udb1


@pytest.fixture
def synthetic_db_file(tmp_path):
    path = tmp_path / "db.json"
    code = main(
        [
            "generate",
            "synthetic",
            "--output",
            str(path),
            "--xtuples",
            "50",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def udb1_file(tmp_path):
    path = tmp_path / "udb1.json"
    io.save_json(udb1(), path)
    return path


class TestGenerate:
    def test_synthetic(self, synthetic_db_file, capsys):
        db = io.load_json(synthetic_db_file)
        assert db.num_xtuples == 50
        assert db.num_tuples == 500

    def test_mov(self, tmp_path, capsys):
        path = tmp_path / "mov.json"
        assert main(["generate", "mov", "-o", str(path), "--xtuples", "40"]) == 0
        db = io.load_json(path)
        assert db.num_xtuples == 40
        out = capsys.readouterr().out
        assert "40 x-tuples" in out

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "synthetic", "-o", str(a), "--xtuples", "10", "--seed", "9"])
        main(["generate", "synthetic", "-o", str(b), "--xtuples", "10", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestQuality:
    def test_tp_matches_paper(self, udb1_file, capsys):
        assert main(["quality", "--db", str(udb1_file), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "-2.551326" in out

    @pytest.mark.parametrize("method", ["pw", "pwr", "tp"])
    def test_all_methods_agree(self, udb1_file, capsys, method):
        main(["quality", "--db", str(udb1_file), "-k", "2", "--method", method])
        out = capsys.readouterr().out
        assert "-2.551326" in out

    def test_pwr_reports_result_count(self, udb1_file, capsys):
        main(["quality", "--db", str(udb1_file), "-k", "2", "--method", "pwr"])
        assert "distinct pw-results: 7" in capsys.readouterr().out

    def test_montecarlo_samples_flag(self, udb1_file, capsys):
        main(
            [
                "quality",
                "--db",
                str(udb1_file),
                "-k",
                "2",
                "--method",
                "montecarlo",
                "--samples",
                "2000",
            ]
        )
        assert "PWS-quality" in capsys.readouterr().out


class TestQuery:
    def test_ptk_paper_answer(self, udb1_file, capsys):
        main(
            [
                "query",
                "--db",
                str(udb1_file),
                "-k",
                "2",
                "--semantics",
                "ptk",
                "--threshold",
                "0.4",
            ]
        )
        out = capsys.readouterr().out
        assert "['t1', 't2', 't5']" in out

    def test_all_semantics(self, udb1_file, capsys):
        main(["query", "--db", str(udb1_file), "-k", "2"])
        out = capsys.readouterr().out
        assert "PT-2" in out
        assert "U-kRanks" in out
        assert "Global-top2" in out
        assert "PWS-quality" in out


    def test_malformed_database_is_a_typed_error(self, udb1_file, capsys):
        payload = json.loads(udb1_file.read_text(encoding="utf-8"))
        del payload["xtuples"][0]["alternatives"][0]["value"]
        udb1_file.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["query", "--db", str(udb1_file), "-k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [InvalidDataError]: tuple 't0' of x-tuple")
        assert "Traceback" not in err


class TestClean:
    def test_plan_only(self, synthetic_db_file, capsys):
        assert (
            main(
                [
                    "clean",
                    "--db",
                    str(synthetic_db_file),
                    "-k",
                    "5",
                    "--budget",
                    "20",
                    "--planner",
                    "dp",
                    "-v",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "expected improvement" in out
        assert "pclean(" in out

    def test_execute_and_write(self, synthetic_db_file, tmp_path, capsys):
        cleaned_path = tmp_path / "cleaned.json"
        main(
            [
                "clean",
                "--db",
                str(synthetic_db_file),
                "-k",
                "5",
                "--budget",
                "20",
                "--execute",
                "-o",
                str(cleaned_path),
            ]
        )
        out = capsys.readouterr().out
        assert "simulated execution" in out
        cleaned = io.load_json(cleaned_path)
        assert cleaned.num_xtuples == 50

    def test_explicit_cost_and_sc_files(self, udb1_file, tmp_path, capsys):
        costs = tmp_path / "costs.json"
        sc = tmp_path / "sc.json"
        costs.write_text(json.dumps({"S1": 1, "S2": 1, "S3": 1, "S4": 1}))
        sc.write_text(json.dumps({"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0}))
        main(
            [
                "clean",
                "--db",
                str(udb1_file),
                "-k",
                "2",
                "--budget",
                "3",
                "--planner",
                "dp",
                "--costs",
                str(costs),
                "--sc",
                str(sc),
            ]
        )
        out = capsys.readouterr().out
        # With P=1 and unit costs, budget 3 cleans all three uncertain
        # sensors: expected improvement = |S| = 2.551326.
        assert "expected improvement: 2.551326" in out

    @pytest.mark.parametrize("planner", ["dp", "greedy", "randp", "randu"])
    def test_every_planner_runs(self, synthetic_db_file, capsys, planner):
        assert (
            main(
                [
                    "clean",
                    "--db",
                    str(synthetic_db_file),
                    "-k",
                    "5",
                    "--budget",
                    "10",
                    "--planner",
                    planner,
                ]
            )
            == 0
        )


class TestJsonRoundTrip:
    def test_query_envelope_is_wire_ready(self, udb1_file, tmp_path, capsys):
        out = tmp_path / "query.json"
        assert (
            main(
                [
                    "query",
                    "--db",
                    str(udb1_file),
                    "-k",
                    "2",
                    "--threshold",
                    "0.4",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        envelope = json.loads(out.read_text())
        assert envelope["command"] == "query"
        assert envelope["db"] == str(udb1_file)
        result = ServiceResult.from_dict(envelope["result"])
        assert result.kind == "query"
        assert spec_from_dict(result.spec) == QuerySpec(k=2, threshold=0.4)
        assert [t for t, _ in result.payload["ptk"]["members"]] == [
            "t1",
            "t2",
            "t5",
        ]

    def test_query_output_feeds_clean_input(self, udb1_file, tmp_path, capsys):
        query_out = tmp_path / "query.json"
        main(
            [
                "query",
                "--db",
                str(udb1_file),
                "-k",
                "2",
                "--json",
                str(query_out),
            ]
        )
        clean_out = tmp_path / "clean.json"
        costs = tmp_path / "costs.json"
        sc = tmp_path / "sc.json"
        costs.write_text(json.dumps({"S1": 1, "S2": 1, "S3": 1, "S4": 1}))
        sc.write_text(json.dumps({"S1": 1.0, "S2": 1.0, "S3": 1.0, "S4": 1.0}))
        assert (
            main(
                [
                    "clean",
                    "--from",
                    str(query_out),
                    "--budget",
                    "3",
                    "--planner",
                    "dp",
                    "--costs",
                    str(costs),
                    "--sc",
                    str(sc),
                    "--execute",
                    "--json",
                    str(clean_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # k, db and ranking flowed from the query envelope: with unit
        # costs and P=1 at k=2, budget 3 cleans all the ambiguity.
        assert "expected improvement: 2.551326" in out
        envelope = json.loads(clean_out.read_text())
        result = ServiceResult.from_dict(envelope["result"])
        assert result.kind == "clean"
        assert result.payload["quality_after"] == pytest.approx(0.0, abs=1e-9)
        assert (
            result.payload["new_snapshot_id"] != result.snapshot_id
        )

    def test_clean_executes_and_writes_via_service(
        self, synthetic_db_file, tmp_path, capsys
    ):
        clean_json = tmp_path / "clean.json"
        cleaned_db = tmp_path / "cleaned.json"
        main(
            [
                "clean",
                "--db",
                str(synthetic_db_file),
                "-k",
                "5",
                "--budget",
                "20",
                "--execute",
                "-o",
                str(cleaned_db),
                "--json",
                str(clean_json),
            ]
        )
        envelope = json.loads(clean_json.read_text())
        result = ServiceResult.from_dict(envelope["result"])
        written = io.load_json(cleaned_db)
        # The db written on disk is the same content as the snapshot
        # registered under the reported id.
        assert (
            "snap-" + written.content_hash()[:16]
            == result.payload["new_snapshot_id"]
        )

    def test_explicit_ranking_overrides_from_envelope(
        self, synthetic_db_file, tmp_path, capsys
    ):
        # An envelope claiming the mov ranking over a numeric-valued
        # synthetic db: following it would crash (mov scores index into
        # mapping values), so a successful run proves the explicit
        # --ranking flag won over the envelope.
        envelope = tmp_path / "env.json"
        envelope.write_text(
            json.dumps(
                {
                    "command": "query",
                    "db": str(synthetic_db_file),
                    "ranking": "mov",
                    "result": {"spec": {"type": "query", "k": 3}},
                }
            )
        )
        clean_out = tmp_path / "c.json"
        assert (
            main(
                [
                    "clean",
                    "--from",
                    str(envelope),
                    "--budget",
                    "5",
                    "--ranking",
                    "value",
                    "--json",
                    str(clean_out),
                ]
            )
            == 0
        )
        recorded = json.loads(clean_out.read_text())
        assert recorded["ranking"] == "value"
        assert recorded["result"]["spec"]["k"] == 3

    def test_from_envelope_supplies_ranking_when_flag_absent(
        self, tmp_path, capsys
    ):
        mov_db = tmp_path / "mov.json"
        main(["generate", "mov", "-o", str(mov_db), "--xtuples", "15"])
        query_out = tmp_path / "q.json"
        main(
            [
                "query",
                "--db",
                str(mov_db),
                "-k",
                "3",
                "--ranking",
                "mov",
                "--json",
                str(query_out),
            ]
        )
        clean_out = tmp_path / "c.json"
        assert (
            main(
                [
                    "clean",
                    "--from",
                    str(query_out),
                    "--budget",
                    "5",
                    "--json",
                    str(clean_out),
                ]
            )
            == 0
        )
        assert json.loads(clean_out.read_text())["ranking"] == "mov"

    def test_generate_envelope(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        out = tmp_path / "gen.json"
        main(
            [
                "generate",
                "synthetic",
                "-o",
                str(path),
                "--xtuples",
                "10",
                "--json",
                str(out),
            ]
        )
        envelope = json.loads(out.read_text())
        result = ServiceResult.from_dict(envelope["result"])
        assert result.kind == "register"
        assert result.payload["num_xtuples"] == 10
        assert result.snapshot_id == "snap-" + io.load_json(path).content_hash()[:16]

    def test_generate_mov_envelope_uses_mov_ranking(self, tmp_path, capsys):
        path = tmp_path / "mov.json"
        out = tmp_path / "gen.json"
        assert (
            main(
                [
                    "generate",
                    "mov",
                    "-o",
                    str(path),
                    "--xtuples",
                    "10",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        envelope = json.loads(out.read_text())
        # mov values are mappings; the envelope must register (and
        # record) the mov ranking so chained commands inherit it.
        assert envelope["ranking"] == "mov"
        assert (
            main(["clean", "--from", str(out), "--budget", "5", "-k", "3"])
            == 0
        )


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_planner_rejected(self, udb1_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "clean",
                    "--db",
                    str(udb1_file),
                    "--budget",
                    "5",
                    "--planner",
                    "magic",
                ]
            )

    def test_unknown_ranking_rejected(self, udb1_file):
        with pytest.raises(SystemExit):
            main(["quality", "--db", str(udb1_file), "--ranking", "bogus"])
