"""Answer value objects, exception hierarchy, and the run_all runner."""

import pytest

from repro.exceptions import (
    InfeasibleTargetError,
    InvalidCleaningProblemError,
    InvalidDatabaseError,
    InvalidQueryError,
    ReproError,
)
from repro.queries.answers import (
    GlobalTopkAnswer,
    PTkAnswer,
    RankWinner,
    UkRanksAnswer,
    UTopkAnswer,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            InvalidDatabaseError,
            InvalidQueryError,
            InvalidCleaningProblemError,
            InfeasibleTargetError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestAnswerObjects:
    def test_ukranks_accessors(self):
        answer = UkRanksAnswer(
            k=2,
            winners=(
                RankWinner(rank=1, tid="a", probability=0.5),
                RankWinner(rank=2, tid="a", probability=0.3),
            ),
        )
        assert answer.tids == ["a", "a"]  # duplicates allowed by semantics
        assert answer.winner_at(2).probability == 0.3
        with pytest.raises(KeyError):
            answer.winner_at(3)

    def test_ptk_container_protocol(self):
        answer = PTkAnswer(k=2, threshold=0.4, members=(("a", 0.9), ("b", 0.5)))
        assert "a" in answer
        assert "c" not in answer
        assert len(answer) == 2
        assert answer.tids == ["a", "b"]

    def test_global_topk_container_protocol(self):
        answer = GlobalTopkAnswer(k=2, members=(("a", 0.9),))
        assert "a" in answer
        assert "z" not in answer
        assert len(answer) == 1

    def test_utopk_fields(self):
        answer = UTopkAnswer(k=2, result=("a", "b"), probability=0.4)
        assert answer.result == ("a", "b")
        assert answer.probability == 0.4

    def test_answers_are_immutable(self):
        answer = PTkAnswer(k=1, threshold=0.1, members=())
        with pytest.raises(AttributeError):
            answer.k = 3


def _run_all_module():
    import importlib.util
    from pathlib import Path

    script = Path(__file__).parent.parent / "benchmarks" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunAllScript:
    def test_single_experiment(self, tmp_path, capsys):
        code = _run_all_module().main(
            [
                "--scale",
                "quick",
                "--only",
                "fig2_3",
                "--results-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig2_3" in out
        assert (tmp_path / "fig2_3.txt").exists()

    def test_failed_check_exits_1(self, tmp_path, capsys, monkeypatch):
        from repro.bench.figures import ALL_FIGURES, Figure

        entry = ALL_FIGURES["fig2_3"]
        monkeypatch.setitem(
            ALL_FIGURES,
            "fig2_3",
            Figure(entry.generate, lambda table: ["Figure 2: forced failure"]),
        )
        code = _run_all_module().main(
            ["--scale", "quick", "--only", "fig2_3", "--results-dir", str(tmp_path)]
        )
        assert code == 1
        assert "fig2_3: Figure 2: forced failure" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            _run_all_module().main(
                ["--only", "fig99", "--results-dir", str(tmp_path)]
            )
