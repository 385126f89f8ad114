"""Unit tests for the benchmark harness (repro.bench)."""

import pytest

from repro.bench.harness import SCALES, BenchScale, Table, current_scale, time_call


class TestScales:
    def test_all_tiers_present(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_default_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale().name == "default"

    @pytest.mark.parametrize("tier", ["quick", "default", "full"])
    def test_env_selection(self, monkeypatch, tier):
        monkeypatch.setenv("REPRO_BENCH_SCALE", tier)
        assert current_scale().name == tier

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "enormous")
        with pytest.raises(ValueError):
            current_scale()

    def test_tiers_are_ordered_by_size(self):
        assert SCALES["quick"].synth_m <= SCALES["default"].synth_m
        assert SCALES["default"].synth_m <= SCALES["full"].synth_m
        assert SCALES["quick"].budget_max <= SCALES["full"].budget_max


class TestTimeCall:
    def test_returns_positive_milliseconds(self):
        assert time_call(lambda: sum(range(1000)), repeats=2) > 0.0

    def test_time_budget_stops_repeats(self, monkeypatch):
        import time

        from repro.bench import harness

        monkeypatch.setattr(harness, "TIME_BUDGET_S", 0.01)
        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.05)

        time_call(slow, repeats=10)
        assert len(calls) == 1


class TestTable:
    def _table(self):
        t = Table(
            experiment="figX",
            title="demo",
            columns=["k", "S"],
            notes="a note",
        )
        t.add_row(1, -1.5)
        t.add_row(2, None)
        return t

    def test_add_row_validates_width(self):
        t = self._table()
        with pytest.raises(ValueError):
            t.add_row(1, 2, 3)

    def test_column_access(self):
        t = self._table()
        assert t.column("k") == [1, 2]
        assert t.column("S") == [-1.5, None]
        with pytest.raises(ValueError):
            t.column("missing")

    def test_format_contains_everything(self):
        text = self._table().format()
        assert "figX" in text
        assert "demo" in text
        assert "-1.5" in text
        assert "a note" in text
        assert "-" in text  # None rendered as '-'

    def test_format_cell_styles(self):
        assert Table._format_cell(None) == "-"
        assert Table._format_cell(0.0) == "0"
        assert Table._format_cell(1234.5678) == "1.23e+03"
        assert Table._format_cell(0.004) == "0.004"
        assert Table._format_cell(12.3456) == "12.346"
        assert Table._format_cell("text") == "text"

    def test_save_roundtrip(self, tmp_path):
        t = self._table()
        path = t.save(tmp_path)
        assert path.name == "figX.txt"
        assert path.read_text().startswith("== figX")

    def test_empty_table_formats(self):
        t = Table(experiment="e", title="t", columns=["a"])
        assert "a" in t.format()
