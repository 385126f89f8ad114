"""Dataset generators: paper properties, determinism, validity."""

import random
import statistics

import pytest

from repro.core.tp import compute_quality_tp
from repro.datasets.mov import MovConfig, generate_mov, mov_ranking
from repro.datasets.synthetic import (
    SyntheticConfig,
    draw_costs,
    draw_sc_probabilities,
    generate_costs,
    generate_sc_probabilities,
    generate_synthetic,
)

#: Seeds of the bit-for-bit draw checks: zero, small, negative, a
#: 31-bit maximum, and seeds that take more than one 32-bit word.
DRAW_SEEDS = [0, 1, -7, 12345, 2**31 - 1, 2**64 + 3, -(2**70)]


class TestSyntheticGenerator:
    def test_default_shape(self):
        db = generate_synthetic(num_xtuples=50, seed=1)
        assert db.num_xtuples == 50
        # 10 histogram bars per x-tuple (a bar of negligible mass may be
        # dropped, but with sigma=100 over width<=100 all bars survive).
        assert db.num_tuples == 500

    def test_xtuples_are_complete(self):
        db = generate_synthetic(num_xtuples=40, seed=2)
        assert db.is_complete

    def test_values_lie_in_interval_of_width_at_most_100(self):
        db = generate_synthetic(num_xtuples=30, seed=3)
        for xt in db.xtuples:
            values = [t.value for t in xt.alternatives]
            assert max(values) - min(values) <= 100.0

    def test_deterministic_under_seed(self):
        a = generate_synthetic(num_xtuples=20, seed=9)
        b = generate_synthetic(num_xtuples=20, seed=9)
        assert [t.tid for t in a] == [t.tid for t in b]
        assert [t.probability for t in a] == [t.probability for t in b]

    def test_seeds_differ(self):
        a = generate_synthetic(num_xtuples=20, seed=1)
        b = generate_synthetic(num_xtuples=20, seed=2)
        assert [t.value for t in a] != [t.value for t in b]

    def test_uniform_pdf_gives_equal_bars(self):
        db = generate_synthetic(num_xtuples=10, uncertainty="uniform", seed=4)
        for xt in db.xtuples:
            for t in xt.alternatives:
                assert t.probability == pytest.approx(0.1)

    def test_small_sigma_concentrates_mass(self):
        narrow = generate_synthetic(num_xtuples=15, sigma=10.0, seed=5)
        wide = generate_synthetic(num_xtuples=15, sigma=100.0, seed=5)

        def max_bar(db):
            return statistics.fmean(
                max(t.probability for t in xt.alternatives)
                for xt in db.xtuples
            )

        assert max_bar(narrow) > max_bar(wide)

    def test_quality_ordering_by_sigma(self):
        """Figure 4(b)'s shape: smaller σ ⇒ higher (less negative)
        quality; uniform is the most ambiguous."""
        qualities = {}
        for sigma in (10.0, 100.0):
            db = generate_synthetic(num_xtuples=60, sigma=sigma, seed=6)
            qualities[sigma] = compute_quality_tp(db.ranked(), 5).quality
        uniform_db = generate_synthetic(
            num_xtuples=60, uncertainty="uniform", seed=6
        )
        qualities["uniform"] = compute_quality_tp(uniform_db.ranked(), 5).quality
        assert qualities[10.0] > qualities[100.0] > qualities["uniform"]

    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            generate_synthetic(SyntheticConfig(), num_xtuples=5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_xtuples": 0},
            {"bars_per_xtuple": 0},
            {"uncertainty": "exotic"},
            {"sigma": 0.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)


class TestCostsAndScProbabilities:
    def test_costs_in_range_and_deterministic(self):
        db = generate_synthetic(num_xtuples=30, seed=1)
        costs = generate_costs(db, seed=5)
        assert set(costs) == {xt.xid for xt in db.xtuples}
        assert all(1 <= c <= 10 for c in costs.values())
        assert costs == generate_costs(db, seed=5)

    def test_invalid_cost_range_rejected(self):
        db = generate_synthetic(num_xtuples=5, seed=1)
        with pytest.raises(ValueError):
            generate_costs(db, low=0)
        with pytest.raises(ValueError):
            generate_costs(db, low=5, high=2)

    def test_uniform_sc_probabilities(self):
        db = generate_synthetic(num_xtuples=200, seed=1)
        sc = generate_sc_probabilities(db, seed=2)
        values = list(sc.values())
        assert all(0.0 <= v <= 1.0 for v in values)
        assert statistics.fmean(values) == pytest.approx(0.5, abs=0.06)

    def test_uniform_range_shifts_average(self):
        db = generate_synthetic(num_xtuples=200, seed=1)
        sc = generate_sc_probabilities(db, low=0.8, high=1.0, seed=2)
        assert statistics.fmean(sc.values()) == pytest.approx(0.9, abs=0.03)

    def test_normal_sc_probabilities_clipped(self):
        db = generate_synthetic(num_xtuples=300, seed=1)
        sc = generate_sc_probabilities(
            db, distribution="normal", sigma=0.3, seed=3
        )
        values = list(sc.values())
        assert all(0.0 <= v <= 1.0 for v in values)
        assert statistics.fmean(values) == pytest.approx(0.5, abs=0.06)

    def test_invalid_sc_parameters_rejected(self):
        db = generate_synthetic(num_xtuples=5, seed=1)
        with pytest.raises(ValueError):
            generate_sc_probabilities(db, distribution="beta")
        with pytest.raises(ValueError):
            generate_sc_probabilities(db, low=-0.5)
        with pytest.raises(ValueError):
            generate_sc_probabilities(db, distribution="normal", sigma=0.0)


class TestMovGenerator:
    def test_shape_matches_paper(self):
        db = generate_mov(num_xtuples=500, seed=1)
        assert db.num_xtuples == 500
        mean_alternatives = db.num_tuples / db.num_xtuples
        assert mean_alternatives == pytest.approx(2.0, abs=0.15)

    def test_complete_by_default(self):
        db = generate_mov(num_xtuples=100, seed=2)
        assert db.is_complete

    def test_incomplete_fraction(self):
        db = generate_mov(num_xtuples=300, incomplete_fraction=0.5, seed=3)
        incomplete = sum(1 for xt in db.xtuples if not xt.is_complete)
        assert 0.3 < incomplete / db.num_xtuples < 0.7

    def test_values_are_normalized(self):
        db = generate_mov(num_xtuples=100, seed=4)
        for t in db:
            assert 0.0 <= t.value["date"] <= 1.0
            assert 0.0 <= t.value["rating"] <= 1.0

    def test_ranking_scores_date_plus_rating(self):
        db = generate_mov(num_xtuples=50, seed=5)
        ranked = db.ranked(mov_ranking())
        t = ranked.order[0]
        assert ranked.scores_array[0] == pytest.approx(
            t.value["date"] + t.value["rating"]
        )

    def test_deterministic_under_seed(self):
        a = generate_mov(num_xtuples=50, seed=6)
        b = generate_mov(num_xtuples=50, seed=6)
        assert [t.tid for t in a] == [t.tid for t in b]

    def test_quality_higher_than_synthetic_at_equal_size(self):
        """Figure 4(c)'s observation: MOV (≈2 alternatives/x-tuple) is
        less ambiguous than the synthetic data (10 per x-tuple)."""
        mov = generate_mov(num_xtuples=200, seed=7)
        synthetic = generate_synthetic(num_xtuples=200, seed=7)
        q_mov = compute_quality_tp(mov.ranked(mov_ranking()), 10).quality
        q_syn = compute_quality_tp(synthetic.ranked(), 10).quality
        assert q_mov > q_syn

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MovConfig(num_xtuples=0)
        with pytest.raises(ValueError):
            MovConfig(incomplete_fraction=1.5)

    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(TypeError):
            generate_mov(MovConfig(), num_xtuples=5)


class TestArrayDraws:
    """The array draws are ``random.Random(seed)``'s scalar draws, bit
    for bit: the service's costs and sc-probabilities, and with them
    every plan, outcome and snapshot id, do not depend on which one
    drew them."""

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("size", [0, 1, 3000])
    def test_costs_equal_randint(self, seed, size):
        rng = random.Random(seed)
        expected = [rng.randint(1, 10) for _ in range(size)]
        drawn = draw_costs(size, seed=seed)
        assert drawn.dtype == "int64"
        assert drawn.tolist() == expected

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("size", [0, 1, 3000])
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.25, 0.75)])
    def test_sc_probabilities_equal_uniform(self, seed, size, low, high):
        rng = random.Random(seed)
        expected = [rng.uniform(low, high) for _ in range(size)]
        drawn = draw_sc_probabilities(size, low, high, seed=seed)
        assert drawn.tolist() == expected

    @pytest.mark.parametrize(
        "low, high", [(1, 1), (3, 7), (1, 16), (1, 17), (2, 2**32)]
    )
    def test_other_ranges_equal_randint(self, low, high):
        # A single value still draws (and rejects) a bit per output;
        # 16 values take 5 bits, as ``randbelow`` does; 2**32 - 1
        # values take all 32.
        for seed in (0, 99):
            rng = random.Random(seed)
            expected = [rng.randint(low, high) for _ in range(500)]
            assert draw_costs(500, low, high, seed=seed).tolist() == expected

    def test_ranges_wider_than_32_bits_rejected(self):
        with pytest.raises(ValueError, match="32 random bits"):
            draw_costs(3, 1, 2**32)

    def test_dict_wrappers_follow_xtuple_order(self):
        db = generate_synthetic(num_xtuples=40, seed=1)
        xids = [xt.xid for xt in db.xtuples]
        assert generate_costs(db, seed=3) == dict(
            zip(xids, draw_costs(40, seed=3).tolist())
        )
        assert generate_sc_probabilities(db, seed=4) == dict(
            zip(xids, draw_sc_probabilities(40, seed=4).tolist())
        )
        assert all(type(c) is int for c in generate_costs(db, seed=3).values())
