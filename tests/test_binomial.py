import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optioncast.binomial import (
    BinomialSpec,
    ENUMERATION_LIMIT,
    enumerate_tree,
    estimate_ror,
    expected_wealth,
    martingale_check,
    per_step_growth,
    wald_log_expectation,
)
from optioncast.bs_core import call_price
from optioncast.errors import DataError
from optioncast.market_data import SYNTHETIC_MATURITY_YEARS, SyntheticSpec, generate_gbm


def full_path_oracle(spec):
    """Walk all 2^k win/lose paths; aggregate the terminal wealths exactly."""
    wealth_probs: dict[float, float] = {}
    expectation = 0.0
    for path in itertools.product((0, 1), repeat=spec.days):
        ups = sum(path)
        wealth = spec.initial * spec.ror**ups * spec.rol ** (spec.days - ups)
        prob = spec.p**ups * (1.0 - spec.p) ** (spec.days - ups)
        wealth_probs[wealth] = wealth_probs.get(wealth, 0.0) + prob
        expectation += wealth * prob
    return wealth_probs, expectation


_spec_strategy = st.builds(
    BinomialSpec,
    p=st.floats(min_value=0.05, max_value=0.95),
    ror=st.floats(min_value=1.01, max_value=3.0),
    rol=st.floats(min_value=0.2, max_value=0.99),
    initial=st.floats(min_value=0.1, max_value=50.0),
    days=st.integers(min_value=0, max_value=12),
)


class TestExpectedWealth:
    def test_one_day_headline_case(self):
        spec = BinomialSpec(p=0.56, ror=2.0, rol=0.5, initial=1.0, days=1)
        assert abs(expected_wealth(spec) - 1.34) <= 1e-12

    def test_zero_days_returns_initial(self):
        spec = BinomialSpec(p=0.56, ror=2.0, rol=0.5, initial=7.5, days=0)
        assert expected_wealth(spec) == 7.5

    @pytest.mark.parametrize("kwargs", [
        {"ror": 2.0, "rol": 0.5, "days": 100000},
        {"ror": 1e300, "days": 30},
        {"ror": 2.0, "days": 3, "initial": 1e308},
    ])
    def test_overflow_is_a_data_error(self, kwargs):
        spec = BinomialSpec(p=0.56, **kwargs)
        with pytest.raises(DataError, match="overflows float64 for BinomialSpec"):
            expected_wealth(spec)

    def test_five_days_against_path_enumeration(self):
        spec = BinomialSpec(p=2.0 / 3.0, ror=2.0, rol=0.5, initial=1.0, days=5)
        _, oracle = full_path_oracle(spec)
        value = expected_wealth(spec)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(1.5**5, rel=1e-12)
        assert 1.5**5 == 7.59375

    @settings(max_examples=100)
    @given(_spec_strategy)
    def test_closed_form_matches_enumeration(self, spec):
        assert expected_wealth(spec) == pytest.approx(
            enumerate_tree(spec).expectation, rel=1e-9
        )

    @given(
        st.floats(min_value=0.1, max_value=0.8),
        st.floats(min_value=1.05, max_value=2.5),
        st.floats(min_value=0.3, max_value=0.9),
        st.floats(min_value=0.01, max_value=0.1),
    )
    def test_strictly_increasing_in_p_ror_rol(self, p, ror, rol, bump):
        base = BinomialSpec(p=p, ror=ror, rol=rol, days=3)
        value = expected_wealth(base)
        assert expected_wealth(BinomialSpec(p=p + bump, ror=ror, rol=rol, days=3)) > value
        assert expected_wealth(BinomialSpec(p=p, ror=ror + bump, rol=rol, days=3)) > value
        assert expected_wealth(BinomialSpec(p=p, ror=ror, rol=min(rol + bump, 1.0), days=3)) > value


class TestEnumerateTree:
    def test_one_day_two_outcomes(self):
        spec = BinomialSpec(p=0.56, ror=2.0, rol=0.5, initial=1.0, days=1)
        dist = enumerate_tree(spec)
        assert dist.outcomes == [(0.5, pytest.approx(0.44)), (2.0, pytest.approx(0.56))]

    def test_two_days_balanced_probabilities(self):
        spec = BinomialSpec(p=0.5, ror=2.0, rol=0.5, days=2)
        dist = enumerate_tree(spec)
        assert [p for _, p in dist.outcomes] == pytest.approx([0.25, 0.5, 0.25])
        assert len(dist.outcomes) == 3

    def test_recombining_matches_full_path_enumeration(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(25):
            spec = BinomialSpec(
                p=float(rng.uniform(0.1, 0.9)),
                ror=float(rng.uniform(1.05, 2.5)),
                rol=float(rng.uniform(0.3, 0.95)),
                initial=float(rng.uniform(0.5, 5.0)),
                days=int(rng.integers(0, 13)),
            )
            dist = enumerate_tree(spec)
            oracle, oracle_expectation = full_path_oracle(spec)
            assert len(dist.outcomes) == spec.days + 1
            for wealth, prob in dist.outcomes:
                assert prob == pytest.approx(oracle[wealth], rel=1e-12, abs=1e-15)
            assert dist.expectation == pytest.approx(oracle_expectation, rel=1e-9)

    @settings(max_examples=100)
    @given(_spec_strategy)
    def test_probabilities_sum_to_one(self, spec):
        total = sum(p for _, p in enumerate_tree(spec).outcomes)
        assert abs(total - 1.0) <= 1e-12

    @settings(max_examples=100)
    @given(_spec_strategy)
    def test_wealths_sorted_and_of_product_form(self, spec):
        dist = enumerate_tree(spec)
        wealths = [w for w, _ in dist.outcomes]
        assert wealths == sorted(wealths)
        expected = sorted(
            spec.initial * spec.ror**j * spec.rol ** (spec.days - j)
            for j in range(spec.days + 1)
        )
        assert wealths == pytest.approx(expected, rel=1e-12)

    def test_enumeration_guard(self):
        spec = BinomialSpec(p=0.5, ror=2.0, rol=0.5, days=ENUMERATION_LIMIT + 1)
        with pytest.raises(ValueError, match="expected_wealth"):
            enumerate_tree(spec)

    @pytest.mark.parametrize("kwargs", [
        {"ror": 1e300, "days": 2},
        {"ror": 1e11, "rol": 0.5, "days": 30, "p": 1e-12},
        {"ror": 2.0, "days": 3, "initial": 1e308},
    ])
    def test_overflow_is_a_data_error(self, kwargs):
        spec = BinomialSpec(**{"p": 0.56, **kwargs})
        with pytest.raises(DataError, match="overflows float64 for BinomialSpec"):
            enumerate_tree(spec)

    def test_csv_round_trip(self, tmp_path):
        spec = BinomialSpec(p=0.56, ror=2.0, rol=0.5, days=4)
        dist = enumerate_tree(spec)
        path = tmp_path / "distribution.csv"
        dist.write_csv(path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["wealth", "probability"]
        parsed = [(float(w), float(p)) for w, p in rows[1:]]
        assert parsed == dist.outcomes


class TestEstimateRor:
    def test_simple_arithmetic(self):
        assert estimate_ror([1.0, 1.0], [1.1, 1.3]) == pytest.approx(1.2, abs=1e-15)

    def test_unchanged_portfolio(self):
        values = [2.0, 3.5, 0.25]
        assert estimate_ror(values, values) == 1.0

    def test_zero_vol_path_gives_unit_ror(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.0, mu=0.0, n_days=12, seed=0)
        records = generate_gbm(spec)
        today = [records[3].option_mid]
        predicted = [
            call_price(records[4].stock_mid, SYNTHETIC_MATURITY_YEARS, records[4].strike, 0.0, 0.0)
        ]
        assert estimate_ror(today, predicted) == 1.0

    def test_errors(self):
        with pytest.raises(DataError):
            estimate_ror([], [])
        with pytest.raises(DataError):
            estimate_ror([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_ror([0.0, 0.0], [1.0, 1.0])


class TestMartingale:
    def test_two_thirds_double_or_halve_is_not_a_martingale(self):
        report = martingale_check(BinomialSpec(p=2.0 / 3.0, ror=2.0, rol=0.5))
        assert abs(report.per_step_growth - 1.5) <= 1e-12
        assert not report.is_martingale

    def test_balanced_spec_is_a_martingale(self):
        report = martingale_check(BinomialSpec(p=1.0 / 3.0, ror=2.0, rol=0.5))
        assert report.is_martingale
        assert report.per_step_growth == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_no_move_tree(self):
        report = martingale_check(BinomialSpec(p=0.7, ror=1.0, rol=1.0))
        assert report.is_martingale
        assert report.per_step_growth == 1.0


class TestWald:
    def test_single_day_value_and_monte_carlo_oracle(self):
        spec = BinomialSpec(p=2.0 / 3.0, ror=2.0, rol=0.5)
        value = wald_log_expectation(spec, 1.0)
        assert value == pytest.approx(math.log(2.0) / 3.0, abs=1e-12)
        assert value == pytest.approx(0.2310, abs=5e-5)
        rng = np.random.Generator(np.random.PCG64(12))
        draws = np.where(
            rng.random(1_000_000) < spec.p, math.log(spec.ror), math.log(spec.rol)
        )
        stderr = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - value) <= 3.0 * stderr

    def test_no_move_tree_is_zero(self):
        spec = BinomialSpec(p=0.3, ror=1.0, rol=1.0)
        assert wald_log_expectation(spec, 17.0) == 0.0

    def test_linear_in_expected_days(self):
        spec = BinomialSpec(p=0.6, ror=1.8, rol=0.6)
        one = wald_log_expectation(spec, 1.0)
        assert wald_log_expectation(spec, 10.0) == pytest.approx(10.0 * one, rel=1e-12)

    def test_requires_positive_horizon(self):
        with pytest.raises(DataError):
            wald_log_expectation(BinomialSpec(p=0.5, ror=2.0, rol=0.5), 0.0)

    @settings(max_examples=100)
    @given(_spec_strategy)
    def test_jensen_log_expectation_below_log_of_expectation(self, spec):
        if spec.days == 0:
            return
        log_side = wald_log_expectation(spec, float(spec.days)) + math.log(spec.initial)
        assert log_side <= math.log(expected_wealth(spec)) + 1e-12


class TestSpecValidation:
    def test_default_rol_is_reciprocal(self):
        spec = BinomialSpec(p=0.5, ror=2.0)
        assert spec.rol == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0.0, "ror": 2.0, "rol": 0.5},
            {"p": 1.0, "ror": 2.0, "rol": 0.5},
            {"p": 0.5, "ror": 0.9, "rol": 0.5},
            {"p": 0.5, "ror": 2.0, "rol": 0.0},
            {"p": 0.5, "ror": 2.0, "rol": 1.5},
            {"p": 0.5, "ror": 2.0, "rol": 0.5, "initial": 0.0},
            {"p": 0.5, "ror": 2.0, "rol": 0.5, "days": -1},
            {"p": 0.5, "ror": 0.0},  # checked before the default rol = 1/ror divides by it
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(DataError):
            BinomialSpec(**kwargs)

    def test_whole_valued_float_days_is_stored_as_an_int(self):
        as_float = BinomialSpec(p=0.56, ror=2.0, rol=0.5, days=3.0)
        as_int = BinomialSpec(p=0.56, ror=2.0, rol=0.5, days=3)
        assert as_float == as_int and type(as_float.days) is int
        assert enumerate_tree(as_float) == enumerate_tree(as_int)
        assert expected_wealth(as_float) == expected_wealth(as_int)

    def test_growth_helper(self):
        assert per_step_growth(BinomialSpec(p=0.56, ror=2.0, rol=0.5)) == pytest.approx(
            1.34, abs=1e-12
        )
