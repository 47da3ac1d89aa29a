import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import make_record
from optioncast.errors import DataError
from optioncast.market_data import SyntheticSpec, generate_gbm
from optioncast.trading import backtest, est_covers


class TestDecide:
    def test_above_threshold_buys(self):
        assert est_covers(1.05, 1.00)

    def test_boundary_is_included(self):
        assert est_covers(1.00, 1.00)

    def test_below_threshold_abstains(self):
        assert not est_covers(0.99, 1.00)

    def test_missing_signal_abstains(self):
        assert not est_covers(math.nan, 1.00)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_nonpositive_reference_rejected(self, threshold):
        # backtest relies on this: a day quoted with a zero ask never buys.
        assert not est_covers(1.0, threshold)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.integers(min_value=-10, max_value=10),
    )
    @example(est=0.1, threshold=0.10000000000000002, k=8)
    def test_power_of_two_scale_invariance(self, est, threshold, k):
        # Multiplying by a power of two is exact, so no margin is needed.
        scale = 2.0**k
        assert est_covers(est, threshold) == est_covers(est * scale, threshold * scale)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.001, max_value=1000.0),
    )
    def test_scale_invariance(self, est, threshold, scale):
        # Each product rounds by up to half an ulp, which can reorder a pair
        # closer than that (est=0.1, threshold=0.10000000000000002, scale=449).
        assume(abs(est - threshold) > 1e-12 * threshold)
        assert est_covers(est, threshold) == est_covers(est * scale, threshold * scale)


def rising_deterministic_series(n_days=20):
    # sigma = 0 with positive drift: strictly increasing prices, zero spread.
    # The generator requires >= 12 days; short tests slice the result.
    spec = SyntheticSpec(s0=100.0, sigma=0.0, mu=0.6, n_days=max(n_days, 12),
                         seed=0, spread_bp=0.0)
    return generate_gbm(spec)[:n_days]


class TestBacktest:
    def test_perfect_foresight_on_rising_path_wins_every_trade(self):
        records = rising_deterministic_series()
        signals = [r.option_ask * 1.01 for r in records]
        result = backtest(records, signals, mode="qrm")
        assert result.n_trades == len(records) - 1
        assert result.hit_rate == 1.0
        assert all(d.pnl > 0 for d in result.decisions if d.action == "buy")
        assert result.final_pnl > 0

    def test_zero_ask_day_abstains(self):
        # A zero bid and ask passes record validation; the rule must abstain
        # on that day instead of rejecting the whole series.
        records = [
            make_record(offset=0, option_bid=0.0, option_ask=0.0),
            make_record(offset=1),
            make_record(offset=2),
        ]
        result = backtest(records, [1.0, 10.0, None], mode="qrm")
        assert [d.action for d in result.decisions] == ["abstain", "buy"]
        assert result.n_trades == 1

    def test_zero_ask_day_abstains_in_classifier_mode(self):
        # A probability is no price: the zero-ask day must not buy at 0 and
        # book the next day's bid as profit.
        records = rising_deterministic_series(4)
        records[1] = dataclasses.replace(records[1], option_bid=0.0, option_ask=0.0)
        result = backtest(records, [0.9, 0.9, 0.9, None], mode="classifier")
        assert [d.action for d in result.decisions] == ["buy", "abstain", "buy"]
        expected = (
            (records[1].option_bid - records[0].option_ask)
            + (records[3].option_bid - records[2].option_ask)
        )
        assert result.final_pnl == expected
        assert result.n_trades == 2

    def test_always_abstain_is_flat_zero(self):
        records = rising_deterministic_series()
        signals = [0.0] * len(records)
        result = backtest(records, signals, mode="qrm")
        assert result.n_trades == 0
        assert result.equity_curve == [0.0] * (len(records) - 1)
        assert result.final_pnl == 0.0
        assert result.hit_rate == 0.0

    def test_wide_spread_loses_exactly_the_spread(self):
        # Constant mids with a 200bp spread: every round trip pays bid-ask.
        spec = SyntheticSpec(s0=100.0, sigma=0.0, mu=0.0, n_days=15, seed=0,
                             spread_bp=200.0)
        records = generate_gbm(spec)
        signals = [r.option_ask for r in records]
        result = backtest(records, signals, mode="qrm")
        assert result.n_trades == len(records) - 1
        for k, decision in enumerate(result.decisions):
            spread = records[k].option_ask - records[k + 1].option_bid
            assert decision.pnl == -spread
        assert result.hit_rate == 0.0

    def test_classifier_mode_threshold(self):
        records = rising_deterministic_series(12)
        signals = [0.4, 0.6, 0.5, 0.49, None, 0.51, 0.7, 0.3, 0.9, 0.1, 0.8, 0.2]
        result = backtest(records, signals, mode="classifier")
        actions = [d.action for d in result.decisions]
        assert actions == [
            "abstain", "buy", "buy", "abstain", "abstain", "buy",
            "buy", "abstain", "buy", "abstain", "buy",
        ]

    def test_last_day_never_trades(self):
        records = rising_deterministic_series(5)
        signals = [r.option_ask + 1.0 for r in records]
        result = backtest(records, signals, mode="qrm")
        assert len(result.decisions) == 4

    def test_equity_sums_per_trade_pnl(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.3, mu=0.0, n_days=40, seed=3, spread_bp=40.0)
        records = generate_gbm(spec)
        rng = np.random.Generator(np.random.PCG64(1))
        signals = [r.option_mid * (1 + 0.02 * rng.standard_normal()) for r in records]
        result = backtest(records, signals, mode="qrm")
        total = sum(d.pnl for d in result.decisions if d.pnl is not None)
        assert abs(result.final_pnl - total) <= 1e-9
        assert result.equity_curve[-1] == result.final_pnl

    def test_no_lookahead_under_truncation(self):
        spec = SyntheticSpec(s0=100.0, sigma=0.3, mu=0.0, n_days=30, seed=5, spread_bp=20.0)
        records = generate_gbm(spec)
        rng = np.random.Generator(np.random.PCG64(2))
        signals = [r.option_mid * (1 + 0.02 * rng.standard_normal()) for r in records]
        full = backtest(records, signals, mode="qrm")
        for k in (5, 12, 25):
            truncated = backtest(records[:k], signals[:k], mode="qrm")
            assert truncated.equity_curve == full.equity_curve[: k - 1]

    def test_adding_a_profitable_day_never_hurts(self):
        records = rising_deterministic_series(10)
        signals = [r.option_ask for r in records]
        shorter = backtest(records[:-1], signals[:-1], mode="qrm")
        longer = backtest(records, signals, mode="qrm")
        assert longer.final_pnl >= shorter.final_pnl

    def test_alignment_errors(self):
        records = rising_deterministic_series(5)
        with pytest.raises(DataError, match="align"):
            backtest(records, [1.0] * 4, mode="qrm")
        with pytest.raises(DataError, match="at least 2"):
            backtest(records[:1], [1.0], mode="qrm")
        with pytest.raises(DataError, match="mode"):
            backtest(records, [1.0] * 5, mode="martingale")
