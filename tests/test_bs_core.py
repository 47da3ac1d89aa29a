import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optioncast.bs_core import call_price, std_normal_cdf


def _gaussian_density(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


class TestPayoff:
    # At tau = 0 the call price is the exercise value max(s - strike, 0).
    def test_at_the_money(self):
        assert call_price(1.0, 0.0, 1.0, 0.2, 0.0) == 0.0

    def test_in_the_money(self):
        assert call_price(2.0, 0.0, 1.0, 0.2, 0.0) == 1.0

    def test_out_of_the_money(self):
        assert call_price(0.5, 0.0, 1.0, 0.2, 0.0) == 0.0

    @pytest.mark.parametrize("s,k", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive_inputs(self, s, k):
        with pytest.raises(ValueError):
            call_price(s, 0.0, k, 0.2, 0.0)


class TestNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_value_at_one_vs_quadrature_oracle(self):
        oracle, err = quad(_gaussian_density, -13.0, 1.0, epsabs=1e-14)
        assert err < 1e-9
        assert abs(std_normal_cdf(1.0) - oracle) <= 1e-12
        assert abs(std_normal_cdf(1.0) - 0.841344746) <= 1e-9

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_reflection_identity(self, x):
        assert std_normal_cdf(x) == pytest.approx(1.0 - std_normal_cdf(-x), abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(math.inf)


class TestCallPrice:
    def test_atm_one_year_vs_risk_neutral_quadrature(self):
        # Oracle: E[max(S_T - K, 0)] with S_T = exp(-sigma^2/2 + sigma*Z);
        # the integrand vanishes below the kink at z = sigma/2.
        sigma = 0.2

        def integrand(z):
            terminal = math.exp(-0.5 * sigma * sigma + sigma * z)
            return (terminal - 1.0) * _gaussian_density(z)

        oracle, err = quad(integrand, 0.5 * sigma, 14.0, epsabs=1e-14)
        assert err < 1e-9
        price = call_price(1.0, 1.0, 1.0, sigma, 0.0)
        assert abs(price - oracle) <= 1e-10
        assert abs(price - 0.0797) <= 1e-4

    @pytest.mark.parametrize("s,k", [(1.0, 1.0), (2.5, 1.0), (0.4, 1.0)])
    def test_tau_zero_is_payoff(self, s, k):
        assert call_price(s, 0.0, k, 0.2, 0.05) == max(s - k, 0.0)

    def test_deep_in_the_money_asymptote(self):
        s, k = 1000.0, 1.0
        assert abs(call_price(s, 1.0, k, 0.2, 0.0) - (s - k)) <= 1e-6 * s

    def test_sigma_zero_is_discounted_intrinsic(self):
        assert call_price(100.0, 0.5, 80.0, 0.0, 0.02) == pytest.approx(
            100.0 - 80.0 * math.exp(-0.01), abs=1e-12
        )

    def test_underflowing_vol_is_the_sigma_zero_limit(self):
        # sigma * sqrt(tau) rounds to 0 for a positive sigma.
        assert call_price(1.0, 1e-10, 0.5, 5e-324, 0.0) == 0.5

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            call_price(1.0, -0.1, 1.0, 0.2, 0.0)

    def test_bs_inputs_validation(self):
        with pytest.raises(ValueError):
            call_price(-1.0, 1.0, 1.0, 0.2, 0.0)
        with pytest.raises(ValueError):
            call_price(1.0, 1.0, 1.0, -0.2, 0.0)
        with pytest.raises(ValueError):
            call_price(1.0, 1.0, math.nan, 0.2, 0.0)


_price_inputs = st.tuples(
    st.floats(min_value=0.2, max_value=400.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.2, max_value=400.0),
    st.floats(min_value=0.01, max_value=1.5),
    st.floats(min_value=-0.05, max_value=0.12),
)


_nonneg_rate_inputs = st.tuples(
    st.floats(min_value=0.2, max_value=400.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.2, max_value=400.0),
    st.floats(min_value=0.01, max_value=1.5),
    st.floats(min_value=0.0, max_value=0.12),
)


class TestProperties:
    # tau-monotonicity needs a nonnegative rate: with r < 0 a longer maturity
    # raises the strike's present value and can cheapen the call.
    @settings(max_examples=200)
    @given(_nonneg_rate_inputs, st.floats(min_value=0.01, max_value=0.5))
    def test_monotone_in_s_sigma_tau(self, args, bump):
        s, tau, k, sigma, r = args
        base = call_price(s, tau, k, sigma, r)
        assert call_price(s + bump, tau, k, sigma, r) >= base - 1e-12
        assert call_price(s, tau + bump, k, sigma, r) >= base - 1e-12
        assert call_price(s, tau, k, sigma + bump, r) >= base - 1e-12

    @settings(max_examples=300)
    @given(_price_inputs)
    def test_no_arbitrage_bounds(self, args):
        s, tau, k, sigma, r = args
        price = call_price(s, tau, k, sigma, r)
        lower = max(s - k * math.exp(-r * tau), 0.0)
        assert lower - 1e-9 <= price <= s + 1e-9

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.2, max_value=400.0),
        st.floats(min_value=0.2, max_value=400.0),
    )
    def test_boundary_consistency_near_expiry(self, s, k):
        if abs(s - k) < 1e-3:
            return
        assert abs(call_price(s, 1e-12, k, 0.2, 0.05) - max(s - k, 0.0)) <= 1e-6

    @settings(max_examples=200)
    @given(_price_inputs, st.floats(min_value=0.05, max_value=2.0))
    def test_convex_in_s(self, args, gap):
        s, tau, k, sigma, r = args
        s1, s2 = s, s + gap
        mid = call_price(0.5 * (s1 + s2), tau, k, sigma, r)
        chord = 0.5 * (call_price(s1, tau, k, sigma, r) + call_price(s2, tau, k, sigma, r))
        assert mid <= chord + 1e-12

