"""Closed-form European call pricing.

The standard normal CDF is evaluated through the error-function identity
Phi(x) = (1 + erf(x / sqrt(2))) / 2 with the platform IEEE-754 ``math.erf``,
which keeps the absolute error well below 1e-12.
"""

from __future__ import annotations

import math

__all__ = ["call_price", "std_normal_cdf"]

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf needs finite x, got {x}")
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def call_price(s: float, tau: float, strike: float, sigma: float, rate: float) -> float:
    """Price a European call with ``tau`` years to maturity.

    Inputs must be finite, with s, strike > 0 and tau, sigma >= 0.  tau = 0
    returns the payoff max(s - strike, 0) exactly, and sigma = 0 the
    discounted intrinsic value max(s - strike * exp(-rate * tau), 0).
    """
    inputs = {"s": s, "tau": tau, "strike": strike, "sigma": sigma, "rate": rate}
    for name, value in inputs.items():
        if not math.isfinite(value):
            raise ValueError(f"call_price needs a finite {name}, got {value}")
    if s <= 0 or strike <= 0:
        raise ValueError(f"call_price needs s > 0 and strike > 0, got s={s}, strike={strike}")
    if tau < 0 or sigma < 0:
        raise ValueError(f"call_price needs tau >= 0 and sigma >= 0, got tau={tau}, sigma={sigma}")
    if tau == 0.0:
        return max(s - strike, 0.0)
    discounted_strike = strike * math.exp(-rate * tau)
    vol_sqrt_tau = sigma * math.sqrt(tau)
    if vol_sqrt_tau > 0.0:
        theta_plus = (math.log(s / strike) + (rate + 0.5 * sigma * sigma) * tau) / vol_sqrt_tau
        if math.isfinite(theta_plus):
            theta_minus = theta_plus - vol_sqrt_tau
            return s * std_normal_cdf(theta_plus) - discounted_strike * std_normal_cdf(theta_minus)
    # sigma = 0, or sigma * sqrt(tau) too small for the quotient: the sigma -> 0 limit.
    return max(s - discounted_strike, 0.0)
