"""Binomial wealth projection for a daily win/lose trading process.

Each day the capital is multiplied by ``ror`` with probability ``p`` (the
classifier precision) or by ``rol`` otherwise.  After k days the recombining
tree has k+1 outcomes with binomial probabilities, the expectation collapses
to the closed form ``initial * (p*ror + (1-p)*rol)^k``, and the process is a
martingale exactly when the per-step growth ``p*ror + (1-p)*rol`` equals 1.
``wald_log_expectation`` gives the expected log-wealth change for a random
number of trading days via Wald's identity on the i.i.d. log increments.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DataError, real, whole

__all__ = [
    "BinomialSpec",
    "MartingaleReport",
    "WealthDistribution",
    "ENUMERATION_LIMIT",
    "enumerate_tree",
    "estimate_ror",
    "expected_wealth",
    "martingale_check",
    "per_step_growth",
    "wald_log_expectation",
]

ENUMERATION_LIMIT = 30
MARTINGALE_TOL = 1e-12


@dataclass(frozen=True)
class BinomialSpec:
    """Win probability, up/down multipliers, starting capital, and horizon.

    ``rol`` defaults to 1/ror, the reciprocal reading of a loss multiplier.
    """

    p: float
    ror: float
    rol: float | None = None
    initial: float = 1.0
    days: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "p", real(self.p, "p must lie strictly in (0, 1)", lambda x: 0 < x < 1))
        object.__setattr__(self, "ror", real(self.ror, "ror must be >= 1", lambda x: x >= 1))
        rol = 1.0 / self.ror if self.rol is None else self.rol
        object.__setattr__(self, "rol", real(rol, "rol must lie in (0, 1]", lambda x: 0 < x <= 1))
        object.__setattr__(self, "initial", real(
            self.initial, "initial capital must be > 0", lambda x: x > 0))
        object.__setattr__(self, "days", whole(self.days, "days must be an integer >= 0"))


@dataclass(frozen=True)
class WealthDistribution:
    """Terminal wealths with their probabilities, sorted ascending by wealth."""

    outcomes: list[tuple[float, float]]
    expectation: float

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wealth", "probability"])
            for wealth, prob in self.outcomes:
                writer.writerow([repr(wealth), repr(prob)])


@dataclass(frozen=True)
class MartingaleReport:
    is_martingale: bool
    per_step_growth: float


def per_step_growth(spec: BinomialSpec) -> float:
    """Expected one-day wealth multiplier p*ror + (1-p)*rol."""
    return spec.p * spec.ror + (1.0 - spec.p) * spec.rol


def _overflow(spec: BinomialSpec) -> DataError:
    return DataError(f"binomial projection overflows float64 for {spec}")


def expected_wealth(spec: BinomialSpec) -> float:
    """Closed form of the day-by-day expectation recursion.

    Raises DataError when the value does not fit a float64.
    """
    try:
        expectation = spec.initial * per_step_growth(spec) ** spec.days
    except OverflowError:
        raise _overflow(spec) from None
    if not math.isfinite(expectation):
        raise _overflow(spec)
    return expectation


def enumerate_tree(spec: BinomialSpec) -> WealthDistribution:
    """All k+1 recombining outcomes with exact binomial probabilities.

    Guarded at ``ENUMERATION_LIMIT`` days; beyond that the closed form
    :func:`expected_wealth` is the intended tool.  Raises DataError when a
    wealth or the expectation does not fit a float64.
    """
    k = spec.days
    if k > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is limited to {ENUMERATION_LIMIT} days (got {k}); "
            "use expected_wealth for long horizons"
        )
    outcomes = []
    expectation = 0.0
    try:
        for j in range(k + 1):
            wealth = spec.initial * spec.ror**j * spec.rol ** (k - j)
            prob = math.comb(k, j) * spec.p**j * (1.0 - spec.p) ** (k - j)
            outcomes.append((wealth, prob))
            expectation += wealth * prob
    except OverflowError:
        raise _overflow(spec) from None
    # An infinite wealth makes the expectation inf, or nan at probability 0.
    if not math.isfinite(expectation):
        raise _overflow(spec)
    outcomes.sort(key=lambda pair: pair[0])
    return WealthDistribution(outcomes=outcomes, expectation=expectation)


def estimate_ror(today: Sequence[float], predicted: Sequence[float]) -> float:
    """Next-day predicted portfolio value over today's value."""
    if len(today) == 0 or len(today) != len(predicted):
        raise DataError(
            f"today ({len(today)}) and predicted ({len(predicted)}) must have equal nonzero lengths"
        )
    total_today = float(sum(today))
    if total_today <= 0:
        raise ValueError(f"total capital today must be > 0, got {total_today}")
    return float(sum(predicted)) / total_today


def martingale_check(spec: BinomialSpec) -> MartingaleReport:
    """Whether the wealth process has unit expected per-step growth."""
    growth = per_step_growth(spec)
    return MartingaleReport(
        is_martingale=abs(growth - 1.0) <= MARTINGALE_TOL,
        per_step_growth=growth,
    )


def wald_log_expectation(spec: BinomialSpec, expected_days: float) -> float:
    """Expected total log growth for a random horizon with the given mean.

    Wald's identity for i.i.d. log increments under a stopping rule that is
    independent of the increments: E[sum] = E[N] * E[single step].
    """
    if not (math.isfinite(expected_days) and expected_days > 0):
        raise DataError(f"expected_days must be > 0, got {expected_days}")
    step = spec.p * math.log(spec.ror) + (1.0 - spec.p) * math.log(spec.rol)
    return expected_days * step
