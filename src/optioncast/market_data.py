"""Quote-series ingestion, synthetic market data, and classifier windows.

CSV schema (header required, comma separated, '.' decimal point):

    date,option_bid,option_ask,stock_bid,stock_ask,strike,implied_vol,rate

Files written by :func:`save_csv` with a seed carry one leading comment line
``# seed=<u64> generator=pcg64-standard-normal`` recording the PRNG contract;
:func:`load_csv` ignores ``#`` comment lines.

Feature layout (one 13-wide vector per trading day, see ``FEATURE_NAMES``):

     0  prior-day price-extrapolation estimate (QRM minimizer)
     1  implied volatility
     2  option bid          3  option ask
     4  stock bid           5  stock ask
     6  strike              7  option mid      8  stock mid
     9  1-day option-mid return (0.0 on the first day)
    10  1-day stock-mid return (0.0 on the first day)
    11  moneyness, stock mid / strike
    12  fraction of the series remaining, (n-1-k)/(n-1)

:func:`build_sequences` emits raw windows.  Every classifier splits them with
:func:`split` and z-scores both sets with the :class:`FeatureStats` of its
training windows alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .bs_core import call_price
from .errors import DataError, real, whole

__all__ = [
    "CSV_COLUMNS",
    "FEATURE_NAMES",
    "FeatureStats",
    "GENERATOR_ID",
    "QuoteRecord",
    "SequenceSample",
    "SYNTHETIC_MATURITY_YEARS",
    "SYNTHETIC_STRIKE_FRAC",
    "SyntheticSpec",
    "TRADING_DAY_YEARS",
    "WINDOW_LENGTH",
    "build_sequences",
    "feature_matrix",
    "generate_gbm",
    "load_csv",
    "save_csv",
    "split",
    "stack",
]

TRADING_DAY_YEARS = 1.0 / 252.0
GENERATOR_ID = "pcg64-standard-normal"
WINDOW_LENGTH = 10

CSV_COLUMNS = [
    "date",
    "option_bid",
    "option_ask",
    "stock_bid",
    "stock_ask",
    "strike",
    "implied_vol",
    "rate",
]

FEATURE_NAMES = [
    "prior_minimizer_estimate",
    "implied_vol",
    "option_bid",
    "option_ask",
    "stock_bid",
    "stock_ask",
    "strike",
    "option_mid",
    "stock_mid",
    "option_mid_return_1d",
    "stock_mid_return_1d",
    "moneyness",
    "series_time_remaining",
]

N_FEATURES = len(FEATURE_NAMES)

# Synthetic contract: strike at 30% of the initial spot with a fixed residual
# maturity, so the option is deep in the money and tracks the stock closely.
SYNTHETIC_STRIKE_FRAC = 0.3
SYNTHETIC_MATURITY_YEARS = 0.5
_SYNTHETIC_START = date(2020, 1, 1)


@dataclass(frozen=True)
class QuoteRecord:
    """One trading day of option and stock quotes for a single contract."""

    day: date
    option_bid: float
    option_ask: float
    stock_bid: float
    stock_ask: float
    strike: float
    implied_vol: float
    rate: float

    def __post_init__(self) -> None:
        for name in CSV_COLUMNS[1:]:
            value = getattr(self, name)
            object.__setattr__(self, name, real(value, f"{name} must be finite"))
        if self.option_bid < 0:
            raise DataError(f"option_bid must be >= 0, got {self.option_bid}")
        if self.option_ask < self.option_bid:
            raise DataError(
                f"option_ask must be >= option_bid, got {self.option_ask} < {self.option_bid}"
            )
        if self.stock_bid <= 0:
            raise DataError(f"stock_bid must be > 0, got {self.stock_bid}")
        if self.stock_ask < self.stock_bid:
            raise DataError(
                f"stock_ask must be >= stock_bid, got {self.stock_ask} < {self.stock_bid}"
            )
        if self.strike <= 0:
            raise DataError(f"strike must be > 0, got {self.strike}")
        if self.implied_vol < 0:
            raise DataError(f"implied_vol must be >= 0, got {self.implied_vol}")

    @property
    def option_mid(self) -> float:
        return 0.5 * (self.option_bid + self.option_ask)

    @property
    def stock_mid(self) -> float:
        return 0.5 * (self.stock_bid + self.stock_ask)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a geometric-Brownian-motion quote series.

    The stock mid follows the exact one-step update
    ``s[k+1] = s[k] * exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z[k])`` with
    dt = 1/252 years; the option mid is the closed-form call value struck at
    ``SYNTHETIC_STRIKE_FRAC * s0`` with the fixed residual maturity
    ``SYNTHETIC_MATURITY_YEARS``, and bid/ask are the mid shifted
    multiplicatively by half the spread.  Output is a pure function of the spec.
    """

    s0: float
    sigma: float
    mu: float = 0.0
    rate: float = 0.0
    n_days: int = 252
    seed: int = 0
    spread_bp: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", real(self.s0, "s0 must be > 0", lambda x: x > 0))
        object.__setattr__(self, "sigma", real(self.sigma, "sigma must be >= 0", lambda x: x >= 0))
        object.__setattr__(self, "mu", real(self.mu, "mu must be finite"))
        object.__setattr__(self, "rate", real(self.rate, "rate must be finite"))
        object.__setattr__(
            self, "n_days", whole(self.n_days, "n_days must be an integer >= 12", 12))
        object.__setattr__(self, "seed", whole(
            self.seed, "seed must be an unsigned 64-bit integer", 0, 2**64 - 1))
        object.__setattr__(self, "spread_bp", real(
            self.spread_bp, "spread_bp must be >= 0", lambda x: x >= 0))


@dataclass(frozen=True)
class SequenceSample:
    """Ten consecutive feature days plus the next-day direction label.

    ``end_index`` is the index (into the source record list) of the last day
    in the window; the label compares the option mid of day ``end_index + 1``
    against day ``end_index``.
    """

    window: np.ndarray
    label: int
    end_index: int

    def __post_init__(self) -> None:
        if self.window.shape != (WINDOW_LENGTH, N_FEATURES):
            raise DataError(
                f"window must have shape {(WINDOW_LENGTH, N_FEATURES)}, got {self.window.shape}"
            )
        if not np.all(np.isfinite(self.window)):
            raise DataError("window entries must all be finite")
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")


def split(samples: Sequence[SequenceSample], train_frac: float):
    """The first round(train_frac * n) samples, at least 1 and at most n - 1, and the rest."""
    if len(samples) < 2:
        raise DataError("need at least 2 samples to split into train and validation"
                        if samples else "cannot train on zero samples")
    n_train = min(max(int(round(train_frac * len(samples))), 1), len(samples) - 1)
    return samples[:n_train], samples[n_train:]


def stack(samples: Sequence[SequenceSample]) -> np.ndarray:
    """The samples' windows as a new float64 (B, T, features) array."""
    return np.stack([s.window for s in samples]).astype(np.float64, copy=False)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and standard deviation used for z-scoring."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != (N_FEATURES,) or self.std.shape != (N_FEATURES,):
            raise DataError(f"feature stats must be {N_FEATURES}-wide vectors")
        if not np.all(np.isfinite(self.mean)):
            raise DataError("feature stats mean must be finite")
        if not np.all(np.isfinite(self.std) & (self.std > 0)):
            raise DataError("feature stats std must be finite and > 0")

    @classmethod
    def from_windows(cls, windows: np.ndarray) -> "FeatureStats":
        """Mean and std over every day of (B, T, features) windows; a std below 1e-12 is 1."""
        days = windows.reshape(-1, N_FEATURES)
        # A feature near the float64 limit overflows its std, which __post_init__
        # then rejects; numpy's warnings would repeat that error.
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = days.mean(axis=0), days.std(axis=0)
        return cls(mean=mean, std=np.where(std < 1e-12, 1.0, std))

    def zscore(self, windows: np.ndarray) -> np.ndarray:
        """Z-score a freshly stacked (B, T, features) array in place and return it."""
        windows -= self.mean
        windows /= self.std
        return windows


def _parse_row(row: Sequence[str], line_no: int) -> QuoteRecord:
    if len(row) != len(CSV_COLUMNS):
        raise DataError(
            f"row {line_no}: expected {len(CSV_COLUMNS)} columns, got {len(row)}"
        )
    try:
        day = date.fromisoformat(row[0].strip())
        values = [float(v) for v in row[1:]]
    except ValueError as exc:
        raise DataError(f"row {line_no}: {exc}") from exc
    try:
        return QuoteRecord(day, *values)
    except DataError as exc:
        raise DataError(f"row {line_no}: {exc}") from exc


def load_csv(path) -> list[QuoteRecord]:
    """Load and validate a quote series, returned sorted by date."""
    with open(path, newline="") as fh:
        lines = [
            (i + 1, line)
            for i, line in enumerate(fh)
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not lines:
        raise DataError(f"{path}: file has no content")
    header = next(csv.reader([lines[0][1]]))
    if [h.strip() for h in header] != CSV_COLUMNS:
        raise DataError(f"{path}: header must be {','.join(CSV_COLUMNS)!r}")
    body = lines[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    records = [
        _parse_row(next(csv.reader([line])), line_no) for line_no, line in body
    ]
    records.sort(key=lambda r: r.day)
    for prev, cur in zip(records, records[1:]):
        if cur.day == prev.day:
            raise DataError(f"duplicated date {cur.day.isoformat()}")
    return records


def save_csv(records: Sequence[QuoteRecord], path, seed: int | None = None) -> None:
    """Write records in the schema above; ``repr`` keeps floats round-trip exact."""
    if not records:
        raise DataError("cannot write an empty record list")
    with open(path, "w", newline="") as fh:
        if seed is not None:
            fh.write(f"# seed={seed} generator={GENERATOR_ID}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in records:
            fields = [r.day.isoformat()] + [
                repr(getattr(r, name)) for name in CSV_COLUMNS[1:]
            ]
            fh.write(",".join(fields) + "\n")


def _gbm_stock_path(s0: float, sigma: float, mu: float, shocks: np.ndarray) -> np.ndarray:
    """Apply the exact GBM update once per shock; returns len(shocks)+1 mids."""
    path = np.empty(len(shocks) + 1)
    path[0] = s0
    drift = (mu - 0.5 * sigma * sigma) * TRADING_DAY_YEARS
    scale = sigma * math.sqrt(TRADING_DAY_YEARS)
    for k, z in enumerate(shocks):
        path[k + 1] = path[k] * math.exp(drift + scale * z)
    return path


def generate_gbm(spec: SyntheticSpec) -> list[QuoteRecord]:
    """Generate a synthetic quote series; deterministic for a fixed spec."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    shocks = rng.standard_normal(spec.n_days - 1)
    stock = _gbm_stock_path(spec.s0, spec.sigma, spec.mu, shocks)
    strike = SYNTHETIC_STRIKE_FRAC * spec.s0
    half = 0.5 * spec.spread_bp * 1e-4
    records = []
    for k in range(spec.n_days):
        option = call_price(stock[k], SYNTHETIC_MATURITY_YEARS, strike, spec.sigma, spec.rate)
        records.append(
            QuoteRecord(
                day=_SYNTHETIC_START + timedelta(days=k),
                option_bid=option * (1.0 - half),
                option_ask=option * (1.0 + half),
                stock_bid=stock[k] * (1.0 - half),
                stock_ask=stock[k] * (1.0 + half),
                strike=strike,
                implied_vol=spec.sigma,
                rate=spec.rate,
            )
        )
    return records


def feature_matrix(records: Sequence[QuoteRecord], minimizers: Sequence[float]) -> np.ndarray:
    """Per-day feature rows in the ``FEATURE_NAMES`` layout.

    ``minimizers`` must align 1:1 with ``records``; day-0 return features are
    0.0 since no prior day exists, and so is an option return after a zero
    option mid.
    """
    if len(minimizers) != len(records):
        raise DataError(
            f"minimizers ({len(minimizers)}) must align 1:1 with records ({len(records)})"
        )
    n = len(records)
    out = np.zeros((n, N_FEATURES))
    out[:, 0] = minimizers
    bad = np.flatnonzero(~np.isfinite(out[:, 0]))
    if bad.size:
        raise DataError(f"minimizer estimate for day {bad[0]} is not finite")
    fields = FEATURE_NAMES[1:9]
    out[:, 1:9] = np.reshape([[getattr(rec, f) for f in fields] for rec in records], (n, 8))
    mids = out[:, 7:9]
    # Quotes near the float64 limit overflow to inf, as Python floats do.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out[1:, 9:11] = mids[1:] / mids[:-1] - 1.0
        out[1:, 9] = np.where(mids[:-1, 0] > 0, out[1:, 9], 0.0)
        out[:, 11] = out[:, 8] / out[:, 6]
    out[:, 12] = (n - 1 - np.arange(n)) / max(n - 1, 1)
    return out


def build_sequences(
    records: Sequence[QuoteRecord], minimizers: Sequence[float]
) -> list[SequenceSample]:
    """Every stride-1 window of 10 consecutive days with a defined label.

    A window ending on day k is labeled by sign(option_mid[k+1] - option_mid[k]);
    ties are dropped rather than labeled.  With n records and no ties this
    yields max(0, n - 10) samples.
    """
    features = feature_matrix(records, minimizers)
    cur, nxt = features[WINDOW_LENGTH - 1 : -1, 7], features[WINDOW_LENGTH:, 7]
    up = nxt > cur
    return [
        SequenceSample(window=features[start : start + WINDOW_LENGTH].copy(),
                       label=int(up[start]), end_index=start + WINDOW_LENGTH - 1)
        for start in np.flatnonzero(nxt != cur).tolist()
    ]
