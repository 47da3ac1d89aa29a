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

:func:`build_sequences` emits raw windows.  The classifier owns their scaling:
:mod:`optioncast.lstm` computes per-feature z-score statistics from its
training split alone and applies them to every window it reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Sequence

import numpy as np

from .bs_core import call_price
from .errors import DataError, whole

__all__ = [
    "CSV_COLUMNS",
    "FEATURE_NAMES",
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
            if not math.isfinite(value):
                raise DataError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
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
        if not (math.isfinite(self.s0) and self.s0 > 0):
            raise DataError(f"s0 must be > 0, got {self.s0}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DataError(f"sigma must be >= 0, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise DataError(f"mu must be finite, got {self.mu}")
        if not math.isfinite(self.rate):
            raise DataError(f"rate must be finite, got {self.rate}")
        object.__setattr__(self, "n_days", whole(
            self.n_days, f"n_days must be an integer >= 12, got {self.n_days}", 12))
        object.__setattr__(self, "seed", whole(
            self.seed, f"seed must be an unsigned 64-bit integer, got {self.seed}", 0, 2**64 - 1))
        if not (math.isfinite(self.spread_bp) and self.spread_bp >= 0):
            raise DataError(f"spread_bp must be >= 0, got {self.spread_bp}")


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
    0.0 since no prior day exists.
    """
    if len(minimizers) != len(records):
        raise DataError(
            f"minimizers ({len(minimizers)}) must align 1:1 with records ({len(records)})"
        )
    n = len(records)
    out = np.empty((n, N_FEATURES))
    for k, (rec, est) in enumerate(zip(records, minimizers)):
        est = float(est)
        if not math.isfinite(est):
            raise DataError(f"minimizer estimate for day {k} is not finite")
        o_mid, s_mid = rec.option_mid, rec.stock_mid
        if k == 0:
            o_ret, s_ret = 0.0, 0.0
        else:
            prev = records[k - 1]
            o_ret = o_mid / prev.option_mid - 1.0 if prev.option_mid > 0 else 0.0
            s_ret = s_mid / prev.stock_mid - 1.0
        out[k] = (
            est,
            rec.implied_vol,
            rec.option_bid,
            rec.option_ask,
            rec.stock_bid,
            rec.stock_ask,
            rec.strike,
            o_mid,
            s_mid,
            o_ret,
            s_ret,
            s_mid / rec.strike,
            (n - 1 - k) / (n - 1) if n > 1 else 0.0,
        )
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
    n = len(records)
    samples = []
    for start in range(0, n - WINDOW_LENGTH):
        end = start + WINDOW_LENGTH - 1
        cur = records[end].option_mid
        nxt = records[end + 1].option_mid
        if nxt == cur:
            continue
        samples.append(
            SequenceSample(
                window=features[start : start + WINDOW_LENGTH].copy(),
                label=1 if nxt > cur else 0,
                end_index=end,
            )
        )
    return samples
