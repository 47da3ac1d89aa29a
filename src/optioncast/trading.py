"""Threshold trading rule and its daily bid/ask backtest.

The rule buys one option contract on day k whenever the one-day-ahead
estimate is at least the price payable now (the current ask), enters at the
day-k ask and exits unconditionally at the day-(k+1) bid, so every trade
pays the spread.  In classifier mode the signal is a probability and the
threshold is 0.5.  The last day never opens a trade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Sequence

from .errors import DataError
from .fusion import CLASSIFIER_THRESHOLD
from .market_data import QuoteRecord

__all__ = [
    "BacktestResult",
    "TradeDecision",
    "backtest",
    "est_covers",
]

BUY = "buy"
ABSTAIN = "abstain"


@dataclass(frozen=True)
class TradeDecision:
    """One tradable day: the action and its realized P&L, None on abstain days."""

    day: date
    action: str
    pnl: float | None


def est_covers(est: float, threshold: float) -> bool:
    """The buy rule est >= threshold, boundary included.

    The threshold is the day's ask in qrm mode and 0.5 in classifier mode.
    A nan on either side compares false, so a missing signal never trades;
    neither does a non-positive threshold (a zero ask).
    """
    return threshold > 0 and est >= threshold


@dataclass(frozen=True)
class BacktestResult:
    """Per-day decisions, the cumulative P&L curve, and trade statistics."""

    decisions: list[TradeDecision]
    equity_curve: list[float]
    final_pnl: float
    n_trades: int
    hit_rate: float


def backtest(
    records: Sequence[QuoteRecord],
    signals: Sequence[float | None],
    mode: str = "qrm",
) -> BacktestResult:
    """Run the rule over a series with day-aligned signals.

    ``signals[k]`` drives the day-k decision: a price estimate compared
    against the day-k ask in ``"qrm"`` mode, a probability compared against
    0.5 in ``"classifier"`` mode, or None to abstain.  A buy enters at the
    day-k ask and exits at the day-(k+1) bid.  A day quoted with an ask
    <= 0 has no signal (est = nan) in both modes: the loader accepts it, but
    no trade can enter at that price.
    """
    if mode not in ("qrm", "classifier"):
        raise DataError(f"mode must be 'qrm' or 'classifier', got {mode!r}")
    if len(signals) != len(records):
        raise DataError(
            f"signals ({len(signals)}) must align 1:1 with records ({len(records)})"
        )
    if len(records) < 2:
        raise DataError(f"need at least 2 records to backtest, got {len(records)}")

    decisions: list[TradeDecision] = []
    equity_curve: list[float] = []
    cumulative = 0.0
    wins = 0
    n_trades = 0
    for k in range(len(records) - 1):
        rec = records[k]
        signal = signals[k]
        est = math.nan if signal is None or rec.option_ask <= 0 else float(signal)
        threshold = rec.option_ask if mode == "qrm" else CLASSIFIER_THRESHOLD
        action = BUY if est_covers(est, threshold) else ABSTAIN
        pnl = None
        if action == BUY:
            pnl = records[k + 1].option_bid - rec.option_ask
            cumulative += pnl
            n_trades += 1
            if pnl > 0:
                wins += 1
        decisions.append(TradeDecision(day=rec.day, action=action, pnl=pnl))
        equity_curve.append(cumulative)
    return BacktestResult(
        decisions=decisions,
        equity_curve=equity_curve,
        final_pnl=cumulative,
        n_trades=n_trades,
        hit_rate=wins / n_trades if n_trades else 0.0,
    )

