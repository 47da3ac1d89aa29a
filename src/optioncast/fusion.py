"""Combining binary classifiers and diagnosing how independent they really are.

``joint_precision`` is the Bayes-updated precision of two classifiers that
agree on a positive call, assuming conditional independence and a balanced
prior:

    P = p1 * p2 / (p1 * p2 + (1 - p1) * (1 - p2))

That value is never applied as a corrected estimate here; it only serves as
the independence benchmark inside :func:`unanimous_combine`, whose
``independence_gap`` (empirical minus theoretical) quantifies how far a set
of correlated models falls short of the idealized formula.  :class:`Metrics`
holds the confusion counts that every precision here is read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import DataError, real, whole

__all__ = [
    "FusionReport",
    "Metrics",
    "REFERENCE_PRECISIONS",
    "joint_precision",
    "unanimous_combine",
]

# Precisions of the earlier model generations, shipped as demo fixtures.
REFERENCE_PRECISIONS = {
    "qrm": 0.5577,
    "binary_classification": 0.5956,
    "regression_nn": 0.6032,
    "cnn": 0.5714,
}


def joint_precision(p1: float, p2: float) -> float:
    """Precision of two independent agreeing classifiers under a balanced prior.

    Both inputs must lie strictly inside (0, 1); the formula degenerates at
    certainty and the caller must handle those cases itself.
    """
    p1, p2 = (real(p, f"{name} must lie strictly in (0, 1)", lambda x: 0.0 < x < 1.0)
              for name, p in (("p1", p1), ("p2", p2)))
    agree = p1 * p2
    return agree / (agree + (1.0 - p1) * (1.0 - p2))


# P(up) at or above this is an up call, in the metrics here and in the backtest.
CLASSIFIER_THRESHOLD = 0.5


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the derived rates.

    ``precision``/``recall`` are reported as 0.0 with the matching
    ``*_defined`` flag cleared when their denominator is empty.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    precision_defined: bool
    recall_defined: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        tp, fp, tn, fn = (whole(v, f"{name} must be a nonnegative integer")
                          for name, v in (("tp", tp), ("fp", fp), ("tn", tn), ("fn", fn)))
        total = tp + fp + tn + fn
        if total == 0:
            raise DataError("cannot compute metrics from an empty confusion matrix")
        return cls(
            tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / total,
            precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
            recall=tp / (tp + fn) if tp + fn > 0 else 0.0,
            precision_defined=tp + fp > 0,
            recall_defined=tp + fn > 0,
        )

    @classmethod
    def from_probs(cls, probs: np.ndarray, labels: np.ndarray) -> "Metrics":
        """Threshold ``probs`` (or 0/1 votes) at 0.5 and count them against 0/1 ``labels``."""
        preds, actual = np.asarray(probs) >= CLASSIFIER_THRESHOLD, np.asarray(labels) == 1
        return cls.from_counts(tp=int(np.sum(preds & actual)), fp=int(np.sum(preds & ~actual)),
                               tn=int(np.sum(~preds & ~actual)), fn=int(np.sum(~preds & actual)))


@dataclass(frozen=True)
class FusionReport:
    """Unanimous-vote combination outcome.

    ``empirical_defined`` is False when no sample received a unanimous
    positive vote, in which case ``empirical_joint`` is reported as 0.
    """

    theoretical_joint: float
    empirical_joint: float
    coverage: float
    independence_gap: float
    empirical_defined: bool
    model_precisions: dict[str, float]


def unanimous_combine(votes: Mapping[str, np.ndarray], truth: np.ndarray) -> FusionReport:
    """Combine models that only vote positive when every model does.

    ``votes`` maps each model's name to its 1-d 0/1 vote vector, aligned with
    ``truth``; a mapping holds each name once, so the fold covers every model
    passed.  ``empirical_joint`` is the precision of the unanimous predictor,
    ``theoretical_joint`` the independence formula folded over the per-model
    precisions, and ``coverage`` the fraction of samples with a unanimous
    positive vote.
    """
    if len(votes) < 2:
        raise DataError(f"need at least 2 models, got {len(votes)}")
    truth = np.asarray(truth)
    if truth.ndim != 1 or not np.all((truth == 0) | (truth == 1)):
        raise DataError("truth must be a 1-d 0/1 vector")
    n = len(truth)
    if n == 0:
        raise DataError("truth must be nonempty")

    precisions: dict[str, float] = {}
    combined = np.ones(n, dtype=bool)
    for name, preds in votes.items():
        preds = np.asarray(preds)
        if preds.ndim != 1 or not np.all((preds == 0) | (preds == 1)):
            raise DataError(f"predictions for {name!r} must be a 1-d 0/1 vector")
        if len(preds) != n:
            raise DataError(
                f"predictions for {name!r} have length {len(preds)}, "
                f"but truth has length {n}"
            )
        model = Metrics.from_probs(preds, truth)
        if not model.precision_defined:
            raise ValueError(
                f"model {name!r} makes no positive predictions; its precision is undefined"
            )
        precisions[name] = model.precision
        combined &= preds == 1

    # The odds-product form makes the pairwise fold order-independent.
    theoretical = reduce(joint_precision, precisions.values())
    unanimous = Metrics.from_probs(combined, truth)
    return FusionReport(
        theoretical_joint=theoretical,
        empirical_joint=unanimous.precision,
        coverage=(unanimous.tp + unanimous.fp) / n,
        independence_gap=unanimous.precision - theoretical,
        empirical_defined=unanimous.precision_defined,
        model_precisions=precisions,
    )
