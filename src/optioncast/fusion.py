"""Combining binary classifiers and diagnosing how independent they really are.

``joint_precision`` is the Bayes-updated precision of two classifiers that
agree on a positive call, assuming conditional independence and a balanced
prior:

    P = p1 * p2 / (p1 * p2 + (1 - p1) * (1 - p2))

That value is never applied as a corrected estimate here; it only serves as
the independence benchmark inside :func:`unanimous_combine`, whose
``independence_gap`` (empirical minus theoretical) quantifies how far a set
of correlated models falls short of the idealized formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import DataError

__all__ = [
    "FusionReport",
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
    for name, p in (("p1", p1), ("p2", p2)):
        if not (math.isfinite(p) and 0.0 < p < 1.0):
            raise ValueError(f"{name} must lie strictly in (0, 1), got {p}")
    agree = p1 * p2
    return agree / (agree + (1.0 - p1) * (1.0 - p2))


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
        voted = preds == 1
        positives = int(voted.sum())
        if positives == 0:
            raise ValueError(
                f"model {name!r} makes no positive predictions; its precision is undefined"
            )
        precisions[name] = float(np.sum(voted & (truth == 1)) / positives)
        combined &= voted

    # The odds-product form makes the pairwise fold order-independent.
    theoretical = reduce(joint_precision, precisions.values())
    unanimous = int(combined.sum())
    empirical = float(np.sum(combined & (truth == 1)) / unanimous) if unanimous else 0.0
    return FusionReport(
        theoretical_joint=theoretical,
        empirical_joint=empirical,
        coverage=unanimous / n,
        independence_gap=empirical - theoretical,
        empirical_defined=unanimous > 0,
        model_precisions=precisions,
    )
