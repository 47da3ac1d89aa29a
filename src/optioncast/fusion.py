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
from typing import Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "FusionReport",
    "ModelReport",
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
class ModelReport:
    """A named per-sample 0/1 prediction vector.

    :func:`unanimous_combine` computes each model's precision against the
    supplied ground truth.
    """

    name: str
    predictions: np.ndarray

    def __post_init__(self) -> None:
        preds = np.asarray(self.predictions)
        if preds.ndim != 1 or not np.all((preds == 0) | (preds == 1)):
            raise DataError(f"predictions for {self.name!r} must be a 1-d 0/1 vector")


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

    def to_json(self) -> dict:
        return {
            "theoretical_joint": self.theoretical_joint,
            "empirical_joint": self.empirical_joint,
            "coverage": self.coverage,
            "independence_gap": self.independence_gap,
            "empirical_defined": self.empirical_defined,
            "model_precisions": dict(self.model_precisions),
        }


def unanimous_combine(reports: Sequence[ModelReport], truth: np.ndarray) -> FusionReport:
    """Combine models that only vote positive when every model does.

    ``empirical_joint`` is the precision of the unanimous predictor,
    ``theoretical_joint`` the independence formula folded over the recomputed
    per-model precisions, and ``coverage`` the fraction of samples with a
    unanimous positive vote.
    """
    if len(reports) < 2:
        raise DataError(f"need at least 2 model reports, got {len(reports)}")
    truth = np.asarray(truth)
    if truth.ndim != 1 or not np.all((truth == 0) | (truth == 1)):
        raise DataError("truth must be a 1-d 0/1 vector")
    n = len(truth)
    if n == 0:
        raise DataError("truth must be nonempty")

    precisions: dict[str, float] = {}
    for report in reports:
        preds = np.asarray(report.predictions)
        if len(preds) != n:
            raise DataError(
                f"predictions for {report.name!r} have length {len(preds)}, "
                f"but truth has length {n}"
            )
        positives = int(preds.sum())
        if positives == 0:
            raise ValueError(
                f"model {report.name!r} makes no positive predictions; "
                "its precision is undefined"
            )
        precisions[report.name] = float(np.sum((preds == 1) & (truth == 1)) / positives)

    # The odds-product form makes the pairwise fold order-independent.
    theoretical = reduce(joint_precision, precisions.values())

    combined = np.ones(n, dtype=bool)
    for report in reports:
        combined &= np.asarray(report.predictions) == 1
    unanimous = int(combined.sum())
    coverage = unanimous / n
    if unanimous > 0:
        empirical = float(np.sum(combined & (truth == 1)) / unanimous)
        defined = True
    else:
        empirical = 0.0
        defined = False
    return FusionReport(
        theoretical_joint=theoretical,
        empirical_joint=empirical,
        coverage=coverage,
        independence_gap=empirical - theoretical,
        empirical_defined=defined,
        model_precisions=precisions,
    )
