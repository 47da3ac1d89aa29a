import dataclasses
import itertools
import json
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optioncast.errors import DataError
from optioncast.fusion import (
    REFERENCE_PRECISIONS,
    FusionReport,
    Metrics,
    joint_precision,
    unanimous_combine,
)


def bayes_enumeration_oracle(p1: float, p2: float) -> float:
    """Posterior of a positive outcome given two agreeing positive votes.

    Enumerates the joint outcomes of two symmetric, conditionally independent
    binary channels over a balanced prior, entirely independent of the
    closed-form implementation.
    """
    numerator = 0.0
    denominator = 0.0
    for truth, ok1, ok2 in itertools.product((0, 1), repeat=3):
        prob = 0.5
        prob *= p1 if ok1 else 1.0 - p1
        prob *= p2 if ok2 else 1.0 - p2
        vote1 = truth if ok1 else 1 - truth
        vote2 = truth if ok2 else 1 - truth
        if vote1 == 1 and vote2 == 1:
            denominator += prob
            if truth == 1:
                numerator += prob
    return numerator / denominator


def channel_predictions(rng, truth, precision):
    """Votes that match the truth with the given probability (symmetric channel)."""
    correct = rng.random(len(truth)) < precision
    return np.where(correct, truth, 1 - truth)


class TestJointPrecision:
    def test_headline_value(self):
        assert abs(joint_precision(0.56, 0.59) - 0.647) <= 5e-4

    def test_uninformative_partner_is_identity(self):
        for p in (0.1, 0.37, 0.5, 0.82):
            assert joint_precision(0.5, p) == pytest.approx(p, abs=1e-15)

    def test_against_enumeration_oracle(self):
        assert joint_precision(0.7, 0.7) == pytest.approx(
            bayes_enumeration_oracle(0.7, 0.7), abs=1e-15
        )
        assert joint_precision(0.7, 0.7) == pytest.approx(0.8448275862068966, abs=1e-12)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_matches_oracle_everywhere(self, p1, p2):
        assert joint_precision(p1, p2) == pytest.approx(
            bayes_enumeration_oracle(p1, p2), abs=1e-12
        )

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_symmetry(self, p1, p2):
        assert joint_precision(p1, p2) == joint_precision(p2, p1)

    @given(
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.02, max_value=0.98),
        st.floats(min_value=0.001, max_value=0.01),
    )
    def test_monotone_in_each_argument(self, p1, p2, bump):
        base = joint_precision(p1, p2)
        assert joint_precision(min(p1 + bump, 0.999), p2) > base
        assert joint_precision(p1, min(p2 + bump, 0.999)) > base

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_half_fixed_point(self, p):
        assert abs(joint_precision(p, 0.5) - p) <= 1e-15

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.floats(min_value=0.51, max_value=0.99),
    )
    def test_agreement_boosts_above_both(self, p1, p2):
        assert joint_precision(p1, p2) > max(p1, p2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_degenerate_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            joint_precision(bad, 0.6)
        with pytest.raises(ValueError):
            joint_precision(0.6, bad)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_pairwise_fold_is_associative(self, a, b, c):
        left = joint_precision(joint_precision(a, b), c)
        right = joint_precision(a, joint_precision(b, c))
        assert left == pytest.approx(right, abs=1e-12)


def exact_precision_vector(rng, n_votes=1000, n_correct=539, n_negative=500):
    """Predictions with exactly n_correct true positives out of n_votes."""
    preds = np.concatenate([np.ones(n_votes, dtype=int), np.zeros(n_negative, dtype=int)])
    truth = np.concatenate(
        [
            np.ones(n_correct, dtype=int),
            np.zeros(n_votes - n_correct, dtype=int),
            (rng.random(n_negative) < 0.5).astype(int),
        ]
    )
    order = rng.permutation(len(preds))
    return preds[order], truth[order]


class TestUnanimousCombine:
    def test_identical_correlated_models_fall_short_of_the_formula(self):
        rng = np.random.Generator(np.random.PCG64(8))
        preds, truth = exact_precision_vector(rng)
        report = unanimous_combine({"a": preds, "b": preds.copy()}, truth)
        assert report.empirical_joint == 0.539
        assert report.model_precisions == {"a": 0.539, "b": 0.539}
        assert report.theoretical_joint == pytest.approx(0.578, abs=5e-4)
        assert report.independence_gap < 0
        assert report.empirical_defined

    def test_independent_channels_match_the_formula(self):
        rng = np.random.Generator(np.random.PCG64(99))
        n = 100_000
        truth = (rng.random(n) < 0.5).astype(int)
        votes = {
            "m56": channel_predictions(rng, truth, 0.56),
            "m59": channel_predictions(rng, truth, 0.59),
        }
        report = unanimous_combine(votes, truth)
        assert abs(report.empirical_joint - 0.647) <= 0.02
        assert abs(report.independence_gap) <= 0.03

    def test_complementary_models_have_zero_coverage(self):
        rng = np.random.Generator(np.random.PCG64(4))
        n = 200
        truth = (rng.random(n) < 0.5).astype(int)
        votes_a = np.zeros(n, dtype=int)
        votes_a[: n // 2] = 1
        votes_b = 1 - votes_a
        # keep both precisions interior by flipping some truths
        report = unanimous_combine({"a": votes_a, "b": votes_b}, truth)
        assert report.coverage == 0.0
        assert report.empirical_joint == 0.0
        assert not report.empirical_defined

    def test_self_combination_is_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(21))
        preds, truth = exact_precision_vector(rng, n_votes=400, n_correct=300)
        report = unanimous_combine({"solo": preds, "again": preds}, truth)
        assert report.empirical_joint == report.model_precisions["solo"] == 0.75
        assert report.model_precisions["again"] == 0.75

    def test_three_models_fold(self):
        rng = np.random.Generator(np.random.PCG64(31))
        n = 50_000
        truth = (rng.random(n) < 0.5).astype(int)
        votes = {
            f"m{k}": channel_predictions(rng, truth, p)
            for k, p in enumerate((0.56, 0.59, 0.6))
        }
        report = unanimous_combine(votes, truth)
        expected = joint_precision(joint_precision(0.56, 0.59), 0.6)
        assert abs(report.empirical_joint - expected) <= 0.03

    def test_theoretical_joint_folds_every_model_passed(self):
        rng = np.random.Generator(np.random.PCG64(5))
        truth = (rng.random(20_000) < 0.5).astype(int)
        votes = {
            name: channel_predictions(rng, truth, p)
            for name, p in (("lstm", 0.56), ("qrm", 0.59), ("cnn", 0.6))
        }
        report = unanimous_combine(votes, truth)
        assert list(report.model_precisions) == ["lstm", "qrm", "cnn"]
        assert report.theoretical_joint == reduce(
            joint_precision, report.model_precisions.values()
        )

    def test_alignment_and_count_errors(self):
        truth = np.array([1, 0, 1])
        good = np.array([1, 0, 1])
        with pytest.raises(DataError, match="'b' have length"):
            unanimous_combine({"a": good, "b": np.array([1, 0])}, truth)
        with pytest.raises(DataError, match="at least 2"):
            unanimous_combine({"a": good}, truth)

    @pytest.mark.parametrize(
        "truth, match",
        [
            (np.array([1, 2, 0]), "truth must be a 1-d 0/1 vector"),
            (np.array([[1, 0, 1]]), "truth must be a 1-d 0/1 vector"),
            (np.array([], dtype=int), "truth must be nonempty"),
        ],
        ids=["not-0-1", "2-d", "empty"],
    )
    def test_truth_is_checked(self, truth, match):
        votes = {"a": np.ones(len(truth), dtype=int), "b": np.ones(len(truth), dtype=int)}
        with pytest.raises(DataError, match=match):
            unanimous_combine(votes, truth)

    def test_model_that_never_votes_positive_is_named(self):
        truth = np.array([1, 0, 1, 0])
        votes = {"active": np.array([1, 0, 1, 1]), "silent": np.zeros(4, dtype=int)}
        with pytest.raises(ValueError, match="'silent' makes no positive predictions"):
            unanimous_combine(votes, truth)

    def test_degenerate_recomputed_precision_propagates(self):
        truth = np.array([1, 1, 1, 0])
        votes = {"perfect": np.array([1, 1, 1, 0]), "other": np.array([1, 0, 1, 1])}
        with pytest.raises(ValueError):
            unanimous_combine(votes, truth)

    def test_json_payload(self):
        rng = np.random.Generator(np.random.PCG64(41))
        preds, truth = exact_precision_vector(rng, n_votes=100, n_correct=60)
        report = unanimous_combine({"a": preds, "b": preds.copy()}, truth)
        payload = dataclasses.asdict(report)
        assert set(payload) == {
            "theoretical_joint",
            "empirical_joint",
            "coverage",
            "independence_gap",
            "empirical_defined",
            "model_precisions",
        }
        assert payload["model_precisions"]["a"] == 0.6
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("bad", [np.array([0, 2, 1]), np.array([[1, 0, 1]])],
                             ids=["not-0-1", "2-d"])
    def test_vote_validation_names_the_model(self, bad):
        votes = {"good": np.array([1, 0, 1]), "bad": bad}
        with pytest.raises(DataError, match="predictions for 'bad' must be a 1-d 0/1 vector"):
            unanimous_combine(votes, np.array([1, 0, 1]))


def by_hand_combine(votes, truth):
    """``unanimous_combine``'s report with each precision divided out by hand."""
    precisions = {}
    combined = np.ones(len(truth), dtype=bool)
    for name, preds in votes.items():
        voted = preds == 1
        positives = int(voted.sum())
        if positives == 0:
            raise ValueError(
                f"model {name!r} makes no positive predictions; its precision is undefined"
            )
        precisions[name] = float(np.sum(voted & (truth == 1)) / positives)
        combined &= voted
    theoretical = reduce(joint_precision, precisions.values())
    unanimous = int(combined.sum())
    empirical = float(np.sum(combined & (truth == 1)) / unanimous) if unanimous else 0.0
    return FusionReport(theoretical, empirical, unanimous / len(truth),
                        empirical - theoretical, unanimous > 0, precisions)


def test_unanimous_combine_is_bitwise_the_by_hand_arithmetic():
    def outcome(combine, votes, truth):
        try:
            return repr(combine(votes, truth))  # repr tells every float apart, -0.0 too
        except ValueError as exc:
            return f"{type(exc).__name__}: {exc}"

    rng = np.random.Generator(np.random.PCG64(2024))
    kinds = Counter()
    for _ in range(200):
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, 2, size=n)
        votes = {f"m{k}": (rng.random(n) < rng.uniform(0.0, 0.9)).astype(int)
                 for k in range(int(rng.integers(2, 5)))}
        got = outcome(unanimous_combine, votes, truth)
        assert got == outcome(by_hand_combine, votes, truth)
        if got.startswith("FusionReport"):
            kinds["unanimous" if "empirical_defined=True" in got else "no unanimous vote"] += 1
        else:
            kinds["silent model" if "no positive" in got else "degenerate precision"] += 1
    assert set(kinds) == {"unanimous", "no unanimous vote", "silent model",
                          "degenerate precision"}, kinds


@pytest.mark.parametrize("seed", range(4))
def test_metrics_from_probs_counts_the_cells_by_hand(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = rng.choice([0.0, 0.2, 0.4999, 0.5, 0.7, 1.0], size=60)  # 0.5 is a positive call
    labels = rng.integers(0, 2, size=60)
    cells = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for prob, label in zip(probs, labels):
        call = prob >= 0.5
        cells[("t" if call == (label == 1) else "f") + ("p" if call else "n")] += 1
    assert Metrics.from_probs(probs, labels) == Metrics.from_counts(**cells)


def test_reference_precisions_fixture():
    assert REFERENCE_PRECISIONS == {
        "qrm": 0.5577,
        "binary_classification": 0.5956,
        "regression_nn": 0.6032,
        "cnn": 0.5714,
    }
    folded = joint_precision(
        REFERENCE_PRECISIONS["binary_classification"], REFERENCE_PRECISIONS["cnn"]
    )
    assert 0.5 < folded < 1.0
