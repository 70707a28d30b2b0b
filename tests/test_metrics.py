from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lexisent import metrics as evalm
from lexisent.metrics import (
    ConfusionMatrix,
    aggregate_per_class,
    confusion,
    display_round,
    metrics,
    metrics_table,
    roc,
    roc_one_vs_rest,
)

POLARITIES = ("negative", "neutral", "positive")


def pair_count_auc(y_true, scores):
    """Brute-force Mann-Whitney AUC: concordant pairs over all pos/neg pairs,
    half credit for ties."""
    positives = [s for t, s in zip(y_true, scores) if t == 1]
    negatives = [s for t, s in zip(y_true, scores) if t == 0]
    wins = 0.0
    for p, n in itertools.product(positives, negatives):
        if p > n:
            wins += 1.0
        elif p == n:
            wins += 0.5
    return wins / (len(positives) * len(negatives))


class TestConfusion:
    def test_diagonal_when_perfect(self):
        cm = confusion(["a", "b", "a"], ["a", "b", "a"], ["a", "b"])
        assert cm.counts == ((2, 0), (0, 1))

    def test_three_class_published_matrix(self):
        y_true = ["negative"] * 151 + ["neutral"] * 3 + ["positive"] * 154
        y_pred = ["negative"] * 151 + ["negative"] * 3 + ["positive"] * 154
        cm = confusion(y_true, y_pred, POLARITIES)
        assert cm.counts[1][0] == 3
        assert (cm.counts[0][0], cm.counts[1][1], cm.counts[2][2]) == (151, 0, 154)

    def test_empty_inputs_give_zero_matrix(self):
        cm = confusion([], [], ["a", "b"])
        assert cm.total == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion(["a"], [], ["a"])

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown"):
            confusion(["a"], ["z"], ["a", "b"])

    def test_repeated_class_name_is_refused(self):
        # A lookup by name would file every "a" under the last position, 2.
        with pytest.raises(ValueError, match="^class names repeats 'a'$"):
            confusion(["a", "b"], ["a", "b"], ["a", "b", "a"])


class TestMetrics:
    @pytest.fixture
    def published_cm(self):
        return ConfusionMatrix(
            POLARITIES, ((151, 0, 0), (3, 0, 0), (0, 0, 154))
        )

    def test_published_matrix_reproduces_table(self, published_cm):
        report = metrics(published_cm)
        assert report.accuracy == pytest.approx(305 / 308)
        assert display_round(report.accuracy) == "0.99"
        negative = report.per_class[0]
        assert (display_round(negative.precision), display_round(negative.recall),
                display_round(negative.f1), negative.support) == ("0.98", "1", "0.99", 151)
        neutral = report.per_class[1]
        assert (neutral.precision, neutral.recall, neutral.f1, neutral.support) == (0, 0, 0, 3)
        positive = report.per_class[2]
        assert (positive.precision, positive.recall, positive.f1) == (1.0, 1.0, 1.0)
        assert [display_round(v) for v in report.macro_avg] == ["0.66", "0.67", "0.66"]
        assert [display_round(v) for v in report.weighted_avg] == ["0.98", "0.99", "0.99"]
        assert report.total_support == 308
        assert report.majority_accuracy == 154 / 308
        assert report.to_json_dict()["majority_accuracy"] == 154 / 308

    def test_weighted_f1_from_published_per_class_rows(self):
        per_class = [
            (0.0, 0.0, 0.0, 1), (0.0, 0.0, 0.0, 1), (0.0, 0.0, 0.0, 5),
            (0.0, 0.0, 0.0, 2), (0.21, 0.71, 0.32, 7), (0.68, 0.96, 0.8, 402),
            (0.79, 0.94, 0.86, 16), (0.0, 0.0, 0.0, 5), (0.52, 0.07, 0.12, 203),
        ]
        macro, weighted = aggregate_per_class(per_class)
        assert display_round(weighted[2]) == "0.56"
        assert display_round(weighted[0]) == "0.61"
        assert display_round(macro[0]) == "0.24"
        assert sum(row[3] for row in per_class) == 642

    def test_identity_single_class(self):
        report = metrics(confusion(["x"] * 5, ["x"] * 5, ["x"]))
        assert report.accuracy == 1.0
        assert report.per_class[0] == report.per_class[0].__class__(1.0, 1.0, 1.0, 5)

    def test_unpredicted_class_gets_zeros(self):
        cm = confusion(["a", "b"], ["a", "a"], ["a", "b"])
        report = metrics(cm)
        assert report.per_class[1].precision == 0.0
        assert report.per_class[1].recall == 0.0
        assert report.per_class[1].f1 == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 3, 60)
        y_pred = rng.integers(0, 3, 60)
        names = [POLARITIES[i] for i in range(3)]
        base = metrics(confusion([names[t] for t in y_true], [names[p] for p in y_pred], names))
        perm = rng.permutation(60)
        shuffled = metrics(confusion(
            [names[y_true[i]] for i in perm], [names[y_pred[i]] for i in perm], names
        ))
        assert base == shuffled

    def test_weighted_avg_between_min_and_max(self):
        cm = confusion(
            ["a"] * 5 + ["b"] * 15, ["a"] * 3 + ["b"] * 2 + ["b"] * 14 + ["a"], ["a", "b"]
        )
        report = metrics(cm)
        values = [m.f1 for m in report.per_class]
        assert min(values) <= report.weighted_avg[2] <= max(values)

    def test_table_layout(self, published_cm):
        table = metrics_table(metrics(published_cm))
        lines = table.splitlines()
        assert "Precision" in lines[0] and "Support" in lines[0]
        assert lines[1].startswith("negative")
        assert "0.98" in lines[1] and "151" in lines[1]
        assert any(l.startswith("weighted avg") for l in lines)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_reversed_scores(self):
        assert roc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]).auc == 0.0

    def test_reversal_symmetry(self):
        labels = [1, 0, 1, 0, 1, 0, 0]
        scores = [0.9, 0.8, 0.7, 0.5, 0.45, 0.3, 0.1]
        forward = roc(labels, scores).auc
        backward = roc(labels, [-s for s in scores]).auc
        assert backward == pytest.approx(1.0 - forward, abs=1e-12)

    def test_four_point_hand_oracle(self):
        labels = [1, 0, 1, 0]
        scores = [0.9, 0.8, 0.4, 0.3]
        expected = pair_count_auc(labels, scores)
        assert expected == 0.75
        assert roc(labels, scores).auc == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc([1, 1], [0.5, 0.4])

    def test_monotone_points(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=50)
        curve = roc(labels.tolist(), scores.tolist())
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs) and ys == sorted(ys)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_trapezoid_equals_pair_count_on_tie_free_scores(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        scores = rng.permutation(np.arange(n)).astype(float) / n
        expected = pair_count_auc(labels.tolist(), scores.tolist())
        assert roc(labels.tolist(), scores.tolist()).auc == pytest.approx(expected, abs=1e-12)

    def test_one_vs_rest_produces_curve_per_class(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, 40).tolist()
        proba = rng.dirichlet(np.ones(3), size=40)
        curves = roc_one_vs_rest(y, proba, POLARITIES)
        assert set(curves) == set(POLARITIES)
        for name, curve in curves.items():
            assert curve.positive_class == name
            assert 0.0 <= curve.auc <= 1.0

    def test_one_vs_rest_skips_absent_class(self):
        proba = np.full((4, 3), 1 / 3)
        curves = roc_one_vs_rest([0, 0, 2, 2], proba, POLARITIES)
        assert "neutral" not in curves


def reference_roc(y_true, scores, positive_class="positive"):
    """``roc`` as it swept each group of equal scores one element at a time."""
    y = np.asarray(y_true, dtype=int)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = len(y_sorted)
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            tp += int(y_sorted[j] == 1)
            fp += int(y_sorted[j] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    fpr = np.array([p[0] for p in points])
    tpr = np.array([p[1] for p in points])
    auc = float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))
    return evalm.RocCurve(positive_class, tuple(points), auc)


def float_bits(curve):
    return [x.hex() for point in curve.points for x in point], curve.auc.hex()


TIED_SCORES = st.sampled_from([0.0, -0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0, math.inf, -math.inf])


class TestRocMatchesElementSweep:
    """``roc`` gives every point and the AUC bit for bit as the per-element
    sweep it replaced, on scores with many ties."""

    @given(pairs=st.lists(st.tuples(st.integers(0, 1), st.one_of(TIED_SCORES, st.floats(
        -2, 2, allow_nan=False))), min_size=2, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_points_and_auc(self, pairs):
        labels = [t for t, _ in pairs]
        assume(0 < sum(labels) < len(labels))
        scores = [x for _, x in pairs]
        curve = roc(labels, scores, positive_class="c")
        want = reference_roc(labels, scores, positive_class="c")
        assert curve == want
        assert float_bits(curve) == float_bits(want)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), levels=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_one_vs_rest(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 3, n).tolist()
        proba = rng.integers(0, levels, size=(n, 3)) / levels
        curves = roc_one_vs_rest(y, proba, POLARITIES)
        want = {
            name: reference_roc([int(t == k) for t in y], proba[:, k], positive_class=name)
            for k, name in enumerate(POLARITIES) if 0 < y.count(k) < n
        }
        assert curves == want
        assert {k: float_bits(c) for k, c in curves.items()} == {
            k: float_bits(c) for k, c in want.items()}

    def test_nan_score_is_refused(self):
        with pytest.raises(ValueError, match="ROC scores must not be NaN"):
            roc([1, 0, 1], [0.5, math.nan, 0.2])
