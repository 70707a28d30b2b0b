from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexisent import ml
from lexisent.lexicon import (
    NEUTRAL_EPSILON, LanguageCode, Lexicon, LexiconEntry, Polarity, PosTag,
)
from lexisent.ml import svm as svm_module
from lexisent.ml.dataset import Dataset, FEATURE_NAMES, featurize, split
from lexisent.ml.tree import best_split, gini
from lexisent.numeric import rng_for

CLASSES_AB = ("a", "b")


def dataset_from(X, y, classes=CLASSES_AB) -> Dataset:
    X = np.asarray(X, dtype=float)
    return Dataset(
        X=X,
        y=np.asarray(y, dtype=int),
        class_names=tuple(classes),
        provenance=tuple(f"r{i+1}" for i in range(len(X))),
    )


def random_dataset(rng, n=30, d=3, k=2) -> Dataset:
    return dataset_from(
        rng.normal(size=(n, d)),
        rng.integers(0, k, size=n),
        classes=tuple(f"c{i}" for i in range(k)),
    )


class TestFeaturize:
    def test_vector_layout_and_fallback(self):
        entry = LexiconEntry(
            forms={LanguageCode.FRENCH: "bonne journée", LanguageCode.ENGLISH: "good day"},
            pos=PosTag.MOT,
            shared_score=4.0,
            per_language_scores={LanguageCode.ENGLISH: 5.0},
        )
        data = featurize(Lexicon([entry]), task="pos")
        assert data.feature_names == FEATURE_NAMES
        # shared, then fr/cil fall back to shared, en is specific
        assert data.X[0].tolist() == [4.0, 4.0, 4.0, 5.0, 4.0, 4.0, 4.0, 8.0, 2.0]
        assert data.class_names == tuple(p.value for p in PosTag)
        assert data.y[0] == list(PosTag).index(PosTag.MOT)

    def test_polarity_task(self, paper_lexicon):
        data = featurize(paper_lexicon, task="polarity")
        assert data.class_names == ("negative", "neutral", "positive")
        assert len(data) == len(paper_lexicon)

    def test_missing_english_form(self):
        entry = LexiconEntry(
            forms={LanguageCode.FRENCH: "mot"}, pos=PosTag.MOT,
            shared_score=1.0, per_language_scores={},
        )
        data = featurize(Lexicon([entry]))
        assert data.X[0][7] == 0.0 and data.X[0][8] == 0.0

    def test_csv_export_header(self, paper_lexicon):
        text = ml.dataset_csv(featurize(paper_lexicon))
        header = text.splitlines()[0].split(",")
        assert header == list(FEATURE_NAMES) + ["label", "entry_id"]


def reference_featurize(lexicon, task):
    """The features and labels as ``featurize`` computed them with one enum
    scan per entry."""
    rows = []
    labels = []
    for entry in lexicon.entries:
        english = entry.forms.get(LanguageCode.ENGLISH)
        rows.append(
            [entry.shared_score]
            + [entry.per_language_scores.get(lang, entry.shared_score) for lang in LanguageCode]
            + [len(english) if english else 0, len(english.split()) if english else 0]
        )
        if task == "pos":
            labels.append(list(PosTag).index(entry.pos))
        else:
            labels.append(list(Polarity).index(Polarity.from_score(entry.shared_score)))
    return np.asarray(rows, dtype=float), np.asarray(labels, dtype=int)


def reference_dataset_csv(data):
    """``dataset_csv`` as it wrote one row per ``writerow`` call."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(data.feature_names) + ["label", "entry_id"])
    for row, label, entry_id in zip(data.X, data.y, data.provenance):
        writer.writerow([repr(float(v)) for v in row] + [data.class_names[label], entry_id])
    return buffer.getvalue()


SCORES = st.one_of(
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from([0.0, -0.0, NEUTRAL_EPSILON, -NEUTRAL_EPSILON, 1e-300]),
)
ENTRIES = st.builds(
    LexiconEntry,
    forms=st.fixed_dictionaries({}, optional={
        LanguageCode.FRENCH: st.just("mot"),
        # Missing, empty, one-word and multi-word English forms.
        LanguageCode.ENGLISH: st.text(alphabet="ab é\t", max_size=12),
    }),
    pos=st.sampled_from(list(PosTag)),
    shared_score=SCORES,
    per_language_scores=st.dictionaries(st.sampled_from(list(LanguageCode)), SCORES),
)


class TestLeanFeaturizeAndCsv:
    """``featurize`` and ``dataset_csv`` give the same arrays and bytes as the
    per-entry enum scans and per-row writes they replaced."""

    @given(entries=st.lists(ENTRIES, min_size=1, max_size=20),
           task=st.sampled_from(ml.dataset.TASKS))
    @settings(max_examples=150, deadline=None)
    def test_featurize(self, entries, task):
        lexicon = Lexicon(entries)
        data = featurize(lexicon, task=task)
        X, y = reference_featurize(lexicon, task)
        assert data.X.tobytes() == X.tobytes() and data.X.shape == X.shape
        assert data.y.tobytes() == y.tobytes() and data.y.dtype == y.dtype
        assert data.provenance == tuple(f"r{i + 1}" for i in range(len(entries)))

    @given(
        X=st.lists(st.lists(st.floats(width=64), min_size=2, max_size=2), max_size=8),
        names=st.lists(st.text(max_size=4), min_size=1, max_size=3),
        ids=st.lists(st.text(max_size=6), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_dataset_csv_bytes(self, X, names, ids, seed):
        X = np.array(X, dtype=float).reshape(len(X), 2)
        y = np.random.default_rng(seed).integers(0, len(names), size=len(X))
        data = Dataset(X=X, y=y, class_names=tuple(names),
                       provenance=tuple(ids[:len(X)]), feature_names=("a,b", 'q"'))
        text = ml.dataset_csv(data)
        # Every cell reads back whole; the old per-row writer left a lone
        # ``\r`` unquoted, so its bytes are the reference only without one.
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            ["a,b", 'q"', "label", "entry_id"]
        ] + [[repr(float(v)) for v in row] + [names[label], entry_id]
             for row, label, entry_id in zip(X, y, data.provenance)]
        if not any("\r" in cell for cell in names + ids):
            assert text == reference_dataset_csv(data)

    def test_dataset_csv_keeps_both_zeros_apart(self):
        # 0.0 == -0.0, but their reprs differ; each cell keeps its own.
        data = dataset_from([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, 1.5]], [0, 1, 0, 1])
        text = ml.dataset_csv(data)
        assert text == reference_dataset_csv(data)
        assert text.splitlines()[1:] == ["0.0,-0.0,a,r1", "-0.0,0.0,b,r2", "0.0,0.0,a,r3",
                                         "-0.0,1.5,b,r4"]

    def test_dataset_csv_bytes_on_a_lexicon(self, paper_lexicon):
        for task in ml.dataset.TASKS:
            data = featurize(paper_lexicon, task=task)
            assert ml.dataset_csv(data) == reference_dataset_csv(data)


class TestSplit:
    def test_deterministic_80_20(self):
        rng = np.random.default_rng(0)
        data = random_dataset(rng, n=100, d=2, k=1)
        train1, test1 = split(data, 0.8, seed=7)
        train2, test2 = split(data, 0.8, seed=7)
        assert len(train1) == 80 and len(test1) == 20
        assert train1.provenance == train2.provenance
        assert test1.provenance == test2.provenance

    def test_union_is_input(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng, n=57, d=2, k=3)
        train, test = split(data, 0.7, seed=3)
        assert sorted(train.provenance + test.provenance) == sorted(data.provenance)

    def test_single_class_dataset(self):
        data = dataset_from([[0.0]] * 10, [0] * 10, classes=("only",))
        train, test = split(data, 0.8, seed=0)
        assert set(train.y) == {0} and set(test.y) == {0}

    def test_singleton_class_goes_to_train(self):
        data = dataset_from([[0.0]] * 9 + [[1.0]], [0] * 9 + [1])
        train, test = split(data, 0.5, seed=0)
        assert 1 in train.y and 1 not in test.y

    def test_stratification_roughly_preserves_proportions(self):
        rng = np.random.default_rng(2)
        y = np.array([0] * 3210)
        y[:642] = 1
        data = dataset_from(rng.normal(size=(3210, 2)), y)
        train, test = split(data, 0.8, seed=5)
        assert len(test) == pytest.approx(642, abs=2)
        assert np.sum(test.y == 1) == pytest.approx(642 * 0.2, abs=2)

    def test_bad_fraction(self):
        data = dataset_from([[0.0], [1.0]], [0, 0])
        with pytest.raises(ValueError):
            split(data, 1.0, seed=0)


def brute_force_stump(X, y, n_classes):
    """Exhaustive search over every (feature, midpoint) split, maximizing Gini
    decrease; ties to the lowest feature then lowest threshold."""
    n = len(y)
    parent = gini(np.bincount(y, minlength=n_classes).astype(float))
    best = None
    for f in range(X.shape[1]):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2
            left = y[X[:, f] <= threshold]
            right = y[X[:, f] > threshold]
            weighted = (
                len(left) * gini(np.bincount(left, minlength=n_classes).astype(float))
                + len(right) * gini(np.bincount(right, minlength=n_classes).astype(float))
            ) / n
            decrease = parent - weighted
            if best is None or decrease > best[2] + 1e-15:
                best = (f, threshold, decrease)
    return best


class TestDecisionTree:
    def test_two_point_perfect_fit(self):
        data = dataset_from([[0.0], [1.0]], [0, 1])
        model = ml.train_decision_tree(data, max_depth=None)
        assert model.predict(data.X).tolist() == [0, 1]

    def test_pure_input_single_leaf(self):
        data = dataset_from([[0.0], [1.0], [2.0]], [1, 1, 1])
        model = ml.train_decision_tree(data)
        assert model.trees[0].feature[0] == -1
        assert model.predict_proba(data.X)[0].tolist() == [0.0, 1.0]

    def test_stump_matches_exhaustive_search(self):
        X = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0], [5.0, 0.0]])
        y = np.array([0, 0, 1, 0, 1, 1])
        data = dataset_from(X, y)
        model = ml.train_decision_tree(data, max_depth=1)
        feature, threshold, _ = brute_force_stump(X, y, 2)
        assert model.trees[0].feature[0] == feature
        assert model.trees[0].threshold[0] == pytest.approx(threshold)

    def test_stump_matches_exhaustive_search_many_seeds(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(6, 2)).round(2)
            y = np.array([0, 0, 0, 1, 1, 1])
            expected = brute_force_stump(X, y, 2)
            model = ml.train_decision_tree(dataset_from(X, y), max_depth=1)
            if expected is None:
                assert model.trees[0].feature[0] == -1
            else:
                assert model.trees[0].feature[0] == expected[0]
                assert model.trees[0].threshold[0] == pytest.approx(expected[1])

    def test_training_accuracy_nondecreasing_in_depth(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, n=120, d=3, k=3)
        accuracies = []
        for depth in (1, 2, 4, 8, None):
            model = ml.train_decision_tree(data, max_depth=depth)
            accuracies.append(float(np.mean(model.predict(data.X) == data.y)))
        assert accuracies == sorted(accuracies)


class TestRandomForest:
    def test_saved_file_names_the_kind_and_its_settings(self):
        data = random_dataset(np.random.default_rng(9), n=40, d=4, k=3)
        tree = ml.train_decision_tree(data, max_depth=6, min_samples_split=3, seed=4)
        forest = ml.train_random_forest(data, n_trees=2, max_depth=6, min_samples_split=3,
                                        seed=4)
        saved = [json.loads(ml.save_model(model)) for model in (tree, forest)]
        assert [(s["kind"], s["seed"], len(s["parameters"]["trees"])) for s in saved] == [
            ("decision_tree", 4, 1), ("random_forest", 4, 2)]
        assert saved[0]["hyperparameters"] == {"max_depth": 6, "min_samples_split": 3}
        assert saved[1]["hyperparameters"] == {"n_trees": 2, "max_depth": 6,
                                               "min_samples_split": 3}

    def test_same_seed_identical(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, n=50, d=3, k=2)
        probe = rng.normal(size=(30, 3))
        a = ml.train_random_forest(data, n_trees=7, seed=21)
        b = ml.train_random_forest(data, n_trees=7, seed=21)
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_forest_beats_single_tree_on_noisy_data(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(200, 5))
            logits = X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=1.2, size=200)
            y = (logits > 0).astype(int)
            data = dataset_from(X, y)
            train, test = split(data, 0.7, seed=seed)
            tree_acc = np.mean(
                ml.train_decision_tree(train, max_depth=None).predict(test.X) == test.y
            )
            forest_acc = np.mean(
                ml.train_random_forest(train, n_trees=25, max_depth=None, seed=seed)
                .predict(test.X) == test.y
            )
            wins += forest_acc >= tree_acc
        assert wins >= 8

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, n=40, d=3, k=3)
        model = ml.train_random_forest(data, n_trees=5, seed=0)
        proba = model.predict_proba(data.X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


@dataclass
class ReferenceNode:
    feature: int | None = None
    threshold: float | None = None
    left: "ReferenceNode | None" = None
    right: "ReferenceNode | None" = None
    distribution: np.ndarray | None = None  # leaf only: class frequencies, sums to 1

    @property
    def is_leaf(self) -> bool:
        return self.distribution is not None


def reference_best_split(X, y, n_classes, feature_indices):
    """Best (feature, threshold, impurity decrease) over midpoint thresholds,
    by sorting each candidate column of the node afresh."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_gini = gini(parent_counts)
    one_hot = np.eye(n_classes)[y]

    best = None
    for f in feature_indices:
        column = X[:, f]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        boundaries = np.flatnonzero(xs[:-1] != xs[1:])
        if boundaries.size == 0:
            continue
        cum = np.cumsum(one_hot[order], axis=0)
        left_counts = cum[boundaries]
        n_left = (boundaries + 1).astype(float)
        n_right = n - n_left
        right_counts = parent_counts - left_counts
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        decrease = parent_gini - (n_left * gini_left + n_right * gini_right) / n
        i = int(np.argmax(decrease))
        if decrease[i] > 1e-12 and (best is None or decrease[i] > best[2]):
            lower, upper = xs[boundaries[i]], xs[boundaries[i] + 1]
            threshold = float((lower + upper) / 2.0)
            if not threshold < upper:  # keep the scored partition under ``<=``
                threshold = float(lower)
            best = (int(f), threshold, float(decrease[i]))
    return best


def reference_build(X, y, n_classes, max_depth, min_samples_split, depth=0,
                    feature_rng=None, n_candidate_features=None) -> ReferenceNode:
    """CART as a graph of node objects, grown by one recursive call per node."""
    counts = np.bincount(y, minlength=n_classes).astype(float)

    def leaf() -> ReferenceNode:
        return ReferenceNode(distribution=counts / counts.sum())

    if (
        (max_depth is not None and depth >= max_depth)
        or len(y) < min_samples_split
        or np.count_nonzero(counts) <= 1
    ):
        return leaf()

    d = X.shape[1]
    if feature_rng is not None and n_candidate_features is not None and n_candidate_features < d:
        features = np.sort(feature_rng.choice(d, size=n_candidate_features, replace=False))
    else:
        features = np.arange(d)
    found = reference_best_split(X, y, n_classes, features)
    if found is None:
        return leaf()
    feature, threshold, _ = found
    mask = X[:, feature] <= threshold
    node = ReferenceNode(feature=feature, threshold=threshold)
    node.left = reference_build(
        X[mask], y[mask], n_classes, max_depth, min_samples_split,
        depth + 1, feature_rng, n_candidate_features,
    )
    node.right = reference_build(
        X[~mask], y[~mask], n_classes, max_depth, min_samples_split,
        depth + 1, feature_rng, n_candidate_features,
    )
    return node


def reference_predict(node, X, rows, out) -> None:
    """Send ``rows`` of ``X`` down the node graph, one recursive call per node."""
    if node.is_leaf:
        out[rows] = node.distribution
        return
    mask = X[rows, node.feature] <= node.threshold
    if mask.any():
        reference_predict(node.left, X, rows[mask], out)
    if (~mask).any():
        reference_predict(node.right, X, rows[~mask], out)


def reference_proba(roots, X, n_classes):
    """The mean of the trees' leaf distributions for every row of ``X``."""
    per_tree = []
    for root in roots:
        out = np.zeros((len(X), n_classes))
        reference_predict(root, X, np.arange(len(X)), out)
        per_tree.append(out)
    return np.stack(per_tree).mean(axis=0)


def reference_forest(data, n_trees, max_depth, min_samples_split, seed):
    """The root of each tree :func:`ml.train_random_forest` grows: each on a
    bootstrap sample, drawing ceil(sqrt(d)) candidate features per split."""
    n_candidates = math.ceil(math.sqrt(data.X.shape[1]))
    roots = []
    for i in range(n_trees):
        rng = rng_for(seed, i)
        idx = rng.integers(0, len(data), size=len(data))
        roots.append(reference_build(
            data.X[idx], data.y[idx], len(data.class_names), max_depth, min_samples_split,
            feature_rng=rng, n_candidate_features=n_candidates,
        ))
    return roots


def columns_of(kind, rng, n, d, levels):
    """An (n, d) feature matrix of one kind: tied values on a grid, all-distinct
    normal values, grid columns of which some are constant, duplicated rows,
    or adjacent floats (whose midpoints may round up to the upper value)."""
    if kind == "distinct":
        return rng.normal(size=(n, d))
    if kind == "adjacent":
        return 1.0 + rng.integers(0, levels, size=(n, d)) * 2.0**-52
    X = rng.integers(0, levels, size=(n, d)) * 0.5
    if kind == "constant":
        X[:, rng.random(d) < 0.5] = 1.5
    elif kind == "duplicated":
        X = X[rng.integers(0, n, size=n)]
    return X


class TestFlatTreeMatchesNodeGraph:
    """Flat-array trees grown from presorted columns predict bit for bit what
    the node graph grown by sorting every node afresh predicts, and a saved
    tree model survives save, load and save unchanged."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        k=st.integers(2, 4),
        used=st.integers(1, 4),
        kind=st.sampled_from(["grid", "distinct", "constant", "duplicated", "adjacent"]),
        levels=st.sampled_from([2, 4, 1000]),
        max_depth=st.sampled_from([None, 1, 3]),
        min_samples_split=st.sampled_from([2, 5]),
        n_trees=st.integers(1, 3),
    )
    @settings(max_examples=250, deadline=None)
    def test_predictions_and_round_trip(self, seed, n, d, k, used, kind, levels, max_depth,
                                        min_samples_split, n_trees):
        rng = np.random.default_rng(seed)
        # Labels from the first ``used`` classes leave the others absent from every node.
        data = dataset_from(columns_of(kind, rng, n, d, levels),
                            rng.integers(0, min(used, k), size=n),
                            classes=tuple(f"c{i}" for i in range(k)))
        # Probes on the quarter grid hit grid thresholds exactly.
        probe = np.vstack([data.X, rng.integers(-1, 2 * levels + 1, size=(30, d)) * 0.25,
                           columns_of(kind, rng, 30, d, levels)])
        tree = ml.train_decision_tree(data, max_depth=max_depth,
                                      min_samples_split=min_samples_split)
        forest = ml.train_random_forest(data, n_trees=n_trees, max_depth=max_depth,
                                        min_samples_split=min_samples_split, seed=seed % 97)
        expected = [
            (tree, reference_proba([reference_build(data.X, data.y, k, max_depth,
                                                    min_samples_split)], probe, k)),
            (forest, reference_proba(reference_forest(data, n_trees, max_depth,
                                                      min_samples_split, seed % 97), probe, k)),
        ]
        for model, want in expected:
            assert model.predict_proba(probe).tobytes() == want.tobytes()
            text = ml.save_model(model)
            clone = ml.load_model(text)
            assert ml.save_model(clone) == text
            assert clone.predict_proba(probe).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lower, upper", [
        (1.0 + 2.0**-52, 1.0 + 2.0**-51),  # the midpoint rounds up to ``upper``
        (1e308, 1.5e308),  # the sum overflows
    ])
    def test_threshold_keeps_the_scored_partition(self, lower, upper):
        assert not (lower + upper) / 2.0 < upper
        data = dataset_from([[lower], [upper], [upper]], [0, 1, 1])
        tree = ml.train_decision_tree(data, max_depth=1).trees[0]
        assert tree.threshold[0] == lower
        assert tree.value.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert tree.predict_proba(data.X).tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]


class TestBestSplitPerNode:
    """``build_tree`` calls ``best_split`` by name once for each node it searches,
    the same nodes the sort-per-node builder searched."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("forest", [False, True])
    def test_one_call_per_searched_node(self, monkeypatch, seed, forest):
        rng = np.random.default_rng(seed)
        data = dataset_from(rng.integers(0, 6, size=(80, 4)) * 0.5, rng.integers(0, 3, 80),
                            classes=("a", "b", "c"))
        calls = {"new": 0, "reference": 0}

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(ml.tree, "best_split", counted("new", best_split))
        monkeypatch.setattr(sys.modules[__name__], "reference_best_split",
                            counted("reference", reference_best_split))
        if forest:
            ml.train_random_forest(data, n_trees=3, max_depth=5, seed=seed)
            reference_forest(data, 3, 5, 2, seed)
        else:
            model = ml.train_decision_tree(data, max_depth=5)
            reference_build(data.X, data.y, 3, 5, 2)
            assert calls["new"] >= np.count_nonzero(model.trees[0].feature >= 0) > 0
        assert calls["new"] == calls["reference"] > 0


class TestRefusedTreeSettings:
    @pytest.mark.parametrize("train", [ml.train_decision_tree, ml.train_random_forest])
    @pytest.mark.parametrize("setting, value, message", [
        ("max_depth", 0, "max_depth must be at least 1, got 0"),
        ("max_depth", -1, "max_depth must be at least 1, got -1"),
        ("min_samples_split", 1, "min_samples_split must be at least 2, got 1"),
        ("min_samples_split", -3, "min_samples_split must be at least 2, got -3"),
    ])
    def test_setting(self, train, setting, value, message):
        data = dataset_from([[0.0], [1.0]], [0, 1])
        with pytest.raises(ml.SettingError, match=f"^{message}$") as caught:
            train(data, **{setting: value})
        assert caught.value.setting == setting

    def test_no_trees(self):
        data = dataset_from([[0.0], [1.0]], [0, 1])
        with pytest.raises(ml.SettingError, match="^n_trees must be at least 1, got 0$"):
            ml.train_random_forest(data, n_trees=0)

    @pytest.mark.parametrize("train", [ml.train_decision_tree, ml.train_random_forest])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_names_row_and_column(self, train, bad):
        X = np.zeros((4, 3))
        X[3, 1] = X[2, 2] = bad
        data = dataset_from(X, [0, 1, 0, 1])
        message = (f"feature 'score_cil' of row 2 (r3) is {bad!r}; "
                   "trees need finite features")
        with pytest.raises(ValueError, match=re.escape(message)):
            train(data)

    def test_depth_one_and_no_limit_are_accepted(self):
        data = dataset_from([[0.0], [1.0]], [0, 1])
        for max_depth in (1, None):
            assert ml.train_decision_tree(data, max_depth=max_depth).trees[0].feature[0] == 0


def gaussian_density(x, mean, var):
    return math.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


class TestGaussianNB:
    def test_hand_oracle_posterior(self):
        X = [[-1.0], [0.0], [1.0], [9.0], [10.0], [11.0]]
        y = [0, 0, 0, 1, 1, 1]
        data = dataset_from(X, y)
        model = ml.train_gaussian_nb(data)
        # Closed form: both classes have population variance 2/3 and prior 1/2.
        var = 2.0 / 3.0
        da = 0.5 * gaussian_density(5.0, 0.0, var)
        db = 0.5 * gaussian_density(5.0, 10.0, var)
        expected = np.array([da, db]) / (da + db)
        proba = model.predict_proba(np.array([[5.0]]))[0]
        assert proba == pytest.approx(expected, abs=1e-9)
        assert model.predict(np.array([[5.0]]))[0] == 0  # symmetric tie breaks to class 0

    def test_duplicated_rows_leave_statistics_unchanged(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        base = ml.train_gaussian_nb(dataset_from(X, y))
        doubled = ml.train_gaussian_nb(
            dataset_from(np.vstack([X, X]), np.concatenate([y, y]))
        )
        assert np.allclose(base.means, doubled.means)
        assert np.allclose(base.variances, doubled.variances)
        assert np.allclose(base.priors, doubled.priors)

    def test_single_class_predicts_it_with_certainty(self):
        data = dataset_from([[0.0], [1.0]], [1, 1], classes=("a", "b"))
        model = ml.train_gaussian_nb(data)
        proba = model.predict_proba(np.array([[0.5]]))[0]
        assert proba.tolist() == [0.0, 1.0]

    def test_row_order_invariance(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        base = ml.train_gaussian_nb(dataset_from(X, y, classes=("a", "b", "c")))
        perm = rng.permutation(30)
        shuffled = ml.train_gaussian_nb(dataset_from(X[perm], y[perm], classes=("a", "b", "c")))
        assert np.allclose(base.means, shuffled.means)
        assert np.allclose(base.variances, shuffled.variances)

    def test_zero_variance_feature_is_not_fatal(self):
        data = dataset_from([[1.0, 0.0], [1.0, 1.0], [1.0, 5.0], [1.0, 6.0]], [0, 0, 1, 1])
        model = ml.train_gaussian_nb(data)
        proba = model.predict_proba(data.X)
        assert np.all(np.isfinite(proba))

    @pytest.mark.parametrize("var_smoothing", [0.0, -1.0, -1e-9, math.nan, math.inf])
    def test_var_smoothing_must_be_finite_and_positive(self, var_smoothing):
        # A class-constant feature: without a positive floor its variance stays 0.
        data = dataset_from([[1.0, 0.0], [1.0, 1.0], [2.0, 5.0], [2.0, 6.0]], [0, 0, 1, 1])
        with pytest.raises(ml.SettingError, match="^var_smoothing must be a finite number "
                                                  rf"above 0, got {var_smoothing}$") as caught:
            ml.train_gaussian_nb(data, var_smoothing=var_smoothing)
        assert caught.value.setting == "var_smoothing"

    @pytest.mark.parametrize("var_smoothing", [1e-310, 5e-324])
    def test_subnormal_variance_floor_is_refused(self, var_smoothing):
        # The largest feature variance is 0.6875, so the floor is subnormal too;
        # (X - mean)**2 / floor overflows and predict_proba would be NaN.
        data = dataset_from([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [1.0, 3.0]], [0, 0, 1, 1])
        with pytest.raises(ml.SettingError, match=rf"^var_smoothing {var_smoothing} gives the "
                                                  r"subnormal floor \S+$") as caught:
            ml.train_gaussian_nb(data, var_smoothing=var_smoothing)
        assert caught.value.setting == "var_smoothing"

    def test_smallest_normal_variance_floor_still_trains(self):
        data = dataset_from([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [1.0, 3.0]], [0, 0, 1, 1])
        model = ml.train_gaussian_nb(data, var_smoothing=1e-300)
        assert model.predict_proba([[0.5, 1.0]]).tolist() == [[0.5, 0.5]]


class TestLinearSVM:
    def test_separable_four_points(self):
        data = dataset_from([[1.0, 1.0], [2.0, 1.0], [-1.0, -1.0], [-2.0, -1.0]], [1, 1, 0, 0])
        model = ml.train_linear_svm(data, lam=0.01, epochs=100, seed=0)
        assert model.predict(data.X).tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("setting, value, message", [
        ("epochs", 0, "epochs must be at least 1, got 0"),
        ("epochs", -2, "epochs must be at least 1, got -2"),
        ("lam", 0.0, "lam must be a finite number above 0, got 0.0"),
        ("lam", -1e-4, "lam must be a finite number above 0, got -0.0001"),
        ("lam", math.nan, "lam must be a finite number above 0, got nan"),
        ("lam", math.inf, "lam must be a finite number above 0, got inf"),
    ])
    def test_refused_settings_name_the_parameter(self, setting, value, message):
        data = dataset_from([[0.0], [1.0]], [0, 1])
        with pytest.raises(ml.SettingError, match=f"^{message}$") as caught:
            ml.train_linear_svm(data, **{setting: value})
        assert caught.value.setting == setting

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, n=40, d=3, k=3)
        a = ml.train_linear_svm(data, seed=4)
        b = ml.train_linear_svm(data, seed=4)
        assert np.array_equal(a.weights, b.weights)

    def test_scale_equivariance_at_decision_level(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, n=60, d=3, k=2)
        c = 4.0  # power of two keeps the rescaled iterates exact
        scaled = dataset_from(data.X * c, data.y, classes=data.class_names)
        base = ml.train_linear_svm(data, lam=1e-3, epochs=10, seed=2)
        rescaled = ml.train_linear_svm(scaled, lam=1e-3 * c * c, epochs=10, seed=2)
        probe = rng.normal(size=(40, 3))
        assert np.array_equal(base.predict(probe), rescaled.predict(probe * c))


def reference_svm_weights(data, lam, epochs, seed):
    """Pegasos one head at a time, each head with its own sample order."""
    weights = np.zeros((len(data.class_names), data.X.shape[1]))
    for c in range(len(data.class_names)):
        rng = rng_for(seed, c)
        y_signed = np.where(data.y == c, 1.0, -1.0)
        w = weights[c]
        t = 1
        for _ in range(epochs):
            for idx in rng.permutation(len(data)):
                eta = 1.0 / (lam * t)
                w *= 1.0 - 1.0 / t
                if y_signed[idx] * (w @ data.X[idx]) < 1.0:
                    w += eta * y_signed[idx] * data.X[idx]
                t += 1
    return weights


class TestLinearSVMMatchesPerHeadLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(1, 5),
        k=st.integers(1, 4),
        epochs=st.integers(1, 3),
        lam=st.sampled_from([1e-4, 1e-2, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_weights_and_predictions(self, seed, n, d, k, epochs, lam):
        data = random_dataset(np.random.default_rng(seed), n=n, d=d, k=k)
        model = ml.train_linear_svm(data, lam=lam, epochs=epochs, seed=seed % 7)
        expected = reference_svm_weights(data, lam, epochs, seed % 7)
        np.testing.assert_allclose(model.weights, expected, rtol=1e-12, atol=1e-12)
        probe = np.random.default_rng(seed + 1).normal(size=(20, d))
        assert np.array_equal(model.predict(probe), np.argmax(probe @ expected.T, axis=1))


def reference_svm_steps(X, y, k, lam, epochs, seed):
    """The per-step loop of all heads at once that ``_train_heads`` replaced:
    labels, step size and the samples gathered afresh at every step."""
    n, d = X.shape
    rngs = [rng_for(seed, c) for c in range(k)]
    y_signed = np.where(y[None, :] == np.arange(k)[:, None], 1.0, -1.0)
    heads = np.arange(k)
    w = np.zeros((k, d))
    t = 1
    for _ in range(epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        labels = y_signed[heads[:, None], orders]
        for step in range(n):
            eta = 1.0 / (lam * t)
            w *= 1.0 - 1.0 / t
            x = X[orders[:, step]]
            y_step = labels[:, step]
            violated = y_step * np.einsum("kd,kd->k", w, x) < 1.0
            w += (eta * y_step * violated)[:, None] * x
            t += 1
    return w


class TestBlockedPegasosMatchesPerStepLoop:
    """Gathering samples and computing labels and step sizes a block of
    steps at a time keeps every bit of the weights."""

    @pytest.mark.parametrize("n, epochs", [(1, 3), (37, 2), (256, 2), (300, 3), (517, 2)])
    @pytest.mark.parametrize("lam", [1e-4, 0.3])
    def test_weights_have_the_same_bytes(self, n, epochs, lam):
        data = random_dataset(np.random.default_rng(n), n=n, d=6, k=4)
        got = svm_module._train_heads(data.X, data.y, 4, lam, epochs, seed=1)
        want = reference_svm_steps(data.X, data.y, 4, lam, epochs, seed=1)
        assert got.tobytes() == want.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 5),
           k=st.integers(1, 4), epochs=st.integers(1, 4), block=st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_any_block_size_gives_the_same_bytes(self, seed, n, d, k, epochs, block):
        data = random_dataset(np.random.default_rng(seed), n=n, d=d, k=k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm_module, "GATHER_STEPS", block)
            got = svm_module._train_heads(data.X, data.y, k, 1e-2, epochs, seed % 7)
        want = reference_svm_steps(data.X, data.y, k, 1e-2, epochs, seed % 7)
        assert got.tobytes() == want.tobytes()


class TestPredictApi:
    @pytest.fixture
    def trained(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, n=50, d=4, k=3)
        return [
            ml.train_decision_tree(data),
            ml.train_random_forest(data, n_trees=5, seed=1),
            ml.train_gaussian_nb(data),
            ml.train_linear_svm(data, epochs=5, seed=1),
        ]

    def test_proba_sums_to_one_and_argmax_consistency(self, trained):
        rng = np.random.default_rng(18)
        for model in trained:
            probe = rng.normal(size=(20, 4))
            proba = model.predict_proba(probe)
            assert proba.sum(axis=1) == pytest.approx(np.ones(20), abs=1e-9)
            assert np.array_equal(model.predict(probe), np.argmax(proba, axis=1))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("task", ml.dataset.TASKS)
    def test_predict_is_the_argmax_of_the_probabilities_on_lexicon_features(
            self, paper_lexicon, seed, task):
        """``ml train`` and ``ml eval`` predict each row's most probable class,
        while a saved model's ``predict`` still serves other readers; on the
        features of a lexicon, both agree for every classical kind."""
        data = featurize(paper_lexicon, task=task)
        train_set, test_set = split(data, 0.8, seed)
        models = [
            ml.train_decision_tree(train_set, seed=seed),
            ml.train_random_forest(train_set, n_trees=10, seed=seed),
            ml.train_gaussian_nb(train_set),
            ml.train_linear_svm(train_set, epochs=2, seed=seed),
            ml.train_linear_svm(train_set, epochs=50, seed=seed),
        ]
        for model in models:
            for X in (test_set.X, data.X):
                assert np.array_equal(model.predict(X), np.argmax(model.predict_proba(X), axis=1))

    def test_serialization_round_trip(self, trained):
        rng = np.random.default_rng(19)
        probe = rng.normal(size=(25, 4))
        for model in trained:
            clone = ml.load_model(ml.save_model(model))
            assert np.array_equal(model.predict(probe), clone.predict(probe))
            assert np.allclose(model.predict_proba(probe), clone.predict_proba(probe))
            assert ml.save_model(clone) == ml.save_model(model)

    def test_compact_and_indented_files_load_to_identical_parameters(self, trained):
        probe = np.random.default_rng(21).normal(size=(25, 4))
        for model in trained:
            compact = ml.save_model(model)
            data = json.loads(compact)
            assert compact == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
            indented = json.dumps(data, sort_keys=True, indent=2) + "\n"
            from_compact, from_indented = ml.load_model(compact), ml.load_model(indented)
            # JSON floats round-trip exactly, so equal files mean equal parameters.
            assert ml.save_model(from_indented) == ml.save_model(from_compact) == compact
            assert np.array_equal(from_indented.predict_proba(probe),
                                  from_compact.predict_proba(probe))


class TestLoadModelFields:
    @pytest.fixture
    def saved(self):
        data = random_dataset(np.random.default_rng(20), n=30, d=3, k=2)
        return json.loads(ml.save_model(ml.train_decision_tree(data, max_depth=2)))

    @pytest.mark.parametrize("name", ["class_names", "n_features", "seed",
                                      "hyperparameters", "parameters"])
    def test_missing_field_is_named(self, saved, name):
        del saved[name]
        with pytest.raises(ValueError, match=f"missing field '{name}' in the model"):
            ml.load_model(json.dumps(saved))

    def test_missing_parameter_is_named(self, saved):
        saved["kind"] = "linear_svm"
        with pytest.raises(ValueError, match="missing field 'weights' in 'parameters'"):
            ml.load_model(json.dumps(saved))

    def test_incomplete_tree_node(self, saved):
        tree = saved["parameters"]["trees"][0]
        del tree["left"], tree["right"]
        with pytest.raises(ValueError, match="missing field 'left', 'right' in tree 0"):
            ml.load_model(json.dumps(saved))

    def test_version_1_tree_file_is_refused_by_version(self, saved):
        saved["format_version"] = 1
        saved["parameters"] = {"root": {"distribution": [0.5, 0.5]}}
        with pytest.raises(ValueError, match="unsupported model format version 1, expected 2"):
            ml.load_model(json.dumps(saved))


class TestLoadModelShapes:
    """Each refusal names the field; the model has 3 classes and 4 features."""

    @pytest.fixture(scope="class")
    def saved(self):
        data = random_dataset(np.random.default_rng(22), n=40, d=4, k=3)
        models = [ml.train_decision_tree(data, max_depth=2),
                  ml.train_random_forest(data, n_trees=2, max_depth=2, seed=1),
                  ml.train_gaussian_nb(data), ml.train_linear_svm(data, epochs=2)]
        return {m.kind: json.loads(ml.save_model(m)) for m in models}

    def refused(self, saved, kind, change, message):
        data = copy.deepcopy(saved[kind])
        change(data)
        with pytest.raises(ValueError, match=message):
            ml.load_model(json.dumps(data))

    @pytest.mark.parametrize("name, cut, message", [
        ("priors", lambda a: a[:-1], r"'priors' has shape \(2,\), expected \(3\)"),
        ("means", lambda a: a[:-1], r"'means' has shape \(2, 4\), expected \(3, 4\)"),
        ("means", lambda a: [row[:-1] for row in a], r"'means' has shape \(3, 3\)"),
        ("variances", lambda a: [a], r"'variances' has shape \(1, 3, 4\), expected \(3, 4\)"),
        ("variances", lambda a: [["x"] * 4] + a[1:], "'variances' is not an array of numbers"),
        ("present", lambda a: [0, 1, 3], r"'present' is \[0, 1, 3\], expected distinct"),
        ("present", lambda a: [0, 0, 1], r"'present' is \[0, 0, 1\], expected distinct"),
        ("present", lambda a: [0, 1], r"'priors' has shape \(3,\), expected \(2\)"),
        ("priors", lambda a: [-0.5] + a[1:], "'priors' holds values that are not above 0"),
        ("variances", lambda a: [[0.0] * 4] + a[1:],
         "'variances' holds values that are not above 0"),
    ])
    def test_naive_bayes(self, saved, name, cut, message):
        def change(data):
            data["parameters"][name] = cut(data["parameters"][name])
        self.refused(saved, "gaussian_nb", change, message)

    @pytest.mark.parametrize("cut, message", [
        (lambda a: a[:-1], r"'weights' has shape \(2, 4\), expected \(3, 4\)"),
        (lambda a: [row + [0.0] for row in a], r"'weights' has shape \(3, 5\)"),
        (lambda a: [[float("nan")] * 4] + a[1:], "'weights' holds values that are not finite"),
    ])
    def test_svm_weights(self, saved, cut, message):
        def change(data):
            data["parameters"]["weights"] = cut(data["parameters"]["weights"])
        self.refused(saved, "linear_svm", change, message)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize("feature", [4, -1, 1.0, True, "0"])
    def test_tree_feature(self, saved, kind, feature):
        last = len(saved[kind]["parameters"]["trees"]) - 1

        def change(data):
            root = data["parameters"]["trees"][-1]
            assert root["feature"][0] >= 0 and root["left"][0] == 1  # the root splits
            root["feature"][0] = feature
        if feature == -1:  # a leaf that keeps its children
            message = rf"'left' of tree {last} holds 1 at node 0, expected -1 at a leaf"
        else:
            message = (rf"'feature' of tree {last} holds {re.escape(repr(feature))}, "
                       r"expected -1 or an int in \[0, 4\)")
        self.refused(saved, kind, change, message)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize("cut, columns", [(lambda row: row[:-1], 2),
                                              (lambda row: row + [0.0], 4)],
                             ids=["short", "long"])
    def test_leaf_distribution(self, saved, kind, cut, columns):
        nodes = len(saved[kind]["parameters"]["trees"][0]["value"])

        def change(data):
            tree = data["parameters"]["trees"][0]
            tree["value"] = [cut(row) for row in tree["value"]]
        self.refused(saved, kind, change,
                     rf"'value' of tree 0 has shape \({nodes}, {columns}\), "
                     rf"expected \({nodes}, 3\)")

    @staticmethod
    def first_leaf(tree):
        return tree["feature"].index(-1)

    @pytest.mark.parametrize("kind", ["decision_tree", "random_forest"])
    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda t, leaf: t.update(threshold="oops"),
                     "'threshold' of tree 0 is not an array of numbers",
                     id="threshold-text"),
        pytest.param(lambda t, leaf: t["threshold"].__setitem__(0, None),
                     "'threshold' of tree 0 holds values that are not finite",
                     id="threshold-null"),
        pytest.param(lambda t, leaf: t["threshold"].pop(),
                     r"'threshold' of tree 0 has shape \(\d+,\), expected \(\d+\)",
                     id="threshold-short"),
        pytest.param(lambda t, leaf: t["value"][leaf].__setitem__(0, float("inf")),
                     "'value' of tree 0 holds values that are not finite",
                     id="value-infinite"),
        pytest.param(lambda t, leaf: t.update(feature=0),
                     "'feature' of tree 0 is not a non-empty list",
                     id="feature-not-list"),
        pytest.param(lambda t, leaf: t.update(feature=[]),
                     "'feature' of tree 0 is not a non-empty list",
                     id="feature-empty"),
        pytest.param(lambda t, leaf: t["left"].__setitem__(0, 1.0),
                     r"'left' of tree 0 holds 1.0, expected -1 or an int in \[0, \d+\)",
                     id="left-float"),
        pytest.param(lambda t, leaf: t["right"].__setitem__(0, "2"),
                     r"'right' of tree 0 holds '2', expected -1 or an int in \[0, \d+\)",
                     id="right-string"),
        pytest.param(lambda t, leaf: t["right"].__setitem__(0, len(t["right"])),
                     r"'right' of tree 0 holds \d+, expected -1 or an int in \[0, \d+\)",
                     id="right-past-end"),
        pytest.param(lambda t, leaf: t["left"].append(-1),
                     r"'left' of tree 0 has \d+ nodes, expected \d+",
                     id="left-long"),
        pytest.param(lambda t, leaf: t["left"].__setitem__(0, 0),
                     r"'left' of tree 0 holds 0 at node 0, expected a node in \(0, \d+\) at a",
                     id="left-not-after-split"),
        pytest.param(lambda t, leaf: t["right"].__setitem__(leaf, leaf + 1),
                     r"'right' of tree 0 holds \d+ at node \d+, expected -1 at a leaf",
                     id="right-at-leaf"),
    ])
    def test_tree_arrays(self, saved, kind, change, message):
        """Each array of a saved tree is checked, and the refusal names it."""
        def edit(data):
            tree = data["parameters"]["trees"][0]
            change(tree, self.first_leaf(tree))
        self.refused(saved, kind, edit, message)

    def test_decision_tree_holds_one_tree(self, saved):
        def change(data):
            data["parameters"]["trees"] *= 2
        self.refused(saved, "decision_tree", change, "'trees' holds 2 trees, expected 1")

    @pytest.mark.parametrize("trees", [[], {}, None])
    def test_trees_is_a_non_empty_list(self, saved, trees):
        def change(data):
            data["parameters"]["trees"] = trees
        self.refused(saved, "random_forest", change, "'trees' is not a non-empty list")

    def test_tree_that_is_not_an_object(self, saved):
        def change(data):
            data["parameters"]["trees"][1] = []
        self.refused(saved, "random_forest", change, "tree 1 is not a JSON object")

    @pytest.mark.parametrize("value", ["c0", ["c0", 1, "c2"]])
    def test_class_names(self, saved, value):
        self.refused(saved, "linear_svm", lambda data: data.update(class_names=value),
                     "'class_names' is not a list of strings")

    @pytest.mark.parametrize("value", [-1, 4.0, "4", None])
    def test_n_features(self, saved, value):
        self.refused(saved, "linear_svm", lambda data: data.update(n_features=value),
                     rf"'n_features' is {re.escape(repr(value))}, expected an int >= 0")

    def test_class_count_follows_class_names(self, saved):
        # Dropping a class name leaves 3 weight rows for 2 classes.
        def change(data):
            data["class_names"] = data["class_names"][:-1]
        self.refused(saved, "linear_svm", change,
                     r"'weights' has shape \(3, 4\), expected \(2, 4\)")
