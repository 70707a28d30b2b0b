"""CART trees with Gini impurity and class-frequency leaves, grown by an exact
split search over columns sorted once per tree, and the model class of both
tree learners, :class:`RandomForestModel`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, SettingError


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as five arrays over its nodes, in depth-first order with
    node 0 the root (the layout of scikit-learn's ``Tree`` struct).

    ``feature (nodes,)`` is the split feature, -1 at leaves; a row goes to
    ``left`` when its value is ``<= threshold (nodes,)`` and to ``right``
    otherwise. ``left`` and ``right (nodes,)`` are -1 at leaves, and at a
    split ``i`` both are greater than ``i``. ``value (nodes, k)`` holds the
    class frequencies of each leaf, summing to 1, and zeros at splits.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """The leaf frequencies of each row of ``X``. All rows descend one
        level per step, so the loop runs at most depth + 1 times."""
        X = np.asarray(X, dtype=float)
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)
        while rows.size:
            at = node[rows]
            goes_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(goes_left, self.left[at], self.right[at])
            rows = rows[self.feature[node[rows]] >= 0]
        return self.value[node]


def gini(counts: np.ndarray) -> float:
    # The ufunc reductions that ``sum`` would call, without its wrapper.
    total = np.add.reduce(counts)
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.add.reduce(p * p))


def split_threshold(lower: float, upper: float) -> float:
    """The midpoint of two adjacent distinct values, or ``lower`` where the
    midpoint is not below ``upper`` (it rounds up to it between neighbouring
    floats, and overflows between huge ones), so that exactly the values up
    to ``lower`` satisfy ``value <= threshold``."""
    lower, upper = float(lower), float(upper)
    threshold = (lower + upper) / 2.0
    return threshold if threshold < upper else lower


def best_split(
    columns: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
) -> tuple[int, float, float, np.ndarray] | None:
    """Best (feature, threshold, impurity decrease, left class counts) over
    midpoint thresholds of one node.

    ``columns (d, n)`` is the training matrix transposed and ``y (n,)`` its
    labels; ``order (d, m)`` holds the node's rows sorted by each feature, and
    ``counts (k,)`` their class counts. Only the rows of ``features`` (sorted
    candidate features) are searched: one class histogram over every
    candidate's node-local value ranks, cumulated over ranks, scores every
    threshold at once (the exact greedy search on presorted columns of SLIQ and
    XGBoost). Ties resolve to the lowest feature index and then the lowest
    threshold, so training is deterministic. Returns None when nothing improves.
    """
    m = order.shape[1]
    n_features, k = len(features), len(counts)
    rows = order[features]
    values = columns[features[:, None], rows]
    # Rank of each sorted value among the node's distinct values of its feature.
    changes = np.zeros(rows.shape, dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=changes[:, 1:])
    ranks = np.add.accumulate(changes, axis=1, dtype=np.intp)
    n_ranks = int(np.maximum.reduce(ranks[:, -1])) + 1
    if n_ranks == 1:
        return None
    # cum[f, r, c]: rows of class c whose value of feature f has rank <= r.
    codes = (np.arange(n_features)[:, None] * n_ranks + ranks) * k + y[rows]
    hist = np.bincount(codes.ravel(), minlength=n_features * n_ranks * k)
    cum = np.add.accumulate(hist.reshape(n_features, n_ranks, k), axis=1)
    n_left_all = np.add.reduce(cum, axis=2)
    # A threshold above rank r of feature f leaves rows on both sides.
    valid = n_left_all < m
    left_counts = cum[valid].astype(float)
    n_left = n_left_all[valid].astype(float)
    n_right = m - n_left
    right_counts = counts - left_counts
    parent_gini = gini(counts)
    # The Gini expressions of the sort-per-node search, on C-contiguous rows,
    # so every decrease has the same bits.
    gini_left = 1.0 - np.add.reduce((left_counts / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.add.reduce((right_counts / n_right[:, None]) ** 2, axis=1)
    decrease = parent_gini - (n_left * gini_left + n_right * gini_right) / m
    i = int(np.argmax(decrease))  # first in (feature, threshold) order
    if not decrease[i] > 1e-12:
        return None
    f, r = (int(a[i]) for a in np.nonzero(valid))
    b = int(n_left_all[f, r])
    threshold = split_threshold(values[f, b - 1], values[f, b])
    return int(features[f]), threshold, float(decrease[i]), cum[f, r]


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: int | None,
    min_samples_split: int,
    feature_rng: np.random.Generator | None = None,
    n_candidate_features: int = 0,
) -> Tree:
    """Grow a tree depth-first, left before right, numbering nodes in the
    order they are reached. With ``feature_rng``, each split draws
    ``n_candidate_features`` of the features as candidates, in that order.

    Each column is sorted once; a split partitions every column's sorted rows
    with one boolean gather, which keeps them sorted, and hands its children
    their class counts, so no node sorts or counts again."""
    n, d = X.shape
    columns = np.ascontiguousarray(X.T)
    goes_left = np.zeros(n, dtype=bool)
    all_features = np.arange(d)

    def searched(m: int, counts: np.ndarray, depth: int) -> bool:
        return ((max_depth is None or depth < max_depth) and m >= min_samples_split
                and np.count_nonzero(counts) > 1)

    nodes: list[list] = []  # [feature, threshold, left, right, value] per node
    # A node's rows sorted by each feature (None if it is not searched), its
    # class counts, its depth, and the split whose right child it is (-1 if
    # none). Left children pop first, so a split's left child is the next node.
    counts = np.bincount(y, minlength=n_classes)
    order = np.argsort(X, axis=0, kind="stable").T if searched(n, counts, 0) else None
    stack = [(order, counts, 0, -1)]
    while stack:
        order, counts, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        found = None
        if order is not None:
            features = all_features if feature_rng is None else np.sort(
                feature_rng.choice(d, size=n_candidate_features, replace=False))
            found = best_split(columns, y, order, counts, features)
        if found is None:
            nodes.append([-1, 0.0, -1, -1, counts / np.add.reduce(counts)])
            continue
        feature, threshold, _, left_counts = found
        nodes.append([feature, threshold, node + 1, -1, np.zeros(n_classes)])
        m = order.shape[1]
        n_left = int(np.add.reduce(left_counts))
        right_counts = counts - left_counts
        left = right = None
        left_searched = searched(n_left, left_counts, depth + 1)
        right_searched = searched(m - n_left, right_counts, depth + 1)
        if left_searched or right_searched:
            left_rows = order[feature, :n_left]
            goes_left[left_rows] = True
            sel = goes_left[order]
            goes_left[left_rows] = False
            if left_searched:
                left = order[sel].reshape(d, n_left)
            if right_searched:
                right = order[~sel].reshape(d, m - n_left)
        stack.append((right, right_counts, depth + 1, node))
        stack.append((left, left_counts, depth + 1, -1))
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=float),
    )


@dataclass
class RandomForestModel:
    """CART trees (:class:`Tree`) with their classes and training settings.
    ``kind`` is ``decision_tree`` for :func:`train_decision_tree`'s one tree,
    grown on every row from every feature, and ``random_forest`` for the
    bagged trees of :func:`~lexisent.ml.forest.train_random_forest`
    (Breiman 2001)."""

    kind: str
    trees: list[Tree]
    class_names: tuple[str, ...]
    n_features: int
    seed: int
    hyperparameters: dict = field(default_factory=dict)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        # Soft voting: mean of the trees' leaf distributions. The argmax of
        # this mean is the ensemble vote, so predict == argmax(predict_proba).
        stacked = np.stack([tree.predict_proba(X) for tree in self.trees])
        return stacked.mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def check_tree_training(data: Dataset, max_depth: int | None, min_samples_split: int) -> None:
    """Refuse what would grow a useless tree: no rows, ``max_depth`` below 1
    (a single majority leaf), ``min_samples_split`` below 2, or a feature that
    is not finite (presorting orders no NaN)."""
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if max_depth is not None and max_depth < 1:
        raise SettingError("max_depth", f"must be at least 1, got {max_depth}")
    if min_samples_split < 2:
        raise SettingError("min_samples_split", f"must be at least 2, got {min_samples_split}")
    bad = np.argwhere(~np.isfinite(data.X))
    if len(bad):
        row, column = (int(i) for i in bad[0])
        raise ValueError(
            f"feature {data.feature_names[column]!r} of row {row} "
            f"({data.provenance[row]}) is {float(data.X[row, column])!r}; trees need finite features"
        )


def train_decision_tree(
    data: Dataset,
    max_depth: int | None = 12,
    min_samples_split: int = 2,
    seed: int = 0,
) -> RandomForestModel:
    check_tree_training(data, max_depth, min_samples_split)
    return RandomForestModel(
        kind="decision_tree",
        trees=[build_tree(data.X, data.y, len(data.class_names), max_depth, min_samples_split)],
        class_names=data.class_names,
        n_features=data.X.shape[1],
        seed=seed,
        hyperparameters={"max_depth": max_depth, "min_samples_split": min_samples_split},
    )
