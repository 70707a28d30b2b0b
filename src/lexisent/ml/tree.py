"""CART decision tree with Gini impurity and class-frequency leaves."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset


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
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, impurity decrease) over midpoint thresholds.

    Ties resolve to the lowest feature index and then the lowest threshold,
    so training is deterministic. Returns None when nothing improves.
    """
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(float)
    parent_gini = gini(parent_counts)
    one_hot = np.eye(n_classes)[y]

    best: tuple[int, float, float] | None = None
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
            threshold = float((xs[boundaries[i]] + xs[boundaries[i] + 1]) / 2.0)
            best = (int(f), threshold, float(decrease[i]))
    return best


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
    ``n_candidate_features`` of the features as candidates, in that order."""
    d = X.shape[1]
    nodes: list[list] = []  # [feature, threshold, left, right, value] per node
    # A node's rows, its depth, and the split whose right child it is (-1 if
    # none). Left children pop first, so a split's left child is the next node.
    stack = [(X, y, 0, -1)]
    while stack:
        X, y, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        counts = np.bincount(y, minlength=n_classes).astype(float)
        found = None
        grows = (max_depth is None or depth < max_depth) and len(y) >= min_samples_split
        if grows and np.count_nonzero(counts) > 1:
            features = np.arange(d) if feature_rng is None else np.sort(
                feature_rng.choice(d, size=n_candidate_features, replace=False))
            found = best_split(X, y, n_classes, features)
        if found is None:
            nodes.append([-1, 0.0, -1, -1, counts / counts.sum()])
            continue
        feature, threshold, _ = found
        nodes.append([feature, threshold, node + 1, -1, np.zeros(n_classes)])
        mask = X[:, feature] <= threshold
        stack.append((X[~mask], y[~mask], depth + 1, node))
        stack.append((X[mask], y[mask], depth + 1, -1))
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=float),
    )


@dataclass
class DecisionTreeModel:
    """One CART tree (:class:`Tree`) with its classes and training settings."""

    kind = "decision_tree"
    tree: Tree
    class_names: tuple[str, ...]
    n_features: int
    seed: int
    hyperparameters: dict = field(default_factory=dict)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.tree.predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def train_decision_tree(
    data: Dataset,
    max_depth: int | None = 12,
    min_samples_split: int = 2,
    seed: int = 0,
) -> DecisionTreeModel:
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    return DecisionTreeModel(
        tree=build_tree(data.X, data.y, len(data.class_names), max_depth, min_samples_split),
        class_names=data.class_names,
        n_features=data.X.shape[1],
        seed=seed,
        hyperparameters={"max_depth": max_depth, "min_samples_split": min_samples_split},
    )
