"""Random forest: bagged CART trees with per-node feature subsampling, in the
tree model class :class:`~lexisent.ml.tree.RandomForestModel`."""

from __future__ import annotations

import math

from ..numeric import rng_for
from .dataset import Dataset, SettingError
from .tree import RandomForestModel, build_tree, check_tree_training


def train_random_forest(
    data: Dataset,
    n_trees: int = 100,
    max_depth: int | None = 12,
    min_samples_split: int = 2,
    seed: int = 0,
) -> RandomForestModel:
    """Train ``n_trees`` CART trees, each on a bootstrap sample of the rows
    and drawing ceil(sqrt(d)) candidate features at each split; each tree's
    RNG derives from (seed, index), so results do not depend on training order."""
    if n_trees < 1:
        raise SettingError("n_trees", f"must be at least 1, got {n_trees}")
    check_tree_training(data, max_depth, min_samples_split)
    d = data.X.shape[1]
    n_candidates = math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1)  # ceil(sqrt(d))
    trees = []
    for i in range(n_trees):
        rng = rng_for(seed, i)
        idx = rng.integers(0, len(data), size=len(data))
        trees.append(
            build_tree(data.X[idx], data.y[idx], len(data.class_names), max_depth,
                       min_samples_split, feature_rng=rng if n_candidates < d else None,
                       n_candidate_features=n_candidates)
        )
    return RandomForestModel(
        kind="random_forest",
        trees=trees,
        class_names=data.class_names,
        n_features=d,
        seed=seed,
        hyperparameters={
            "n_trees": n_trees,
            "max_depth": max_depth,
            "min_samples_split": min_samples_split,
        },
    )
