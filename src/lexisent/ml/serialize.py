"""Model files of the classical models, in the envelope of :mod:`lexisent.artifact`."""

from __future__ import annotations

import numpy as np

from .. import artifact
from ..artifact import checked_array, checked_names, is_int, require
from ..settings import MODEL_KINDS
from .naive_bayes import GaussianNBModel
from .svm import LinearSVMModel
from .tree import RandomForestModel, Tree

#: The arrays of a saved tree (see :class:`~lexisent.ml.tree.Tree`).
TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _tree_to_dict(tree: Tree) -> dict:
    return {name: getattr(tree, name).tolist() for name in TREE_FIELDS}


def _tree_from_dict(data, where: str, n_features: int, n_classes: int) -> Tree:
    """The tree ``where`` of a saved model, checked array by array: splits on
    a feature below ``n_features``, every split's children after it, leaves
    with -1 children, and finite thresholds and ``(nodes, n_classes)`` values.
    The ordering of children also bounds the walk in :meth:`Tree.predict_proba`."""
    require(data, TREE_FIELDS, where)
    feature = _node_indices(data, "feature", where, n_features)
    nodes = len(feature)
    split = feature >= 0
    after = np.arange(nodes)
    children = []
    for name in ("left", "right"):
        child = _node_indices(data, name, where, nodes)
        if len(child) != nodes:
            raise ValueError(f"field {name!r} of {where} has {len(child)} nodes, expected {nodes}")
        bad = np.flatnonzero(np.where(split, child <= after, child != -1))
        if bad.size:
            i = int(bad[0])
            expected = f"a node in ({i}, {nodes}) at a split" if split[i] else "-1 at a leaf"
            raise ValueError(
                f"field {name!r} of {where} holds {child[i]} at node {i}, expected {expected}"
            )
        children.append(child)
    return Tree(
        feature=feature,
        threshold=checked_array(data, "threshold", (nodes,), where),
        left=children[0],
        right=children[1],
        value=checked_array(data, "value", (nodes, n_classes), where),
    )


def _node_indices(data: dict, name: str, where: str, stop: int) -> np.ndarray:
    """Field ``name`` of a tree as an int array, non-empty, each entry -1 or
    in [0, stop)."""
    values = data[name]
    if not isinstance(values, list) or not values:
        raise ValueError(f"field {name!r} of {where} is not a non-empty list")
    for value in values:
        if not is_int(value) or not -1 <= value < stop:
            raise ValueError(
                f"field {name!r} of {where} holds {value!r}, expected -1 or an int in [0, {stop})"
            )
    return np.array(values, dtype=np.intp)


def _positive_array(params: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """:func:`checked_array` of field ``name``, refused unless every entry is above 0."""
    array = checked_array(params, name, shape)
    if not (array > 0).all():
        raise ValueError(f"field {name!r} holds values that are not above 0")
    return array


def save_model(model) -> str:
    if isinstance(model, RandomForestModel):
        parameters = {"trees": [_tree_to_dict(tree) for tree in model.trees]}
    elif isinstance(model, GaussianNBModel):
        parameters = {
            "present": model.present.tolist(),
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        }
    elif isinstance(model, LinearSVMModel):
        parameters = {"weights": model.weights.tolist()}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return artifact.dumps(model.kind, model.seed, model.hyperparameters, {
        "class_names": list(model.class_names), "n_features": model.n_features,
        "parameters": parameters})


#: Fields every saved model holds, and the ``parameters`` of each kind.
MODEL_FIELDS = ("class_names", "n_features", "seed", "hyperparameters", "parameters")
PARAMETER_FIELDS = {
    "decision_tree": ("trees",),
    "random_forest": ("trees",),
    "gaussian_nb": ("present", "priors", "means", "variances"),
    "linear_svm": ("weights",),
}


def load_model(text: str):
    """A saved classical model, checked field by field after the envelope:
    ``class_names`` a list of k distinct strings, ``n_features`` an int >= 0, and the
    parameters shaped for k classes and ``n_features`` features. ``trees`` is
    a non-empty list, with exactly one tree for a decision tree. Naive Bayes
    keeps rows only for the classes in ``present``, and its ``priors`` and
    ``variances`` must be above 0."""
    data = artifact.loads(text, "classical", MODEL_KINDS, MODEL_FIELDS)
    kind, params = data["kind"], data["parameters"]
    require(params, PARAMETER_FIELDS[kind], "'parameters'")
    class_names = checked_names(data, "class_names")
    k = len(class_names)
    n_features = data["n_features"]
    if not is_int(n_features) or n_features < 0:
        raise ValueError(f"field 'n_features' is {n_features!r}, expected an int >= 0")
    common = {"class_names": class_names, "n_features": n_features, "seed": data["seed"],
              "hyperparameters": data["hyperparameters"]}
    if kind in ("decision_tree", "random_forest"):
        saved = params["trees"]
        if not isinstance(saved, list) or not saved:
            raise ValueError("field 'trees' is not a non-empty list")
        if kind == "decision_tree" and len(saved) != 1:
            raise ValueError(f"field 'trees' holds {len(saved)} trees, expected 1")
        trees = [_tree_from_dict(tree, f"tree {i}", n_features, k) for i, tree in enumerate(saved)]
        return RandomForestModel(kind=kind, trees=trees, **common)
    if kind == "gaussian_nb":
        present = params["present"]
        if (
            not isinstance(present, list)
            or not all(is_int(c) and 0 <= c < k for c in present)
            or len(set(present)) != len(present)
        ):
            raise ValueError(
                f"field 'present' is {present!r}, expected distinct class indices in [0, {k})"
            )
        k_present = len(present)
        return GaussianNBModel(
            present=np.asarray(present, dtype=int),
            priors=_positive_array(params, "priors", (k_present,)),
            means=checked_array(params, "means", (k_present, n_features)),
            variances=_positive_array(params, "variances", (k_present, n_features)),
            **common,
        )
    return LinearSVMModel(weights=checked_array(params, "weights", (k, n_features)), **common)
