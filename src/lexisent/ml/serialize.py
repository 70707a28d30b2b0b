"""Versioned JSON serialization for trained models."""

from __future__ import annotations

import json

import numpy as np

from .forest import RandomForestModel
from .naive_bayes import GaussianNBModel
from .svm import LinearSVMModel
from .tree import DecisionTreeModel, TreeNode

FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"distribution": node.distribution.tolist()}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _require(data, names: tuple[str, ...], where: str = "the model") -> None:
    """Refuse ``data`` unless it is an object holding every field in ``names``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing = [repr(name) for name in names if name not in data]
    if missing:
        raise ValueError(f"missing field {', '.join(missing)} in {where}")


def _node_from_dict(data: dict, n_features: int, n_classes: int) -> TreeNode:
    """A tree node and its subtree: splits on a feature below ``n_features``,
    leaves with a distribution over ``n_classes`` classes."""
    if isinstance(data, dict) and "distribution" in data:
        return TreeNode(distribution=checked_array(data, "distribution", (n_classes,)))
    _require(data, ("feature", "threshold", "left", "right"), "a tree node")
    feature = data["feature"]
    if not _is_int(feature) or not 0 <= feature < n_features:
        raise ValueError(
            f"field 'feature' of a tree node is {feature!r}, expected an int in [0, {n_features})"
        )
    return TreeNode(
        feature=feature,
        threshold=data["threshold"],
        left=_node_from_dict(data["left"], n_features, n_classes),
        right=_node_from_dict(data["right"], n_features, n_classes),
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def checked_array(data: dict, name: str, shape: tuple[int | str, ...]) -> np.ndarray:
    """Field ``name`` of ``data`` as a finite float array of ``shape``, in
    which a string stands for a dimension of any size."""
    try:
        array = np.asarray(data[name], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"field {name!r} is not an array of numbers") from None
    if array.ndim != len(shape) or any(
        isinstance(want, int) and have != want for have, want in zip(array.shape, shape)
    ):
        expected = "(" + ", ".join(map(str, shape)) + ")"
        raise ValueError(f"field {name!r} has shape {array.shape}, expected {expected}")
    if not np.isfinite(array).all():
        raise ValueError(f"field {name!r} holds values that are not finite")
    return array


def save_model(model) -> str:
    common = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "class_names": list(model.class_names),
        "n_features": model.n_features,
        "seed": model.seed,
        "hyperparameters": model.hyperparameters,
    }
    if isinstance(model, DecisionTreeModel):
        common["parameters"] = {"root": _node_to_dict(model.root)}
    elif isinstance(model, RandomForestModel):
        common["parameters"] = {
            "trees": [_node_to_dict(t.root) for t in model.trees]
        }
    elif isinstance(model, GaussianNBModel):
        common["parameters"] = {
            "present": model.present.tolist(),
            "priors": model.priors.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        }
    elif isinstance(model, LinearSVMModel):
        common["parameters"] = {"weights": model.weights.tolist()}
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    return json.dumps(common, sort_keys=True, separators=(",", ":")) + "\n"


MODEL_KINDS = ("decision_tree", "random_forest", "gaussian_nb", "linear_svm")
#: Fields every saved model holds, and the ``parameters`` of each kind.
MODEL_FIELDS = ("class_names", "n_features", "seed", "hyperparameters", "parameters")
PARAMETER_FIELDS = {
    "decision_tree": ("root",),
    "random_forest": ("trees",),
    "gaussian_nb": ("present", "priors", "means", "variances"),
    "linear_svm": ("weights",),
}


def load_model(text: str):
    """A saved classical model, checked field by field: every field present,
    ``class_names`` a list of k strings, ``n_features`` an int >= 0, and the
    parameters shaped for k classes and ``n_features`` features. Naive Bayes
    keeps rows only for the classes in ``present``."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = data.get("kind")
    if kind not in MODEL_KINDS:
        raise ValueError(
            f"expected a classical model ({', '.join(MODEL_KINDS)}), found "
            + ("a contextual model" if "vocabulary" in data else f"kind {kind!r}")
        )
    _require(data, MODEL_FIELDS)
    _require(data["parameters"], PARAMETER_FIELDS[kind], "'parameters'")
    names = data["class_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError("field 'class_names' is not a list of strings")
    class_names = tuple(names)
    k = len(class_names)
    n_features = data["n_features"]
    if not _is_int(n_features) or n_features < 0:
        raise ValueError(f"field 'n_features' is {n_features!r}, expected an int >= 0")
    seed = data["seed"]
    hyper = data["hyperparameters"]
    params = data["parameters"]
    if kind == "decision_tree":
        return DecisionTreeModel(
            root=_node_from_dict(params["root"], n_features, k),
            class_names=class_names,
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
    if kind == "random_forest":
        trees = [
            DecisionTreeModel(
                root=_node_from_dict(t, n_features, k),
                class_names=class_names,
                n_features=n_features,
                seed=seed,
                hyperparameters={},
            )
            for t in params["trees"]
        ]
        return RandomForestModel(
            trees=trees,
            class_names=class_names,
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
    if kind == "gaussian_nb":
        present = params["present"]
        if (
            not isinstance(present, list)
            or not all(_is_int(c) and 0 <= c < k for c in present)
            or len(set(present)) != len(present)
        ):
            raise ValueError(
                f"field 'present' is {present!r}, expected distinct class indices in [0, {k})"
            )
        k_present = len(present)
        return GaussianNBModel(
            class_names=class_names,
            present=np.asarray(present, dtype=int),
            priors=checked_array(params, "priors", (k_present,)),
            means=checked_array(params, "means", (k_present, n_features)),
            variances=checked_array(params, "variances", (k_present, n_features)),
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
    return LinearSVMModel(
        weights=checked_array(params, "weights", (k, n_features)),
        class_names=class_names,
        n_features=n_features,
        seed=seed,
        hyperparameters=hyper,
    )
