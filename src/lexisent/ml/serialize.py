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


def _node_from_dict(data: dict) -> TreeNode:
    if isinstance(data, dict) and "distribution" in data:
        return TreeNode(distribution=np.asarray(data["distribution"], dtype=float))
    _require(data, ("feature", "threshold", "left", "right"), "a tree node")
    return TreeNode(
        feature=data["feature"],
        threshold=data["threshold"],
        left=_node_from_dict(data["left"]),
        right=_node_from_dict(data["right"]),
    )


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
    return json.dumps(common, sort_keys=True, indent=2) + "\n"


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
    class_names = tuple(data["class_names"])
    n_features = data["n_features"]
    seed = data["seed"]
    hyper = data["hyperparameters"]
    params = data["parameters"]
    if kind == "decision_tree":
        return DecisionTreeModel(
            root=_node_from_dict(params["root"]),
            class_names=class_names,
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
    if kind == "random_forest":
        trees = [
            DecisionTreeModel(
                root=_node_from_dict(t),
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
        return GaussianNBModel(
            class_names=class_names,
            present=np.asarray(params["present"], dtype=int),
            priors=np.asarray(params["priors"], dtype=float),
            means=np.asarray(params["means"], dtype=float),
            variances=np.asarray(params["variances"], dtype=float),
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
    if kind == "linear_svm":
        return LinearSVMModel(
            weights=np.asarray(params["weights"], dtype=float),
            class_names=class_names,
            n_features=n_features,
            seed=seed,
            hyperparameters=hyper,
        )
