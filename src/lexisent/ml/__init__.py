"""From-scratch classical classifiers over lexicon-derived feature vectors."""

from .dataset import Dataset, FEATURE_NAMES, SettingError, dataset_csv, featurize, split
from .forest import RandomForestModel, train_random_forest
from .naive_bayes import GaussianNBModel, train_gaussian_nb
from .serialize import MODEL_KINDS, load_model, save_model
from .svm import LinearSVMModel, train_linear_svm
from .tree import DecisionTreeModel, train_decision_tree

__all__ = [
    "Dataset",
    "FEATURE_NAMES",
    "MODEL_KINDS",
    "DecisionTreeModel",
    "RandomForestModel",
    "GaussianNBModel",
    "LinearSVMModel",
    "SettingError",
    "dataset_csv",
    "featurize",
    "split",
    "train_decision_tree",
    "train_random_forest",
    "train_gaussian_nb",
    "train_linear_svm",
    "predict",
    "predict_proba",
    "save_model",
    "load_model",
]


def predict(model, vector):
    """Predicted class index for one feature vector (argmax of probabilities)."""
    x = _check_arity(model, vector)
    return int(model.predict(x[None, :])[0])


def predict_proba(model, vector):
    """Class probability list for one feature vector (sums to 1)."""
    x = _check_arity(model, vector)
    return [float(p) for p in model.predict_proba(x[None, :])[0]]


def _check_arity(model, vector):
    import numpy as np

    x = np.asarray(vector, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n_features:
        raise ValueError(
            f"feature arity mismatch: model expects {model.n_features}, got {x.shape}"
        )
    return x
