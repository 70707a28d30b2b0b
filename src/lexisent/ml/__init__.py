"""From-scratch classical classifiers over lexicon-derived feature vectors."""

from .dataset import Dataset, FEATURE_NAMES, SettingError, dataset_csv, featurize, split
from .forest import RandomForestModel, train_random_forest
from .naive_bayes import GaussianNBModel, train_gaussian_nb
from .serialize import MODEL_KINDS, load_model, save_model
from .svm import LinearSVMModel, train_linear_svm
from .tree import train_decision_tree

__all__ = [
    "Dataset",
    "FEATURE_NAMES",
    "MODEL_KINDS",
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
    "save_model",
    "load_model",
]

