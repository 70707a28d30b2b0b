"""Gaussian naive Bayes with a variance floor for constant features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..numeric import softmax
from .dataset import Dataset, SettingError


@dataclass
class GaussianNBModel:
    kind = "gaussian_nb"
    class_names: tuple[str, ...]
    present: np.ndarray  # indices of classes that had training samples
    priors: np.ndarray  # (k_present,)
    means: np.ndarray  # (k_present, d)
    variances: np.ndarray  # (k_present, d), already floored
    n_features: int
    seed: int = 0
    hyperparameters: dict = field(default_factory=dict)

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        jll = np.empty((len(X), len(self.present)))
        for i in range(len(self.present)):
            var = self.variances[i]
            log_density = -0.5 * (
                np.log(2.0 * np.pi * var) + (X - self.means[i]) ** 2 / var
            ).sum(axis=1)
            jll[:, i] = np.log(self.priors[i]) + log_density
        return jll

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        posterior = softmax(self._joint_log_likelihood(X))
        out = np.zeros((len(posterior), len(self.class_names)))
        out[:, self.present] = posterior
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def train_gaussian_nb(data: Dataset, var_smoothing: float = 1e-9) -> GaussianNBModel:
    """Per-class priors, feature means and (population) variances.

    Variances are floored at ``var_smoothing`` times the largest overall
    feature variance, so constant features never divide by zero; a
    ``var_smoothing`` that is not finite and above 0, or that gives a
    subnormal floor, is refused.
    """
    if not (math.isfinite(var_smoothing) and var_smoothing > 0):
        raise SettingError("var_smoothing", f"must be a finite number above 0, got {var_smoothing}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    present = np.flatnonzero(np.bincount(data.y, minlength=len(data.class_names)))
    priors = np.empty(len(present))
    means = np.empty((len(present), data.X.shape[1]))
    variances = np.empty_like(means)
    for i, k in enumerate(present):
        rows = data.X[data.y == k]
        priors[i] = len(rows) / len(data)
        means[i] = rows.mean(axis=0)
        variances[i] = rows.var(axis=0)
    floor = var_smoothing * float(data.X.var(axis=0).max())
    if floor == 0.0:
        floor = var_smoothing
    if floor < np.finfo(float).tiny:  # a subnormal variance overflows the log-likelihood
        raise SettingError("var_smoothing", f"{var_smoothing} gives the subnormal floor {floor}")
    variances = np.maximum(variances, floor)
    return GaussianNBModel(
        class_names=data.class_names,
        present=present,
        priors=priors,
        means=means,
        variances=variances,
        n_features=data.X.shape[1],
        hyperparameters={"var_smoothing": var_smoothing},
    )
