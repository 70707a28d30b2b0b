"""One-vs-rest linear SVM trained with the Pegasos subgradient schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..numeric import rng_for, softmax
from .dataset import Dataset, SettingError


@dataclass
class LinearSVMModel:
    kind = "linear_svm"
    weights: np.ndarray  # (k, d); no intercept, margins are w . x
    class_names: tuple[str, ...]
    n_features: int
    seed: int
    hyperparameters: dict = field(default_factory=dict)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights.T

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        # Softmax over margins; used only for ranking (ROC), not calibration.
        return softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1)


#: Steps whose samples :func:`_train_heads` gathers at once. Gathering a
#: whole epoch's (n, k, d) samples, or precomputing its (n, k) labels and
#: step sizes, raised the train-explain benchmark's peak RSS.
GATHER_STEPS = 256


def _train_heads(X: np.ndarray, y: np.ndarray, k: int, lam: float, epochs: int,
                 seed: int) -> np.ndarray:
    """Pegasos for all k one-vs-rest heads at once, one row of the (k, d)
    weights per head. Head c visits the samples in the order of its own
    ``rng_for(seed, c)`` permutations, and all heads share the step t.

    The samples, labels, step sizes and decays are computed for
    :data:`GATHER_STEPS` steps at a time, not step by step; each step's
    (k, d) slice of the gathered samples is contiguous as a per-step gather
    would make it, so the weights keep their bits."""
    n, d = X.shape
    rngs = [rng_for(seed, c) for c in range(k)]
    y_signed = np.where(y[:, None] == np.arange(k), 1.0, -1.0)  # (n, k)
    heads = np.arange(k)
    w = np.zeros((k, d))
    for epoch in range(epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])  # (k, n)
        for start in range(0, n, GATHER_STEPS):
            visits = orders[:, start : start + GATHER_STEPS].T  # (steps, k): each head's sample
            block = X[visits]  # (steps, k, d)
            labels = y_signed[visits, heads]  # (steps, k)
            t = np.arange(epoch * n + start + 1, epoch * n + start + len(visits) + 1)
            eta_labels = (1.0 / (lam * t))[:, None] * labels
            for x, y_step, eta_y, decay in zip(block, labels, eta_labels, 1.0 - 1.0 / t):
                w *= decay
                violated = y_step * np.einsum("kd,kd->k", w, x) < 1.0
                # Rows without a violated margin add exact zeros.
                w += (eta_y * violated)[:, None] * x
    return w


def train_linear_svm(
    data: Dataset, lam: float = 1e-4, epochs: int = 50, seed: int = 0
) -> LinearSVMModel:
    """L2-regularized hinge loss, step size 1/(lam*t), one head per class.

    Each head's sample order comes from its own (seed, head) generator, so the
    result is independent of head training order.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise SettingError("lam", f"must be a finite number above 0, got {lam}")
    if epochs < 1:
        raise SettingError("epochs", f"must be at least 1, got {epochs}")
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    return LinearSVMModel(
        weights=_train_heads(data.X, data.y, len(data.class_names), lam, epochs, seed),
        class_names=data.class_names,
        n_features=data.X.shape[1],
        seed=seed,
        hyperparameters={"lam": lam, "epochs": epochs},
    )
