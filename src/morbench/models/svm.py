"""Linear SVM trained by primal hinge-loss SGD with the 1/(lambda*t) schedule.

Minimizes (lambda/2)*(||w||^2 + b^2) + mean hinge loss over labels mapped to
{-1, +1}. The bias is regularized with the weights (equivalent to a constant
input feature), which keeps the shrinkage step uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.models.training import checked_labels


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    lam: float


def svm_train(rows, labels, lam: float = 1e-4, epochs: int = 50, seed: int = 0) -> SvmModel:
    """Pegasos-style SGD over seeded per-epoch shuffles; deterministic per seed."""
    X = np.asarray(rows, dtype=float)
    y = checked_labels(X.shape[0], labels, int)
    y_signed = np.where(y == 1, 1.0, -1.0)

    rng = np.random.default_rng(seed)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            shrink = 1.0 - eta * lam
            if y_signed[i] * (X[i] @ w + b) < 1.0:
                w = shrink * w + eta * y_signed[i] * X[i]
                b = shrink * b + eta * y_signed[i]
            else:
                w = shrink * w
                b = shrink * b
    return SvmModel(weights=w, bias=float(b), lam=lam)


def svm_decision(model: SvmModel, row) -> float:
    x = np.asarray(row, dtype=float)
    if x.shape != model.weights.shape:
        raise ValueError(f"feature width {x.shape} != model width {model.weights.shape}")
    return float(x @ model.weights + model.bias)
