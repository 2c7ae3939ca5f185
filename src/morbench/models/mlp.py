"""One-hidden-layer perceptron: rectifier units, sigmoid output, cross-entropy.

Gradients are computed by hand-written backprop and optimized with rmsprop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.models.rmsprop import Params, RmspropConfig, RmspropState, rmsprop_step
from morbench.models.training import checked_labels, mean_bce, minibatches, sigmoid


@dataclass
class MlpModel:
    params: Params  # W1 (d,h), b1 (h,), W2 (h,1), b2 (1,)
    hidden_size: int


def init_params(n_features: int, hidden_size: int, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    limit1 = np.sqrt(6.0 / (n_features + hidden_size))
    limit2 = np.sqrt(6.0 / (hidden_size + 1))
    return {
        "W1": rng.uniform(-limit1, limit1, size=(n_features, hidden_size)),
        "b1": np.zeros(hidden_size),
        "W2": rng.uniform(-limit2, limit2, size=(hidden_size, 1)),
        "b2": np.zeros(1),
    }


def _logits(params: Params, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = np.maximum(0.0, X @ params["W1"] + params["b1"])
    return (hidden @ params["W2"] + params["b2"]).ravel(), hidden


def mlp_forward(params: Params, X) -> np.ndarray:
    """Probabilities in (0,1), one per row."""
    z, _ = _logits(params, np.atleast_2d(np.asarray(X, dtype=float)))
    return sigmoid(z)


def mlp_loss(params: Params, X: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy, computed from logits for stability."""
    return mean_bce(_logits(params, X)[0], y)


def mlp_gradients(params: Params, X: np.ndarray, y: np.ndarray) -> Params:
    """Gradients of mlp_loss for every parameter."""
    z, hidden = _logits(params, X)
    dz = (sigmoid(z) - y)[:, None] / X.shape[0]  # (n,1)
    dhidden = dz @ params["W2"].T
    dhidden[hidden <= 0.0] = 0.0
    return {
        "W2": hidden.T @ dz, "b2": dz.sum(axis=0), "W1": X.T @ dhidden, "b1": dhidden.sum(axis=0)
    }


def mlp_train(
    rows,
    labels,
    hidden_size: int = 100,
    epochs: int = 200,
    rmsprop: RmspropConfig | None = None,
    seed: int = 0,
    batch_size: int = 32,
) -> MlpModel:
    """Mini-batch backprop training; deterministic per seed."""
    X = np.asarray(rows, dtype=float)
    y = checked_labels(X.shape[0], labels, float)
    params = init_params(X.shape[1], hidden_size, seed)
    state = RmspropState.fresh(params, rmsprop or RmspropConfig())
    for batch in minibatches(X.shape[0], batch_size, epochs, seed):
        rmsprop_step(params, mlp_gradients(params, X[batch], y[batch]), state)
    return MlpModel(params=params, hidden_size=hidden_size)
