"""One-hidden-layer perceptron: rectifier units, sigmoid output, cross-entropy.

Gradients are computed by hand-written backprop and optimized with rmsprop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.models.rmsprop import Params, RmspropConfig, RmspropState, rmsprop_step


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
    return 1.0 / (1.0 + np.exp(-z))


def mlp_loss(params: Params, X: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy, computed from logits for stability."""
    z, _ = _logits(params, X)
    # softplus(z) - y*z == -[y*log(p) + (1-y)*log(1-p)]
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z))


def mlp_gradients(params: Params, X: np.ndarray, y: np.ndarray) -> tuple[float, Params]:
    z, hidden = _logits(params, X)
    prob = 1.0 / (1.0 + np.exp(-z))
    n = X.shape[0]
    dz = (prob - y)[:, None] / n  # (n,1)
    grads = {
        "W2": hidden.T @ dz,
        "b2": dz.sum(axis=0),
    }
    dhidden = dz @ params["W2"].T
    dhidden[hidden <= 0.0] = 0.0
    grads["W1"] = X.T @ dhidden
    grads["b1"] = dhidden.sum(axis=0)
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z)), grads


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
    y = np.asarray(labels, dtype=float)
    if X.shape[0] != y.shape[0]:
        raise ValueError("row/label count mismatch")
    if len(set(y.tolist())) < 2:
        raise ValueError("training requires both classes present")

    params = init_params(X.shape[1], hidden_size, seed)
    state = RmspropState.fresh(params, rmsprop or RmspropConfig())
    rng = np.random.default_rng(seed + 1)
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grads = mlp_gradients(params, X[batch], y[batch])
            rmsprop_step(params, grads, state)
    return MlpModel(params=params, hidden_size=hidden_size)


def mlp_predict(model: MlpModel, row) -> int:
    """1 iff the predicted probability is >= 0.5."""
    prob = mlp_forward(model.params, np.atleast_2d(np.asarray(row, dtype=float)))[0]
    return 1 if prob >= 0.5 else 0
