"""What the classifiers' training shares: the training-data check, the seeded
minibatch order, the logistic output and its mean binary cross-entropy."""

from __future__ import annotations

import numpy as np


def checked_labels(n_rows: int, labels, dtype: type) -> np.ndarray:
    """The labels as an array, once they pair with n_rows rows and hold both classes."""
    y = np.asarray(labels, dtype=dtype)
    if n_rows != y.shape[0]:
        raise ValueError("row/label count mismatch")
    if len(set(y.tolist())) < 2:
        raise ValueError("training requires both classes present")
    return y


def minibatches(n: int, batch_size: int, epochs: int, seed: int):
    """Row indices of each minibatch: per epoch, one permutation of the n rows,
    cut into slices of batch_size. The permutations have their own generator,
    seeded one above the seed that initialized the parameters."""
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def mean_bce(z: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of logits z against 0/1 labels y."""
    # softplus(z) - y*z == -[y*log(p) + (1-y)*log(1-p)], stable for any z
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z))
