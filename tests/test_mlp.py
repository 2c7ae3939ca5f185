"""Unit tests for the one-hidden-layer perceptron."""

import numpy as np
import pytest

from morbench.models.mlp import (
    init_params,
    mlp_forward,
    mlp_gradients,
    mlp_loss,
    mlp_train,
)
from morbench.models.rmsprop import RmspropConfig, RmspropState, rmsprop_step

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def _zero_params(d, h):
    return {
        "W1": np.zeros((d, h)),
        "b1": np.zeros(h),
        "W2": np.zeros((h, 1)),
        "b2": np.zeros(1),
    }


def _fd_gradients(params, X, y, h=1e-5):
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        flat = value.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = mlp_loss(params, X, y)
            flat[i] = orig - h
            down = mlp_loss(params, X, y)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def _rel_error(a, b):
    num = np.linalg.norm(a.ravel() - b.ravel())
    den = max(np.linalg.norm(a.ravel()) + np.linalg.norm(b.ravel()), 1e-12)
    return num / den


def test_zero_parameters_give_half_probability():
    params = _zero_params(3, 4)
    probs = mlp_forward(params, np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(probs, [0.5, 0.5])


def test_forward_probabilities_in_open_interval():
    params = init_params(5, 7, seed=0)
    X = np.random.default_rng(1).standard_normal((20, 5))
    probs = mlp_forward(params, X)
    assert probs.shape == (20,)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    failures = []
    for trial in range(20):
        d = int(rng.integers(2, 6))
        hdim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        params = init_params(d, hdim, seed=trial)
        # keep relu inputs away from the kink so the numeric check is clean
        params["b1"] += 0.05
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        analytic = mlp_gradients(params, X, y)
        numeric = _fd_gradients(params, X, y)
        worst = max(_rel_error(analytic[k], numeric[k]) for k in analytic)
        if worst >= 1e-5:
            failures.append((trial, worst))
    assert not failures, failures


def test_loss_matches_direct_cross_entropy():
    params = init_params(4, 3, seed=9)
    X = np.random.default_rng(2).standard_normal((10, 4))
    y = np.random.default_rng(3).integers(0, 2, size=10).astype(float)
    probs = mlp_forward(params, X)
    direct = -np.mean(y * np.log(probs) + (1 - y) * np.log(1 - probs))
    assert mlp_loss(params, X, y) == pytest.approx(direct, rel=1e-10)


def test_xor_learned_by_most_seeds():
    solved = 0
    for seed in range(5):
        model = mlp_train(XOR_X, XOR_Y, hidden_size=8, epochs=2000, seed=seed, batch_size=4)
        preds = (mlp_forward(model.params, XOR_X) >= 0.5).astype(int).tolist()
        solved += preds == XOR_Y.tolist()
    assert solved >= 4, solved


def test_single_class_labels_rejected():
    with pytest.raises(ValueError, match="both classes"):
        mlp_train(XOR_X, np.zeros(4, dtype=int))


def test_row_label_count_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        mlp_train(XOR_X, XOR_Y[:-1])


def test_training_is_deterministic_per_seed():
    a = mlp_train(XOR_X, XOR_Y, hidden_size=4, epochs=50, seed=5)
    b = mlp_train(XOR_X, XOR_Y, hidden_size=4, epochs=50, seed=5)
    c = mlp_train(XOR_X, XOR_Y, hidden_size=4, epochs=50, seed=6)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def _reference_gradients(params, X, y):
    """mlp_gradients as it was before training shared its helpers."""
    hidden = np.maximum(0.0, X @ params["W1"] + params["b1"])
    z = (hidden @ params["W2"] + params["b2"]).ravel()
    prob = 1.0 / (1.0 + np.exp(-z))
    dz = (prob - y)[:, None] / X.shape[0]
    grads = {"W2": hidden.T @ dz, "b2": dz.sum(axis=0)}
    dhidden = dz @ params["W2"].T
    dhidden[hidden <= 0.0] = 0.0
    grads["W1"] = X.T @ dhidden
    grads["b1"] = dhidden.sum(axis=0)
    return grads


def _reference_train(X, y, hidden_size, epochs, rmsprop, seed, batch_size):
    """The per-model training loop mlp_train ran before it shared its helpers."""
    params = init_params(X.shape[1], hidden_size, seed)
    state = RmspropState.fresh(params, rmsprop)
    rng = np.random.default_rng(seed + 1)
    n = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            rmsprop_step(params, _reference_gradients(params, X[batch], y[batch]), state)
    return params


@pytest.mark.parametrize("n, batch_size", [(40, 32), (26, 8), (7, 7)])
def test_training_is_bit_identical_to_reference_loop(n, batch_size):
    rng = np.random.default_rng(n)
    X = rng.random((n, 6))
    y = np.arange(n) % 2
    rmsprop = RmspropConfig(learning_rate=0.01)
    model = mlp_train(X, y, 5, 30, rmsprop, seed=n, batch_size=batch_size)
    want = _reference_train(X, y.astype(float), 5, 30, rmsprop, n, batch_size)
    assert model.params.keys() == want.keys()
    for name, value in want.items():
        assert np.array_equal(model.params[name], value), name


def test_glorot_init_shapes_and_zero_biases():
    params = init_params(10, 6, seed=3)
    assert params["W1"].shape == (10, 6)
    assert params["W2"].shape == (6, 1)
    np.testing.assert_array_equal(params["b1"], np.zeros(6))
    np.testing.assert_array_equal(params["b2"], np.zeros(1))
    limit1 = np.sqrt(6.0 / 16)
    assert np.all(np.abs(params["W1"]) <= limit1)
