"""Unit tests for the hinge-loss linear classifier."""

import numpy as np
import pytest

from morbench.eval import f1_score
from morbench.models.svm import SvmModel, svm_decision, svm_train

SEPARABLE_X = np.array(
    [
        [1.0, 0.0],
        [0.9, 0.1],
        [0.8, 0.0],
        [0.0, 1.0],
        [0.1, 0.9],
        [0.0, 0.8],
    ]
)
SEPARABLE_Y = np.array([1, 1, 1, 0, 0, 0])


def hinge_objective(model: SvmModel, X: np.ndarray, y_signed: np.ndarray) -> float:
    """Full-batch regularized objective; the training progress oracle."""
    margins = y_signed * (X @ model.weights + model.bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    reg = 0.5 * model.lam * (model.weights @ model.weights + model.bias**2)
    return float(reg + hinge)


def test_separable_data_reaches_perfect_f1_for_five_seeds():
    for seed in range(5):
        model = svm_train(SEPARABLE_X, SEPARABLE_Y, lam=1e-2, epochs=50, seed=seed)
        preds = [int(svm_decision(model, x) >= 0.0) for x in SEPARABLE_X]
        assert f1_score(SEPARABLE_Y, preds) == 1.0, seed


def test_zero_epochs_returns_zero_model():
    model = svm_train(SEPARABLE_X, SEPARABLE_Y, epochs=0, seed=0)
    np.testing.assert_array_equal(model.weights, np.zeros(2))
    assert model.bias == 0.0


def test_objective_descends_with_bounded_wobble():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    y = (X[:, 0] + 0.3 * rng.standard_normal(40) > 0).astype(int)
    y_signed = np.where(y == 1, 1.0, -1.0)
    values = [
        hinge_objective(svm_train(X, y, lam=1e-2, epochs=e, seed=3), X, y_signed)
        for e in range(0, 51, 5)
    ]
    # SGD checkpoints wobble a little near the optimum but never climb back up
    best = values[0]
    for v in values[1:]:
        assert v <= best + 0.01
        best = min(best, v)
    assert values[-1] <= 0.35 * values[0]


def test_single_class_labels_rejected():
    with pytest.raises(ValueError, match="both classes"):
        svm_train(SEPARABLE_X, np.ones(6, dtype=int))


def test_row_label_count_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        svm_train(SEPARABLE_X, SEPARABLE_Y[:-1])


def test_decision_sign_conventions():
    # predict_batch maps a decision >= 0 to 1 (tests/test_predictor.py)
    model = SvmModel(weights=np.array([1.0, 0.0]), bias=0.0, lam=1e-4)
    assert svm_decision(model, [2.0, 5.0]) == 2.0
    assert svm_decision(model, [0.0, 5.0]) == 0.0  # on the margin
    model_neg = SvmModel(weights=np.array([1.0, 0.0]), bias=-3.0, lam=1e-4)
    assert svm_decision(model_neg, [2.0, 0.0]) == pytest.approx(-1.0)


def test_decision_feature_width_mismatch_rejected():
    model = SvmModel(weights=np.array([1.0, 0.0]), bias=0.0, lam=1e-4)
    with pytest.raises(ValueError, match="width"):
        svm_decision(model, [1.0, 2.0, 3.0])


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 5))
    y = rng.integers(0, 2, 30)
    a = svm_train(X, y, lam=1e-2, epochs=3, seed=11)
    b = svm_train(X, y, lam=1e-2, epochs=3, seed=11)
    c = svm_train(X, y, lam=1e-2, epochs=3, seed=12)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert not (np.array_equal(a.weights, c.weights) and a.bias == c.bias)
