"""Unit tests for the stacked bidirectional LSTM classifier."""

import numpy as np
import pytest

from morbench.embeddings import EmbeddingTable, random_table
from morbench.models.lstm import (
    BiLstmConfig,
    BiLstmModel,
    _forward_full,
    _sequence_backward,
    _sequence_forward,
    bilstm_forward,
    bilstm_gradients,
    bilstm_loss,
    bilstm_train,
    init_params,
)
from morbench.preprocess import EncodedDoc


def _cell_params(d, h, rng=None, b_g=0.0):
    if rng is None:
        return {
            "W": np.zeros((d, 4 * h)),
            "U": np.zeros((h, 4 * h)),
            "b": np.concatenate([np.zeros(3 * h), np.full(h, b_g)]),
        }
    return {
        "W": rng.standard_normal((d, 4 * h)) * 0.4,
        "U": rng.standard_normal((h, 4 * h)) * 0.4,
        "b": rng.standard_normal(4 * h) * 0.2,
    }


def _rel_error(a, b):
    num = np.linalg.norm(np.ravel(a) - np.ravel(b))
    den = max(np.linalg.norm(np.ravel(a)) + np.linalg.norm(np.ravel(b)), 1e-12)
    return num / den


# ---------------------------------------------------------------------------
# single cell: the recurrence of _sequence_forward, one step at a time


def _run(X, params):
    out, _ = _sequence_forward(np.asarray(X, dtype=float), params["W"], params["U"], params["b"])
    return out


def test_cell_zero_parameters_give_zero_state():
    params = _cell_params(3, 2)
    h = _run(np.ones((1, 1, 3)), params)
    np.testing.assert_array_equal(h, np.zeros((1, 1, 2)))


def test_cell_hand_values_with_unit_candidate_bias():
    # all weights zero, gate biases zero except the candidate gate's bias of 1:
    # i = f = o = 0.5 and g = tanh(1), so from a zero state
    #   c1 = 0.5 * tanh(1)            = 0.3807970...
    #   h1 = 0.5 * tanh(0.5 * tanh(1)) = 0.1817002...
    params = _cell_params(2, 1, b_g=1.0)
    h = _run(np.zeros((1, 2, 2)), params)[0, :, 0]
    c1 = 0.5 * np.tanh(1.0)
    assert h[0] == pytest.approx(0.5 * np.tanh(c1), abs=1e-12)
    assert h[0] == pytest.approx(0.18170, abs=1e-5)
    # the second step feeds h1/c1 back in; only the recurrent state changes the result
    c2 = 0.5 * c1 + 0.5 * np.tanh(1.0)
    assert h[1] == pytest.approx(0.5 * np.tanh(c2), abs=1e-12)


def test_cell_accepts_batched_and_single_inputs():
    rng = np.random.default_rng(0)
    params = _cell_params(3, 4, rng)
    X = rng.standard_normal((5, 2, 3))
    batch = _run(X, params)
    for row in range(5):
        np.testing.assert_allclose(batch[row], _run(X[row : row + 1], params)[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# one-direction sequence backward pass


def test_sequence_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    B, T, D, H = 2, 3, 3, 4
    X = rng.standard_normal((B, T, D))
    params = _cell_params(D, H, rng)
    G = rng.standard_normal((B, T, H))  # fixed upstream gradient

    def objective(X_, W_, U_, b_):
        out, _ = _sequence_forward(X_, W_, U_, b_)
        return float(np.sum(out * G))

    out, cache = _sequence_forward(X, params["W"], params["U"], params["b"])
    dX, dW, dU, db = _sequence_backward(G, cache)

    step = 1e-5
    for analytic, array in ((dX, X), (dW, params["W"]), (dU, params["U"]), (db, params["b"])):
        numeric = np.zeros_like(array)
        flat = array.ravel()
        nflat = numeric.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = objective(X, params["W"], params["U"], params["b"])
            flat[idx] = orig - step
            down = objective(X, params["W"], params["U"], params["b"])
            flat[idx] = orig
            nflat[idx] = (up - down) / (2 * step)
        assert _rel_error(analytic, numeric) < 1e-5


def test_layer_reversal_symmetry():
    """Reversing time and swapping direction parameters reverses the output."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 5, 3))
    pf = _cell_params(3, 4, rng)
    pb = _cell_params(3, 4, rng)

    def layer(X_, forward, backward):
        return np.concatenate([_run(X_, forward), _run(X_[:, ::-1, :], backward)[:, ::-1, :]], axis=2)

    out = layer(X, pf, pb)
    out_swapped = layer(X[:, ::-1, :], pb, pf)
    H = 4
    np.testing.assert_allclose(out_swapped[:, :, :H], out[:, ::-1, H:], rtol=1e-12)
    np.testing.assert_allclose(out_swapped[:, :, H:], out[:, ::-1, :H], rtol=1e-12)


# ---------------------------------------------------------------------------
# full model


def _tiny_model_params(vocab_size=6, dim=3, h1=2, h2=2, seed=0):
    table = random_table(vocab_size, dim, seed=seed)
    return init_params(table.rows, h1, h2, seed=seed + 1)


def test_full_gradients_match_finite_differences_including_embeddings():
    rng = np.random.default_rng(11)
    params = _tiny_model_params()
    # indices start at 1: the padding row's gradient is pinned to zero by design,
    # so it is checked separately below
    batch_idx = rng.integers(1, 7, size=(2, 4))
    y = np.array([1.0, 0.0])
    _, grads = bilstm_gradients(params, batch_idx, y, train_embeddings=True)

    step = 1e-5
    for name, value in params.items():
        numeric = np.zeros_like(value)
        flat = value.ravel()
        nflat = numeric.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = bilstm_loss(params, batch_idx, y)
            flat[idx] = orig - step
            down = bilstm_loss(params, batch_idx, y)
            flat[idx] = orig
            nflat[idx] = (up - down) / (2 * step)
        if name == "embedding":
            numeric[0] = 0.0  # match the deliberate pin on the padding row
        assert _rel_error(grads[name], numeric) < 1e-5, name


def test_padding_row_gradient_is_pinned_to_zero():
    params = _tiny_model_params()
    batch_idx = np.array([[0, 1, 2], [3, 0, 0]])
    y = np.array([1.0, 0.0])
    _, grads = bilstm_gradients(params, batch_idx, y, train_embeddings=True)
    np.testing.assert_array_equal(grads["embedding"][0], np.zeros(3))
    assert np.any(grads["embedding"][1:] != 0.0)


def test_zero_dense_layer_gives_half_probability():
    params = _tiny_model_params()
    params["dense.W"][:] = 0.0
    params["dense.b"][:] = 0.0
    model_probs = 1.0 / (1.0 + np.exp(-_forward_full(params, np.array([[1, 2], [3, 4]]))[0]))
    np.testing.assert_allclose(model_probs, [0.5, 0.5], rtol=1e-15)


def test_all_padding_batch_passes_dense_bias_through():
    params = _tiny_model_params()
    for key in list(params):
        if key.startswith(("l1", "l2")):
            params[key][:] = 0.0
    params["dense.b"][:] = 0.7
    z, _ = _forward_full(params, np.zeros((3, 5), dtype=np.intp))
    np.testing.assert_allclose(z, 0.7, rtol=1e-15)


def test_forward_rows_independent_of_batch_composition():
    params = _tiny_model_params()
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=False)
    batch = np.array([[1, 2, 3], [4, 5, 0], [2, 2, 2]])
    together = bilstm_forward(batch, model)
    for row in range(3):
        alone = bilstm_forward(batch[row : row + 1], model)
        assert together[row] == pytest.approx(alone[0], rel=1e-12)


def test_forward_accepts_encoded_docs_and_rejects_ragged_batches():
    params = _tiny_model_params()
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=False)
    docs = [EncodedDoc(indices=(1, 2, 0), original_length=2), EncodedDoc((3, 4, 5), 3)]
    probs = bilstm_forward(docs, model)
    assert probs.shape == (2,)
    assert np.all(probs > 0) and np.all(probs < 1)
    with pytest.raises(ValueError, match="one length"):
        bilstm_forward([(1, 2), (3, 4, 5)], model)


# ---------------------------------------------------------------------------
# training


def _keyword_task(n=40, length=6, vocab=10, seed=5):
    """Label 1 iff token 1 appears; token draws otherwise uniform over 2..vocab."""
    rng = np.random.default_rng(seed)
    X = rng.integers(2, vocab + 1, size=(n, length))
    y = rng.integers(0, 2, size=n)
    for row in range(n):
        if y[row] == 1:
            X[row, rng.integers(0, length)] = 1
    return X, y.astype(float)


def test_training_reduces_loss():
    X, y = _keyword_task()
    table = random_table(11, 8, seed=2)
    cfg = dict(hidden1=6, hidden2=6, batch_size=8, train_embeddings=True)
    short = bilstm_train(X, y, table, BiLstmConfig(epochs=1, **cfg), seed=0)
    long = bilstm_train(X, y, table, BiLstmConfig(epochs=30, **cfg), seed=0)
    assert bilstm_loss(long.params, X, y) < bilstm_loss(short.params, X, y) * 0.6


def test_training_is_deterministic_per_seed():
    X, y = _keyword_task(n=16)
    table = random_table(11, 6, seed=2)
    cfg = BiLstmConfig(hidden1=4, hidden2=4, epochs=2)
    a = bilstm_train(X, y, table, cfg, seed=9)
    b = bilstm_train(X, y, table, cfg, seed=9)
    c = bilstm_train(X, y, table, cfg, seed=10)
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_frozen_embeddings_stay_bit_identical():
    X, y = _keyword_task(n=16)
    table = random_table(11, 6, seed=4)
    before = table.rows.copy()
    model = bilstm_train(
        X, y, table, BiLstmConfig(hidden1=4, hidden2=4, epochs=3, train_embeddings=False), seed=0
    )
    np.testing.assert_array_equal(table.rows, before)  # caller's table untouched
    np.testing.assert_array_equal(model.params["embedding"], before)
    assert not model.embed_trainable


def test_trainable_embeddings_move_but_padding_row_stays_zero():
    X, y = _keyword_task(n=16)
    X[:, -1] = 0  # force padding into every row
    table = random_table(11, 6, seed=4)
    before = table.rows.copy()
    model = bilstm_train(
        X, y, table, BiLstmConfig(hidden1=4, hidden2=4, epochs=3, train_embeddings=True), seed=0
    )
    np.testing.assert_array_equal(table.rows, before)  # caller's table still untouched
    assert not np.array_equal(model.params["embedding"], before)
    np.testing.assert_array_equal(model.params["embedding"][0], np.zeros(6))
    assert model.embed_trainable


def test_single_class_and_mismatch_rejected():
    table = random_table(5, 4, seed=0)
    X = np.array([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="both classes"):
        bilstm_train(X, [1, 1], table)
    with pytest.raises(ValueError, match="mismatch"):
        bilstm_train(X, [1], table)


def test_forget_gate_bias_initialized_open():
    params = _tiny_model_params(h1=3, h2=2)
    for prefix, h in (("l1f", 3), ("l1b", 3), ("l2f", 2), ("l2b", 2)):
        b = params[f"{prefix}.b"]
        np.testing.assert_array_equal(b[h : 2 * h], np.ones(h))
        np.testing.assert_array_equal(b[:h], np.zeros(h))
        np.testing.assert_array_equal(b[2 * h :], np.zeros(2 * h))


def test_embedding_property_wraps_current_rows():
    params = _tiny_model_params()
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=True)
    assert isinstance(model.embedding, EmbeddingTable)
    assert model.embedding.rows is params["embedding"]
