"""Unit tests for the stacked bidirectional LSTM classifier."""

import gc
import weakref

import numpy as np
import pytest

from morbench.embeddings import random_table
from morbench.models import lstm
from morbench.models.lstm import (
    BiLstmConfig,
    BiLstmModel,
    _forward,
    _layer_backward,
    _layer_forward,
    _step_inputs,
    bilstm_forward,
    bilstm_gradients,
    bilstm_loss,
    bilstm_train,
    init_params,
)
from morbench.models.rmsprop import RmspropState, rmsprop_step


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
# one stacked layer: both directions of the recurrence at once


def _stack(forward, backward):
    W = np.stack([forward["W"], backward["W"]])
    U = np.stack([forward["U"], backward["U"]])
    b = np.stack([forward["b"], backward["b"]])[:, None, :]
    return W, U, b


def _time_major(X):
    """(B, T, D) -> (T, B, D); the backward direction reads it from the end."""
    return np.ascontiguousarray(np.asarray(X, dtype=float).transpose(1, 0, 2))


def _layer_states(Xtm, W, U, b):
    """Run _layer_forward; returns (states (T, 2, B, H), cache)."""
    cache = _layer_forward(_step_inputs(Xtm), W, U, b)
    return cache[-1][1:], cache


def _run(X, params):
    """The forward direction's states, (B, T, H)."""
    states, _ = _layer_states(_time_major(X), *_stack(params, params))
    return states[:, 0].transpose(1, 0, 2)


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


def _check_layer_backward(last_only):
    rng = np.random.default_rng(7)
    B, T, D, H = 2, 3, 3, 4
    Xtm = _time_major(rng.standard_normal((B, T, D)))
    W, U, b = _stack(_cell_params(D, H, rng), _cell_params(D, H, rng))
    # fixed upstream gradient: on every state, or on each direction's last state only
    G = rng.standard_normal((2, B, H) if last_only else (T, 2, B, H))

    def objective():
        states, _ = _layer_states(Xtm, W, U, b)
        return float(np.sum((states[-1] if last_only else states) * G))

    _, cache = _layer_states(Xtm, W, U, b)
    dW, dU, db, dX_steps = _layer_backward(_step_inputs(Xtm), W, U, cache, G, True)
    dX = dX_steps[:, 0] + dX_steps[::-1, 1]  # each position's two gradients

    step = 1e-5
    for analytic, array in ((dX, Xtm), (dW, W), (dU, U), (db, b)):
        numeric = np.zeros_like(array)
        flat = array.reshape(-1)
        nflat = numeric.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = objective()
            flat[idx] = orig - step
            down = objective()
            flat[idx] = orig
            nflat[idx] = (up - down) / (2 * step)
        assert _rel_error(analytic, numeric.reshape(np.shape(analytic))) < 1e-5


def test_sequence_backward_matches_finite_differences():
    _check_layer_backward(last_only=False)


def test_sequence_backward_from_last_state_only_matches_finite_differences():
    # layer 2's case: no gradient arrives before the last step
    _check_layer_backward(last_only=True)


def test_layer_reversal_symmetry():
    """Reversing time and swapping direction parameters reverses the output."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 5, 3))
    pf = _cell_params(3, 4, rng)
    pb = _cell_params(3, 4, rng)

    def layer(X_, forward, backward):
        states, _ = _layer_states(_time_major(X_), *_stack(forward, backward))
        # position order: forward state at t ++ backward state at t, (T, B, 2H)
        return np.concatenate([states[:, 0], states[::-1, 1]], axis=2)

    out = layer(X, pf, pb)
    out_swapped = layer(X[:, ::-1, :], pb, pf)
    H = 4
    np.testing.assert_allclose(out_swapped[:, :, :H], out[::-1, :, H:], rtol=1e-12)
    np.testing.assert_allclose(out_swapped[:, :, H:], out[::-1, :, :H], rtol=1e-12)


# ---------------------------------------------------------------------------
# exactness against the per-direction loop the stacked recurrence replaced


def _reference_sequence_forward(X, W, U, b):
    """One direction over (B, T, D); returns (states (B, T, H), cache)."""
    B, T, _ = X.shape
    H = U.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    outputs = np.zeros((B, T, H))
    steps = []
    for t in range(T):
        x_t = X[:, t, :]
        pre = x_t @ W + h @ U + b
        i = 1.0 / (1.0 + np.exp(-pre[:, 0 * H : 1 * H]))
        f = 1.0 / (1.0 + np.exp(-pre[:, 1 * H : 2 * H]))
        o = 1.0 / (1.0 + np.exp(-pre[:, 2 * H : 3 * H]))
        g = np.tanh(pre[:, 3 * H : 4 * H])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        steps.append((x_t, h, c, i, f, o, g, tanh_c))
        h, c = o * tanh_c, c_new
        outputs[:, t, :] = h
    return outputs, (steps, W, U)


def _reference_sequence_backward(dH, cache):
    steps, W, U = cache
    B, T, H = dH.shape
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * H)
    dX = np.zeros((B, T, W.shape[0]))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, o, g, tanh_c = steps[t]
        dh = dH[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c**2)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_next = dc * f
        dpre = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g**2)],
            axis=1,
        )
        dW += x_t.T @ dpre
        dU += h_prev.T @ dpre
        db += dpre.sum(axis=0)
        dX[:, t, :] = dpre @ W.T
        dh_next = dpre @ U.T
    return dX, dW, dU, db


def _reference_gradients(params, batch_idx, y, train_embeddings):
    """Loss and gradients with each direction run on its own, batch-major."""

    def run(X, prefix):
        return _reference_sequence_forward(
            X, params[f"{prefix}.W"], params[f"{prefix}.U"], params[f"{prefix}.b"]
        )

    emb = params["embedding"][batch_idx]
    h1f, cache1f = run(emb, "l1f")
    h1b_rev, cache1b = run(emb[:, ::-1, :], "l1b")
    seq1 = np.concatenate([h1f, h1b_rev[:, ::-1, :]], axis=2)
    h2f, cache2f = run(seq1, "l2f")
    h2b_rev, cache2b = run(seq1[:, ::-1, :], "l2b")
    summary = np.concatenate([h2f[:, -1, :], h2b_rev[:, -1, :]], axis=1)
    z = (summary @ params["dense.W"] + params["dense.b"]).ravel()

    B, T = batch_idx.shape
    H1 = params["l1f.U"].shape[0]
    H2 = params["l2f.U"].shape[0]
    dz = (1.0 / (1.0 + np.exp(-z)) - y) / B
    grads = {"dense.W": summary.T @ dz[:, None], "dense.b": np.array([dz.sum()])}
    dsummary = dz[:, None] @ params["dense.W"].T
    dh2f = np.zeros((B, T, H2))
    dh2f[:, -1, :] = dsummary[:, :H2]
    dseq1_f, grads["l2f.W"], grads["l2f.U"], grads["l2f.b"] = _reference_sequence_backward(
        dh2f, cache2f
    )
    dh2b = np.zeros((B, T, H2))
    dh2b[:, -1, :] = dsummary[:, H2:]
    dseq1_b_rev, grads["l2b.W"], grads["l2b.U"], grads["l2b.b"] = _reference_sequence_backward(
        dh2b, cache2b
    )
    dseq1 = dseq1_f + dseq1_b_rev[:, ::-1, :]
    demb_f, grads["l1f.W"], grads["l1f.U"], grads["l1f.b"] = _reference_sequence_backward(
        dseq1[:, :, :H1], cache1f
    )
    demb_b_rev, grads["l1b.W"], grads["l1b.U"], grads["l1b.b"] = _reference_sequence_backward(
        dseq1[:, ::-1, H1:], cache1b
    )
    if train_embeddings:
        demb_table = np.zeros_like(params["embedding"])
        np.add.at(demb_table, batch_idx, demb_f + demb_b_rev[:, ::-1, :])
        demb_table[0] = 0.0
        grads["embedding"] = demb_table
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z)), grads, z


def _perturbed_params(D, H1, H2, V, seed):
    rng = np.random.default_rng(seed)
    params = init_params(random_table(V, D, seed=seed).rows, H1, H2, seed=seed + 1)
    for name in params:
        if name != "embedding":
            params[name] = params[name] + rng.standard_normal(params[name].shape) * 0.1
    return params


@pytest.mark.parametrize("train_embeddings", [False, True])
@pytest.mark.parametrize("T", [1, 30])
@pytest.mark.parametrize("B", [32, 26, 1])
def test_stacked_recurrence_is_bit_identical_to_per_direction_loop(B, T, train_embeddings):
    V, D, H1, H2 = 40, 7, 5, 3
    params = _perturbed_params(D, H1, H2, V, seed=B + T)
    rng = np.random.default_rng(B * T)
    batch_idx = rng.integers(0, V + 1, size=(B, T))  # padding row 0 included
    y = rng.integers(0, 2, size=B).astype(float)
    ref_loss, ref_grads, ref_z = _reference_gradients(params, batch_idx, y, train_embeddings)

    grads = bilstm_gradients(params, batch_idx, y, train_embeddings)
    assert bilstm_loss(params, batch_idx, y) == ref_loss
    assert sorted(grads) == sorted(ref_grads)
    for name, value in ref_grads.items():
        assert np.array_equal(grads[name], value), name
    z, _, _ = _forward(params, batch_idx)
    assert np.array_equal(z, ref_z)


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
    grads = bilstm_gradients(params, batch_idx, y, train_embeddings=True)

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
    grads = bilstm_gradients(params, batch_idx, y, train_embeddings=True)
    np.testing.assert_array_equal(grads["embedding"][0], np.zeros(3))
    assert np.any(grads["embedding"][1:] != 0.0)


def test_zero_dense_layer_gives_half_probability():
    params = _tiny_model_params()
    params["dense.W"][:] = 0.0
    params["dense.b"][:] = 0.0
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=False)
    model_probs = bilstm_forward(np.array([[1, 2], [3, 4]]), model)
    np.testing.assert_allclose(model_probs, [0.5, 0.5], rtol=1e-15)


def test_all_padding_batch_passes_dense_bias_through():
    params = _tiny_model_params()
    for key in list(params):
        if key.startswith(("l1", "l2")):
            params[key][:] = 0.0
    params["dense.b"][:] = 0.7
    z, _, _ = _forward(params, np.zeros((3, 5), dtype=np.intp))
    np.testing.assert_allclose(z, 0.7, rtol=1e-15)


def test_forward_rows_independent_of_batch_composition():
    params = _tiny_model_params()
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=False)
    batch = np.array([[1, 2, 3], [4, 5, 0], [2, 2, 2]])
    together = bilstm_forward(batch, model)
    for row in range(3):
        alone = bilstm_forward(batch[row : row + 1], model)
        assert together[row] == pytest.approx(alone[0], rel=1e-12)


def test_forward_takes_an_index_matrix_and_rejects_other_batches():
    params = _tiny_model_params()
    model = BiLstmModel(params=params, hidden1=2, hidden2=2, embed_trainable=False)
    probs = bilstm_forward(np.array([[1, 2, 0], [3, 4, 5]]), model)
    assert probs.shape == (2,)
    assert np.all(probs > 0) and np.all(probs < 1)
    with pytest.raises(ValueError):
        bilstm_forward([(1, 2), (3, 4, 5)], model)  # ragged
    for batch in (np.array([1, 2, 3]), np.ones((2, 3, 1), dtype=int)):
        with pytest.raises(ValueError, match="2-D index matrix"):
            bilstm_forward(batch, model)


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


def _reference_train(X, y, table, config, seed):
    """The per-model training loop bilstm_train ran before it shared its helpers."""
    params = init_params(table.rows, config.hidden1, config.hidden2, seed)
    trainable = {k: v for k, v in params.items() if config.train_embeddings or k != "embedding"}
    state = RmspropState.fresh(trainable, config.rmsprop)
    rng = np.random.default_rng(seed + 1)
    n = X.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = bilstm_gradients(params, X[batch], y[batch], config.train_embeddings)
            rmsprop_step(params, grads, state)
    return params


@pytest.mark.parametrize("train_embeddings", [False, True])
@pytest.mark.parametrize("n, batch_size", [(20, 8), (9, 9)])
def test_training_is_bit_identical_to_reference_loop(n, batch_size, train_embeddings):
    X, y = _keyword_task(n=n, seed=n)
    table = random_table(11, 5, seed=n)
    config = BiLstmConfig(3, 2, 3, batch_size, train_embeddings=train_embeddings)
    model = bilstm_train(X, y, table, config, seed=n)
    want = _reference_train(X, y, table, config, n)
    assert model.params.keys() == want.keys()
    for name, value in want.items():
        assert np.array_equal(model.params[name], value), name


def test_module_holds_no_arrays_after_training(monkeypatch):
    """Each layer's cache lives for one call; nothing stays behind in the module."""
    made = []

    def recording_layer_forward(*args):
        cache = _layer_forward(*args)
        made.extend(weakref.ref(array) for array in cache)
        return cache

    monkeypatch.setattr(lstm, "_layer_forward", recording_layer_forward)
    X, y = _keyword_task(n=12)
    model = bilstm_train(X, y, random_table(11, 4, seed=0), BiLstmConfig(4, 3, 2, 5), seed=0)
    assert made and model.params
    gc.collect()
    assert all(ref() is None for ref in made)

    def holds_array(value):
        if isinstance(value, np.ndarray):
            return True
        if isinstance(value, dict):
            return any(holds_array(v) for v in value.values())
        if isinstance(value, (list, tuple, set)):
            return any(holds_array(v) for v in value)
        return False

    assert not [name for name, value in vars(lstm).items() if holds_array(value)]
