"""Stacked bidirectional LSTM classifier with hand-derived BPTT.

Architecture: embedding lookup -> BiLSTM layer 1 (emits the full sequence of
concatenated forward/backward states) -> BiLSTM layer 2 (emits the forward
direction's last state concatenated with the backward direction's state at
position 0) -> dense layer -> logistic output.

Gate layout inside each 4H-wide parameter block is i, f, o, g:

    i = sigmoid(W_i x + U_i h + b_i)      c_t = f * c_prev + i * g
    f = sigmoid(W_f x + U_f h + b_f)      h_t = o * tanh(c_t)
    o = sigmoid(W_o x + U_o h + b_o)
    g = tanh   (W_g x + U_g h + b_g)

One recurrence runs both directions of a layer at once. Its per-step
arrays are time-major, (T, 2, B, .): axis 1 is the direction, and the
backward direction is fed time-reversed, so its step t reads position
T-1-t. A layer's input is held once, in position order (T, B, D), and step
t's (2, B, D) operand is a view of its rows t and T-1-t. The two
directions' parameters are stacked the same way, (2, D, 4H), so a step is
one batched matmul per operand. Training and bilstm_forward run the same
forward pass.

Each call allocates its own per-step caches and gradient buffers, so the
module keeps no array state.

The result is bit-identical to running each direction on its own: a
batched matmul makes the same BLAS call per direction as a separate one
(a view supplies the same rows as a copy), every other operation is
elementwise or a per-direction reduction over the batch, and the operands
of every sum keep the order of the per-direction loop. The backward pass
leaves out only additions of zero (layer 2's state gradient arrives at the
last step alone) and layer 1's input gradient when the embeddings are
frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.embeddings import EmbeddingTable
from morbench.models.rmsprop import Params, RmspropConfig, RmspropState, rmsprop_step
from morbench.models.training import checked_labels, mean_bce, minibatches, sigmoid
from morbench.preprocess import PAD_INDEX


def _stacked(params: Params, layer: str):
    """A layer's (W, U, b), forward direction first: (2, D, 4H), (2, H, 4H), (2, 1, 4H)."""
    W, U, b = (np.stack([params[f"{layer}f.{p}"], params[f"{layer}b.{p}"]]) for p in "WUb")
    return W, U, b[:, None, :]


def _step_inputs(X: np.ndarray) -> list[np.ndarray]:
    """Per step t, rows t and T-1-t of X (T, B, D) as one (2, B, D) view.

    X holds a layer's input in position order; the view is step t's input
    in the forward and in the backward direction.
    """
    X = np.ascontiguousarray(X)
    T, row = X.shape[0], X.strides[0]
    shape, strides = (2, *X.shape[1:]), X.strides[1:]
    return [
        np.ndarray(shape, X.dtype, X, t * row, ((T - 1 - 2 * t) * row, *strides)) for t in range(T)
    ]


def _layer_forward(steps: list[np.ndarray], W, U, b):
    """Run both directions over the step inputs of _step_inputs.

    Returns the cache (ifo, g, c, tanh_c, h), each (T, 2, B, .); c and h
    hold the zero initial state at row 0, so step t's state is row t+1.
    """
    T, B, H = len(steps), steps[0].shape[1], U.shape[1]
    ifo = np.empty((T, 2, B, 3 * H))
    g = np.empty((T, 2, B, H))
    tanh_c = np.empty((T, 2, B, H))
    c = np.zeros((T + 1, 2, B, H))
    h = np.zeros((T + 1, 2, B, H))
    for t, x in enumerate(steps):
        pre = np.matmul(x, W)
        pre += np.matmul(h[t], U)
        pre += b
        gates = ifo[t]
        np.divide(1.0, 1.0 + np.exp(-pre[..., : 3 * H]), out=gates)  # one sigmoid for i, f, o
        np.tanh(pre[..., 3 * H :], out=g[t])
        np.multiply(gates[..., H : 2 * H], c[t], out=c[t + 1])
        c[t + 1] += gates[..., :H] * g[t]
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(gates[..., 2 * H :], tanh_c[t], out=h[t + 1])
    return ifo, g, c, tanh_c, h


def _layer_backward(steps: list[np.ndarray], W, U, cache, dH: np.ndarray, want_dX: bool):
    """BPTT through both directions; returns the stacked (dW, dU, db, dX).

    dH is (T, 2, B, H), the gradient on every emitted state, or (2, B, H),
    the gradient on the last state only. dX, (T, 2, B, D) when want_dX and
    None otherwise, holds each direction's gradient on its step's input.
    """
    ifo, g, c, tanh_c, h = cache
    H = U.shape[1]
    dX = np.empty((len(steps), *steps[0].shape)) if want_dX else None
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros((2, 4 * H))
    WT = W.swapaxes(1, 2)
    UT = U.swapaxes(1, 2)
    last_only = dH.ndim == 3
    dh_next = dc_next = None
    for t in range(len(steps) - 1, -1, -1):
        if dh_next is None:
            dh = dH if last_only else dH[t]
        else:
            dh = dh_next if last_only else dH[t] + dh_next
        gates = ifo[t]
        tc = tanh_c[t]
        dc = dh * gates[..., 2 * H :] * (1.0 - tc**2)
        if dc_next is not None:
            dc += dc_next
        # gradients on the gate activations: di, df, do, then through the sigmoid
        dpre = np.concatenate([dc * g[t], dc * c[t], dh * tc], axis=-1)
        dpre *= gates
        dpre *= 1.0 - gates
        dpre = np.concatenate([dpre, dc * gates[..., :H] * (1.0 - g[t] ** 2)], axis=-1)
        dW += np.matmul(steps[t].swapaxes(1, 2), dpre)
        dU += np.matmul(h[t].swapaxes(1, 2), dpre)
        db += dpre.sum(axis=1)
        if dX is not None:
            np.matmul(dpre, WT, out=dX[t])
        if t:
            dh_next = np.matmul(dpre, UT)
            dc_next = dc * gates[..., H : 2 * H]
    return dW, dU, db, dX


@dataclass(frozen=True)
class BiLstmConfig:
    hidden1: int = 64
    hidden2: int = 64
    epochs: int = 20
    batch_size: int = 32
    rmsprop: RmspropConfig = RmspropConfig()
    train_embeddings: bool = False


@dataclass
class BiLstmModel:
    params: Params  # includes the "embedding" matrix
    hidden1: int
    hidden2: int
    embed_trainable: bool


def _glorot(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(embedding: np.ndarray, hidden1: int, hidden2: int, seed: int) -> Params:
    rng = np.random.default_rng(seed)
    dim = embedding.shape[1]
    params: Params = {"embedding": embedding.copy()}
    for prefix, d_in, h in (
        ("l1f", dim, hidden1),
        ("l1b", dim, hidden1),
        ("l2f", 2 * hidden1, hidden2),
        ("l2b", 2 * hidden1, hidden2),
    ):
        params[f"{prefix}.W"] = _glorot(rng, (d_in, 4 * h))
        params[f"{prefix}.U"] = _glorot(rng, (h, 4 * h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # open forget gates at the start so state carries early on
        params[f"{prefix}.b"] = b
    params["dense.W"] = _glorot(rng, (2 * hidden2, 1))
    params["dense.b"] = np.zeros(1)
    return params


def _forward(params: Params, batch_idx: np.ndarray):
    """Logits, the dense layer's input and, per layer, (steps, W, U, cache)."""
    if batch_idx.ndim != 2:
        raise ValueError(f"need a 2-D index matrix, got shape {batch_idx.shape}")
    T = batch_idx.shape[1]
    steps1 = _step_inputs(params["embedding"][batch_idx.T])  # embedded batch, (T, B, D)
    W1, U1, b1 = _stacked(params, "l1")
    cache1 = _layer_forward(steps1, W1, U1, b1)

    # layer 2 reads position t's forward state ++ backward state; the backward
    # direction's state at position t is its step T-1-t, row T-t of its h
    h1 = cache1[-1]
    steps2 = _step_inputs(np.concatenate([h1[1:, 0], h1[T:0:-1, 1]], axis=2))
    W2, U2, b2 = _stacked(params, "l2")
    cache2 = _layer_forward(steps2, W2, U2, b2)

    # forward direction's last state ++ backward direction's state at position 0
    last = cache2[-1][T]
    summary = np.concatenate([last[0], last[1]], axis=1)  # (B, 2H2)
    z = (summary @ params["dense.W"] + params["dense.b"]).ravel()
    return z, summary, ((steps1, W1, U1, cache1), (steps2, W2, U2, cache2))


def bilstm_forward(batch_idx, model: BiLstmModel) -> np.ndarray:
    """Probabilities in (0,1), one per row of a (documents x length) index matrix."""
    z, _, _ = _forward(model.params, np.asarray(batch_idx, dtype=np.intp))
    return sigmoid(z)


def bilstm_loss(params: Params, batch_idx: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy of the batch."""
    return mean_bce(_forward(params, batch_idx)[0], y)


def bilstm_gradients(
    params: Params, batch_idx: np.ndarray, y: np.ndarray, train_embeddings: bool
) -> Params:
    """Gradients of bilstm_loss for every trainable parameter."""
    B = batch_idx.shape[0]
    z, summary, (layer1_in, layer2_in) = _forward(params, batch_idx)
    H1 = params["l1f.U"].shape[0]
    H2 = params["l2f.U"].shape[0]

    dz = (sigmoid(z) - y) / B  # (B,)
    grads: Params = {
        "dense.W": summary.T @ dz[:, None],
        "dense.b": np.array([dz.sum()]),
    }
    dsummary = dz[:, None] @ params["dense.W"].T  # (B, 2H2)

    # layer 2: gradient arrives only at each direction's final step
    dlast = np.stack([dsummary[:, :H2], dsummary[:, H2:]])
    *layer2, dx2 = _layer_backward(*layer2_in, dlast, True)

    # layer 1: each direction's state gradient, gathered from both of layer 2's input gradients
    dh1 = np.stack(
        [dx2[:, 0, :, :H1] + dx2[::-1, 1, :, :H1], dx2[::-1, 0, :, H1:] + dx2[:, 1, :, H1:]],
        axis=1,
    )
    *layer1, dx1 = _layer_backward(*layer1_in, dh1, train_embeddings)

    for layer, (dW, dU, db) in (("l2", layer2), ("l1", layer1)):
        for d, direction in enumerate("fb"):
            grads[f"{layer}{direction}.W"] = dW[d]
            grads[f"{layer}{direction}.U"] = dU[d]
            grads[f"{layer}{direction}.b"] = db[d]

    if train_embeddings:
        demb = dx1[:, 0] + dx1[::-1, 1]  # (T, B, D)
        demb_table = np.zeros_like(params["embedding"])
        np.add.at(demb_table, batch_idx, demb.transpose(1, 0, 2))
        demb_table[PAD_INDEX] = 0.0
        grads["embedding"] = demb_table
    return grads


def bilstm_train(
    batch_idx,
    labels,
    table: EmbeddingTable,
    config: BiLstmConfig | None = None,
    seed: int = 0,
) -> BiLstmModel:
    """Train on a (documents x length) index matrix; the input table is never touched."""
    config = config or BiLstmConfig()
    X = np.asarray(batch_idx, dtype=np.intp)
    y = checked_labels(X.shape[0], labels, float)
    params = init_params(table.rows, config.hidden1, config.hidden2, seed)
    trainable = {k: v for k, v in params.items() if config.train_embeddings or k != "embedding"}
    state = RmspropState.fresh(trainable, config.rmsprop)
    for batch in minibatches(X.shape[0], config.batch_size, config.epochs, seed):
        grads = bilstm_gradients(params, X[batch], y[batch], config.train_embeddings)
        rmsprop_step(params, grads, state)
    return BiLstmModel(
        params=params,
        hidden1=config.hidden1,
        hidden2=config.hidden2,
        embed_trainable=config.train_embeddings,
    )
