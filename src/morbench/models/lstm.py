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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.embeddings import EmbeddingTable
from morbench.models.rmsprop import Params, RmspropConfig, RmspropState, rmsprop_step
from morbench.preprocess import EncodedDoc


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _sequence_forward(X: np.ndarray, W, U, b):
    """Run one direction over (B, T, D); returns (H_out (B,T,H), cache)."""
    B, T, _ = X.shape
    H = U.shape[0]
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    outputs = np.zeros((B, T, H))
    steps = []
    for t in range(T):
        x_t = X[:, t, :]
        pre = x_t @ W + h @ U + b
        i = _sigmoid(pre[:, 0 * H : 1 * H])
        f = _sigmoid(pre[:, 1 * H : 2 * H])
        o = _sigmoid(pre[:, 2 * H : 3 * H])
        g = np.tanh(pre[:, 3 * H : 4 * H])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append((x_t, h, c, i, f, o, g, tanh_c))
        h, c = h_new, c_new
        outputs[:, t, :] = h
    return outputs, (steps, W, U)


def _sequence_backward(dH: np.ndarray, cache):
    """BPTT through one direction; dH holds gradients on every emitted state."""
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
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g**2),
            ],
            axis=1,
        )
        dW += x_t.T @ dpre
        dU += h_prev.T @ dpre
        db += dpre.sum(axis=0)
        dX[:, t, :] = dpre @ W.T
        dh_next = dpre @ U.T
    return dX, dW, dU, db


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

    @property
    def embedding(self) -> EmbeddingTable:
        return EmbeddingTable(rows=self.params["embedding"])


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


def _forward_full(params: Params, batch_idx: np.ndarray):
    """Logits plus every intermediate needed for the backward pass."""
    emb = params["embedding"][batch_idx]  # (B, T, D)

    h1f, cache1f = _sequence_forward(emb, params["l1f.W"], params["l1f.U"], params["l1f.b"])
    h1b_rev, cache1b = _sequence_forward(
        emb[:, ::-1, :], params["l1b.W"], params["l1b.U"], params["l1b.b"]
    )
    seq1 = np.concatenate([h1f, h1b_rev[:, ::-1, :]], axis=2)  # (B, T, 2H1)

    h2f, cache2f = _sequence_forward(seq1, params["l2f.W"], params["l2f.U"], params["l2f.b"])
    h2b_rev, cache2b = _sequence_forward(
        seq1[:, ::-1, :], params["l2b.W"], params["l2b.U"], params["l2b.b"]
    )
    # forward direction's last state ++ backward direction's state at position 0
    summary = np.concatenate([h2f[:, -1, :], h2b_rev[:, -1, :]], axis=1)  # (B, 2H2)

    z = (summary @ params["dense.W"] + params["dense.b"]).ravel()
    return z, (emb, cache1f, cache1b, cache2f, cache2b, summary)


def bilstm_forward(encoded_batch, model: BiLstmModel) -> np.ndarray:
    """Probabilities in (0,1), one per document."""
    batch_idx = _as_index_batch(encoded_batch)
    z, _ = _forward_full(model.params, batch_idx)
    return _sigmoid(z)


def _as_index_batch(encoded_batch) -> np.ndarray:
    if isinstance(encoded_batch, np.ndarray):
        return encoded_batch.astype(np.intp)
    rows = []
    for doc in encoded_batch:
        rows.append(doc.indices if isinstance(doc, EncodedDoc) else tuple(doc))
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"all sequences must share one length, got {sorted(lengths)}")
    return np.array(rows, dtype=np.intp)


def bilstm_loss(params: Params, batch_idx: np.ndarray, y: np.ndarray) -> float:
    z, _ = _forward_full(params, batch_idx)
    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z))


def bilstm_gradients(
    params: Params, batch_idx: np.ndarray, y: np.ndarray, train_embeddings: bool
) -> tuple[float, Params]:
    """Mean BCE loss and gradients for every trainable parameter."""
    z, (emb, cache1f, cache1b, cache2f, cache2b, summary) = _forward_full(params, batch_idx)
    prob = _sigmoid(z)
    B, T = batch_idx.shape
    H2 = params["l2f.U"].shape[0]

    dz = (prob - y) / B  # (B,)
    grads: Params = {
        "dense.W": summary.T @ dz[:, None],
        "dense.b": np.array([dz.sum()]),
    }
    dsummary = dz[:, None] @ params["dense.W"].T  # (B, 2H2)

    # layer 2: gradient arrives only at each direction's final step
    dh2f = np.zeros((B, T, H2))
    dh2f[:, -1, :] = dsummary[:, :H2]
    dseq1_f, grads["l2f.W"], grads["l2f.U"], grads["l2f.b"] = _sequence_backward(dh2f, cache2f)

    dh2b = np.zeros((B, T, H2))
    dh2b[:, -1, :] = dsummary[:, H2:]
    dseq1_b_rev, grads["l2b.W"], grads["l2b.U"], grads["l2b.b"] = _sequence_backward(dh2b, cache2b)

    dseq1 = dseq1_f + dseq1_b_rev[:, ::-1, :]  # (B, T, 2H1)

    # layer 1: split the concatenated state gradient back per direction
    H1 = params["l1f.U"].shape[0]
    demb_f, grads["l1f.W"], grads["l1f.U"], grads["l1f.b"] = _sequence_backward(
        dseq1[:, :, :H1], cache1f
    )
    demb_b_rev, grads["l1b.W"], grads["l1b.U"], grads["l1b.b"] = _sequence_backward(
        dseq1[:, ::-1, H1:], cache1b
    )
    demb = demb_f + demb_b_rev[:, ::-1, :]

    if train_embeddings:
        demb_table = np.zeros_like(params["embedding"])
        np.add.at(demb_table, batch_idx, demb)
        demb_table[0] = 0.0  # padding row stays zero
        grads["embedding"] = demb_table

    softplus = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
    return float(np.mean(softplus - y * z)), grads


def bilstm_train(
    encoded_docs,
    labels,
    table: EmbeddingTable,
    config: BiLstmConfig | None = None,
    seed: int = 0,
) -> BiLstmModel:
    """Train on padded index sequences; the input table itself is never touched."""
    config = config or BiLstmConfig()
    batch_idx = _as_index_batch(encoded_docs)
    y = np.asarray(labels, dtype=float)
    if batch_idx.shape[0] != y.shape[0]:
        raise ValueError("document/label count mismatch")
    if len(set(y.tolist())) < 2:
        raise ValueError("training requires both classes present")

    params = init_params(table.rows, config.hidden1, config.hidden2, seed)
    trainable = {k: v for k, v in params.items() if config.train_embeddings or k != "embedding"}
    state = RmspropState.fresh(trainable, config.rmsprop)

    rng = np.random.default_rng(seed + 1)
    n = batch_idx.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            _, grads = bilstm_gradients(params, batch_idx[batch], y[batch], config.train_embeddings)
            rmsprop_step(params, grads, state)
    return BiLstmModel(
        params=params,
        hidden1=config.hidden1,
        hidden2=config.hidden2,
        embed_trainable=config.train_embeddings,
    )
