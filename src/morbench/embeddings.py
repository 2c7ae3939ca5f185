"""Embedding tables: text-format vector loading and a skip-gram trainer.

One loader serves any text-format vector file (pretrained Word2Vec exports,
GloVe files, or our own trainer's output): one ``word v1 ... v_dim`` entry
per line, with an optional ``V dim`` header. A line whose word is not in the
vocabulary and whose spacing is regular (no leading, doubled or trailing
space, exactly ``dim`` spaces) is dropped without being split; every other
line is split and checked, so the table, the OOV count and every error are
the same as if all lines were split. The trainer implements
skip-gram with negative sampling from scratch; per-pair loss
``-log s(u_o.v_c) - sum_k log s(-u_k.v_c)`` optimized by plain SGD with a
linearly decaying learning rate. Each pair step computes ``u_o.v_c`` and
``u_neg @ v_c`` once and derives the loss and every gradient from them
(``pair_loss_and_gradients``); a document's negatives are drawn in one call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from morbench.errors import VectorFileError
from morbench.models.training import sigmoid
from morbench.preprocess import Vocabulary, encode

PAD_ROW = 0

# A compiled search finds "  " in a 100-value line faster than `in` does
# (about 1.0 against 1.35 us on a 2-vCPU Xeon VM, Python 3.11).
_find_double_space = re.compile("  ").search


@dataclass(frozen=True)
class EmbeddingTable:
    """(V+1) x dim matrix aligned to a Vocabulary; row 0 is the padding vector."""

    rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SkipgramConfig:
    dim: int = 300
    window: int = 5
    epochs: int = 10
    negatives: int = 5
    learning_rate: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.epochs < 1 or self.negatives < 1:
            raise ValueError("dim, window, epochs and negatives must all be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def load_pretrained(path, vocab: Vocabulary, dim: int) -> tuple[EmbeddingTable, int]:
    """Fill an embedding table from a text vector file.

    Vocabulary words absent from the file keep the zero vector; the number of
    such words is returned alongside the table. A leading UTF-8 byte-order
    mark is skipped. A file that cannot be read or is not UTF-8 raises
    VectorFileError naming the path.
    """
    rows = np.zeros((len(vocab) + 1, dim))
    found = set()
    index = vocab.index
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                # An unknown word on a regularly spaced line is dropped here:
                # split(" ") would give it exactly dim values, so the checks
                # below would pass the line and skip it. They would skip it on
                # line 1 too, header or not, so line 1 needs no exception.
                space = line.find(" ")
                if (
                    space > 0
                    and line[:space] not in index
                    and line.count(" ") == dim
                    and _find_double_space(line) is None
                    and not line.endswith((" ", " \n"))
                ):
                    continue
                parts = line.rstrip("\n").split(" ")
                parts = [p for p in parts if p]
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                        continue  # header line
                    except ValueError:
                        pass
                word, values = parts[0], parts[1:]
                if len(values) != dim:
                    raise VectorFileError(
                        f"{path}: line {lineno}: expected {dim} values, found {len(values)}"
                    )
                if word not in vocab:
                    continue
                try:
                    vector = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise VectorFileError(f"{path}: line {lineno}: bad float ({exc})") from exc
                if not np.all(np.isfinite(vector)):
                    raise VectorFileError(f"{path}: line {lineno}: non-finite value")
                rows[vocab[word]] = vector
                found.add(word)
    except OSError as exc:
        raise VectorFileError(f"{path}: cannot read vector file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{path}: vector file is not UTF-8 ({exc.reason})") from exc
    oov_count = len(vocab) - len(found)
    return EmbeddingTable(rows=rows), oov_count


def restrict_table(
    table: EmbeddingTable, table_vocab: Vocabulary, vocab: Vocabulary
) -> EmbeddingTable:
    """The rows of ``table`` (aligned to ``table_vocab``) for a sub-vocabulary.

    Every word of ``vocab`` must be in ``table_vocab``; rows are copied, so the
    result equals loading the same vector file against ``vocab`` directly.
    """
    rows = np.zeros((len(vocab) + 1, table.dim))
    rows[list(vocab.index.values())] = table.rows[[table_vocab[w] for w in vocab.index]]
    return EmbeddingTable(rows=rows)


def save_vectors(table: EmbeddingTable, vocab: Vocabulary, path) -> None:
    """Write rows 1..V in the text vector format, with a ``V dim`` header.

    Floats are written with repr so a reload reproduces them exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vocab)} {table.dim}\n")
        for word in vocab.words:
            row = table.rows[vocab[word]]
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _log_sigmoid(x: float) -> float:
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def pair_loss_and_gradients(v_c: np.ndarray, u_o: np.ndarray, u_neg: np.ndarray):
    """Loss of one (center, context) pair with k negatives, and its gradients.

    Returns ``(loss, (g_v, g_uo, g_uneg))``: the gradients are w.r.t. v_c, u_o
    and each negative u_k. Both come from one ``u_o.v_c`` and one
    ``u_neg @ v_c``.
    """
    pos = float(u_o @ v_c)
    neg = u_neg @ v_c  # shape (k,)
    loss = -_log_sigmoid(pos)
    for x in neg.tolist():
        loss -= _log_sigmoid(-x)
    pos_err = sigmoid(pos) - 1.0  # in (-1, 0)
    neg_err = sigmoid(neg)
    g_v = pos_err * u_o + neg_err @ u_neg
    g_uo = pos_err * v_c
    g_uneg = neg_err[:, None] * v_c[None, :]
    return loss, (g_v, g_uo, g_uneg)


def negative_sampling_cumulative(counts: np.ndarray) -> np.ndarray:
    """Cumulative distribution over words 1..V: unigram counts raised to 0.75.

    Negatives are drawn by binary search of uniform samples against this
    array (index + 1 maps back to vocabulary indices).
    """
    weights = np.asarray(counts, dtype=float) ** 0.75
    total = weights.sum()
    if total <= 0:
        raise ValueError("no word occurrences to sample negatives from")
    return np.cumsum(weights / total)


def train_skipgram(
    token_lists: list[list[str]],
    vocab: Vocabulary,
    config: SkipgramConfig,
) -> tuple[EmbeddingTable, list[float]]:
    """Train center vectors on the corpus; returns (table, per-epoch mean loss).

    Deterministic for a fixed seed: documents, center positions and context
    offsets are visited in corpus order, single-threaded; negatives come from
    the unigram distribution raised to 0.75. Center vectors start uniform in
    [-0.5/dim, 0.5/dim], context vectors at zero; the learning rate decays
    linearly from the configured value to a tenth of it over all pair updates.
    Only the center table is returned; row 0 stays zero throughout.
    """
    if not token_lists:
        raise ValueError("cannot train embeddings on an empty corpus")
    rng = np.random.default_rng(config.seed)
    V = len(vocab)
    dim = config.dim

    centers = np.zeros((V + 1, dim))
    if V:
        centers[1:] = (rng.random((V, dim)) - 0.5) / dim
    contexts = np.zeros((V + 1, dim))

    docs = [encode(tokens, vocab) for tokens in token_lists]
    counts = np.zeros(V + 1)
    for doc in docs:
        for idx in doc:
            counts[idx] += 1

    doc_pairs = []
    for doc in docs:
        n = len(doc)
        doc_pairs.append(
            sum(min(n, i + config.window + 1) - max(0, i - config.window) - 1 for i in range(n))
        )
    pairs_per_epoch = sum(doc_pairs)
    total_updates = pairs_per_epoch * config.epochs
    if total_updates == 0:
        return EmbeddingTable(rows=centers), []

    cumulative = negative_sampling_cumulative(counts[1:])

    lr0 = config.learning_rate
    k = config.negatives
    epoch_losses = []
    t = 0
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for doc, n_pairs in zip(docs, doc_pairs):
            # one draw per document is the same stream as k draws per pair;
            # indices 1..V, so the padding row is never sampled
            doc_negs = (np.searchsorted(cumulative, rng.random(n_pairs * k)) + 1).reshape(-1, k)
            p = 0
            n = len(doc)
            for i in range(n):
                center = doc[i]
                lo, hi = max(0, i - config.window), min(n, i + config.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    context = doc[j]
                    negs = doc_negs[p]
                    if total_updates > 1:
                        lr = lr0 * (1.0 - 0.9 * t / (total_updates - 1))
                    else:
                        lr = lr0
                    v_c = centers[center]
                    u_o = contexts[context]
                    loss, (g_v, g_uo, g_uneg) = pair_loss_and_gradients(v_c, u_o, contexts[negs])
                    epoch_loss += loss
                    v_c -= lr * g_v  # views: these update the tables in place
                    u_o -= lr * g_uo
                    # repeated negatives must accumulate
                    np.subtract.at(contexts, negs, lr * g_uneg)
                    p += 1
                    t += 1
        epoch_losses.append(epoch_loss / pairs_per_epoch)
    centers[PAD_ROW] = 0.0
    return EmbeddingTable(rows=centers), epoch_losses


def random_table(vocab_size: int, dim: int, seed: int, scale: float = 0.05) -> EmbeddingTable:
    """Randomly initialized table (uniform +-scale) with a zero padding row."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-scale, scale, size=(vocab_size + 1, dim))
    rows[PAD_ROW] = 0.0
    return EmbeddingTable(rows=rows)
