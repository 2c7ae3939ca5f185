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
linearly decaying learning rate. A document's negatives are drawn in one
call, and its (context, negatives) row matrix, learning rates and
repeated-row flags are built at once. Each pair step gathers its k+1 context
rows once, scores them with one ddot and one gemv (``pair_scores``), takes
one sigmoid over the k+1 scores for every gradient (``pair_gradients``) and
writes the k+1 rows back at once, through ``np.subtract.at`` when a row
repeats. The loss is summed once per document from the kept scores
(``pair_loss``); the table does not depend on it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from morbench.errors import TrainingDiverged, VectorFileError
from morbench.models.training import sigmoid
from morbench.preprocess import PAD_INDEX, Vocabulary, encode

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
        for name in ("dim", "window", "epochs", "negatives", "seed"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, Real) or not math.isfinite(lr) or lr <= 0:
            raise ValueError(f"learning_rate must be a finite number > 0, got {lr!r}")


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


def pair_scores(v_c: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``u_o.v_c`` and ``u_neg @ v_c`` into ``out`` for rows ``[u_o, u_neg...]``.

    One ddot and one gemv: a single gemv over all k+1 rows need not give the
    same bits for ``u_o.v_c``.
    """
    out[0] = rows[0].dot(v_c)
    rows[1:].dot(v_c, out=out[1:])
    return out


def pair_loss(scores: np.ndarray) -> float:
    """``-log s(u_o.v_c) - sum_k log s(-u_k.v_c)`` summed over every pair of
    ``scores``, whose last axis holds ``[u_o.v_c, u_1.v_c, ...]``."""
    z = np.array(scores, dtype=float)
    z[..., 0] *= -1.0
    return float(np.logaddexp(0.0, z).sum())


def pair_gradients(v_c: np.ndarray, rows: np.ndarray, scores: np.ndarray):
    """Gradients of one pair's loss from its scores: ``(g_v, G)``.

    ``g_v`` is w.r.t. v_c and row i of ``G`` w.r.t. ``rows[i]`` (the context,
    then each negative).
    """
    err = sigmoid(scores)
    err[0] -= 1.0  # in (-1, 0)
    g_v = err[0] * rows[0] + err[1:].dot(rows[1:])
    return g_v, err[:, None] * v_c


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


def _pair_positions(n: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) positions of an n-token document in visiting order:
    centers in order, each with its offsets -window..window but 0."""
    offsets = np.array([o for o in range(-window, window + 1) if o])
    i = np.repeat(np.arange(n), len(offsets))
    j = i + np.tile(offsets, n)
    keep = (j >= 0) & (j < n)
    return i[keep], j[keep]


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
    Only the center table is returned; row 0 stays zero throughout. A table
    that is not finite raises TrainingDiverged.
    """
    if not token_lists:
        raise ValueError("cannot train embeddings on an empty corpus")
    rng = np.random.default_rng(config.seed)
    V = len(vocab)
    dim = config.dim

    centers = np.zeros((V + 1, dim))
    centers[1:] = (rng.random((V, dim)) - 0.5) / dim
    contexts = np.zeros((V + 1, dim))

    docs = [np.array(encode(tokens, vocab), dtype=np.intp) for tokens in token_lists]
    counts = np.bincount(np.concatenate(docs), minlength=V + 1).astype(float)

    pairs_per_epoch = sum(len(_pair_positions(len(doc), config.window)[0]) for doc in docs)
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
        for doc in docs:
            i, j = _pair_positions(len(doc), config.window)
            pair_centers, pair_contexts, n_pairs = doc[i], doc[j], len(i)
            # one draw per document is the same stream as k draws per pair;
            # indices 1..V, so the padding row is never sampled
            negs = (np.searchsorted(cumulative, rng.random(n_pairs * k)) + 1).reshape(-1, k)
            all_rows = np.column_stack([pair_contexts, negs])  # [context, negatives...]
            ordered = np.sort(all_rows, axis=1)
            repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).tolist()
            steps = np.arange(t, t + n_pairs)
            lrs = (lr0 * (1.0 - 0.9 * steps / max(total_updates - 1, 1))).tolist()
            t += n_pairs
            scores = np.empty((n_pairs, k + 1))
            for center, rows, lr, repeat, s in zip(
                pair_centers.tolist(), all_rows, lrs, repeats, scores
            ):
                v_c = centers[center]
                U = contexts.take(rows, axis=0)
                g_v, G = pair_gradients(v_c, U, pair_scores(v_c, U, s))
                v_c -= lr * g_v  # a view: this updates the table in place
                G *= lr
                # np.subtract.at alone gives the same bits but made vectors_seq run_s
                # 11% slower (BENCH_14.json), so only pairs that repeat a row take it
                if repeat:  # repeated rows must accumulate, in row order
                    np.subtract.at(contexts, rows, G)
                else:
                    contexts[rows] = U - G
            epoch_loss += pair_loss(scores)
        epoch_losses.append(epoch_loss / pairs_per_epoch)
    centers[PAD_INDEX] = 0.0
    if not np.isfinite(centers).all():
        raise TrainingDiverged(f"skip-gram vectors are not finite at learning rate {lr0!r}")
    return EmbeddingTable(rows=centers), epoch_losses


def random_table(vocab_size: int, dim: int, seed: int) -> EmbeddingTable:
    """Randomly initialized table (uniform +-0.05) with a zero padding row."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-0.05, 0.05, size=(vocab_size + 1, dim))
    rows[PAD_INDEX] = 0.0
    return EmbeddingTable(rows=rows)
