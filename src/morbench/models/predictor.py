"""Prediction through a trained classifier and its fitted featurizer.

A PredictorHandle freezes one trained per-morbidity classifier together with
the exact preprocessing fitted alongside it, so raw text maps to a 0/1 call
without re-deriving any corpus statistics at prediction time.

Each representation has one featurization path, and it lives here:

* ``note_tokens``: lowercase and tokenize a note; the TF-IDF kinds (svm, mlp)
  also drop stopwords and numbers;
* ``tfidf_matrix`` (svm, mlp): dense TF-IDF rows, each scaled to a peak of 1;
* ``index_matrix`` (bilstm): vocabulary indices padded or truncated to the
  fitted length.

``predict_batch`` runs a handle's featurizer and model over many notes.
Cross-validation (morbench.eval) builds its training matrices with the same
functions and scores every held-out fold through ``predict_batch``, so a
handle predicts with exactly the code whose F1 the report shows. ``predict``
is a one-note call of ``predict_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morbench.models import mlp, svm
from morbench.models.lstm import BiLstmModel, bilstm_forward
from morbench.preprocess import (
    LengthPolicy,
    Vocabulary,
    encode,
    filter_for_tfidf,
    normalize_text,
    pad_truncate,
    tokenize,
)
from morbench.tfidf import TfidfModel, normalize_row, transform

KINDS = ("svm", "mlp", "bilstm")
# notes per bilstm_forward call, so scoring memory is bounded like a training batch's
BILSTM_SCORE_BATCH = 32


@dataclass
class PredictorHandle:
    kind: str  # one of KINDS
    morbidity: str
    model: svm.SvmModel | mlp.MlpModel | BiLstmModel
    # tf-idf path
    tfidf: TfidfModel | None = None
    stopwords: frozenset | None = None
    # sequence path
    vocab: Vocabulary | None = None
    length_policy: LengthPolicy | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.kind in ("svm", "mlp"):
            if self.tfidf is None or self.stopwords is None:
                raise ValueError(f"{self.kind} predictor needs tfidf model and stopwords")
        else:
            if self.vocab is None or self.length_policy is None:
                raise ValueError("bilstm predictor needs vocabulary and length policy")


def note_tokens(text: str, stopwords: frozenset | None = None) -> list[str]:
    """Tokens of one raw note; with stopwords, the TF-IDF filter is applied too."""
    tokens = tokenize(normalize_text(text))
    return tokens if stopwords is None else filter_for_tfidf(tokens, stopwords)


def tfidf_matrix(token_lists, model: TfidfModel) -> np.ndarray:
    """Dense (documents x columns) TF-IDF matrix, each row scaled by its maximum."""
    X = np.zeros((len(token_lists), len(model.columns)))
    for r, tokens in enumerate(token_lists):
        row = normalize_row(transform(tokens, model))
        if row:
            cols, weights = zip(*row)
            X[r, list(cols)] = weights
    return X


def index_matrix(token_lists, vocab: Vocabulary, policy: LengthPolicy) -> np.ndarray:
    """(documents x max_len) vocabulary indices, padded or truncated per the policy."""
    return np.array(
        [pad_truncate(encode(tokens, vocab), policy).indices for tokens in token_lists],
        dtype=np.intp,
    ).reshape(len(token_lists), policy.max_len)


def predict_batch(handle: PredictorHandle, token_lists) -> np.ndarray:
    """0/1 labels for notes already split by ``note_tokens(text, handle.stopwords)``."""
    if handle.kind == "bilstm":
        X = index_matrix(token_lists, handle.vocab, handle.length_policy)
        probs = np.empty(len(X))
        for start in range(0, len(X), BILSTM_SCORE_BATCH):
            probs[start : start + BILSTM_SCORE_BATCH] = bilstm_forward(
                X[start : start + BILSTM_SCORE_BATCH], handle.model
            )
        return (probs >= 0.5).astype(int)
    X = tfidf_matrix(token_lists, handle.tfidf)
    if handle.kind == "svm":
        # row by row, so each note in a batch scores exactly as a one-note call does
        scores = np.array([svm.svm_decision(handle.model, row) for row in X])
        return (scores >= 0.0).astype(int)
    return (mlp.mlp_forward(handle.model.params, X) >= 0.5).astype(int)


def predict(handle: PredictorHandle, text: str, morbidity: str) -> int:
    """Classify one raw note for the morbidity this handle was trained on."""
    if morbidity != handle.morbidity:
        raise ValueError(
            f"predictor was trained for {handle.morbidity!r}, asked about {morbidity!r}"
        )
    return int(predict_batch(handle, [note_tokens(text, handle.stopwords)])[0])
