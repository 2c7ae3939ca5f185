"""End-to-end single-document prediction through PredictorHandle."""

import numpy as np
import pytest

from morbench.embeddings import random_table
from morbench.models import predictor
from morbench.models.lstm import BiLstmConfig, bilstm_forward, bilstm_train
from morbench.models.mlp import MlpModel, mlp_train
from morbench.models.predictor import (
    BILSTM_SCORE_BATCH,
    KINDS,
    PredictorHandle,
    index_matrix,
    predict,
    predict_batch,
    tfidf_matrix,
)
from morbench.models.rmsprop import RmspropConfig
from morbench.models.svm import SvmModel, svm_train
from morbench.preprocess import (
    build_vocabulary,
    compute_max_len,
    filter_for_tfidf,
    load_stopwords,
    normalize_text,
    tokenize,
)
from morbench.tfidf import fit


def _tfidf_handle(kind):
    texts = [
        "patient reports severe gout flare in the left toe",
        "gout attack treated with colchicine today",
        "routine follow up, blood pressure stable",
        "knee pain resolved, no medication changes",
    ]
    labels = [1, 1, 0, 0]
    stopwords = load_stopwords()
    docs = [filter_for_tfidf(tokenize(normalize_text(t)), stopwords) for t in texts]
    model = fit(docs)
    X = tfidf_matrix(docs, model)
    if kind == "svm":
        trained = svm_train(X, labels, lam=1e-2, epochs=40, seed=0)
    else:
        rmsprop = RmspropConfig(learning_rate=0.01)
        trained = mlp_train(X, labels, hidden_size=8, epochs=200, rmsprop=rmsprop, seed=0)
    return PredictorHandle(
        kind=kind, morbidity="Gout", model=trained, tfidf=model, stopwords=frozenset(stopwords)
    )


def _svm_handle():
    return _tfidf_handle("svm")


def test_kinds_constant():
    assert KINDS == ("svm", "mlp", "bilstm")


def test_svm_handle_classifies_seen_texts():
    handle = _svm_handle()
    assert predict(handle, "severe gout flare again", "Gout") == 1
    assert predict(handle, "routine follow up, stable", "Gout") == 0


def test_mlp_handle_classifies_seen_texts():
    handle = _tfidf_handle("mlp")
    assert predict(handle, "severe gout flare again", "Gout") == 1
    assert predict(handle, "routine follow up, stable", "Gout") == 0


def _boundary_handle(kind, model):
    # two one-word notes: tfidf_matrix gives "a" the row [1, 0] and "b" [0, 1]
    tf = fit([["a"], ["b"]])
    return PredictorHandle(
        kind=kind, morbidity="Gout", model=model, tfidf=tf, stopwords=frozenset()
    )


def test_svm_margin_tie_maps_to_one():
    # w.x + b is exactly 0 for "a" and -1 for "b"
    model = SvmModel(weights=np.array([1.0, 0.0]), bias=-1.0, lam=1e-4)
    assert predict_batch(_boundary_handle("svm", model), [["a"], ["b"]]).tolist() == [1, 0]


def test_mlp_probability_of_one_half_maps_to_one():
    # a zero network gives every note a probability of exactly 0.5
    params = {"W1": np.zeros((2, 3)), "b1": np.zeros(3), "W2": np.zeros((3, 1)), "b2": np.zeros(1)}
    model = MlpModel(params=params, hidden_size=3)
    assert predict_batch(_boundary_handle("mlp", model), [["a"], ["b"]]).tolist() == [1, 1]
    params["b2"][0] = -1e-9
    assert predict_batch(_boundary_handle("mlp", model), [["a"], ["b"]]).tolist() == [0, 0]


def test_morbidity_mismatch_rejected():
    handle = _svm_handle()
    with pytest.raises(ValueError, match="Asthma"):
        predict(handle, "anything", "Asthma")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        PredictorHandle(kind="forest", morbidity="Gout", model=None)


def test_tfidf_kinds_require_tfidf_pieces():
    with pytest.raises(ValueError, match="tfidf"):
        PredictorHandle(kind="svm", morbidity="Gout", model=None, tfidf=None, stopwords=None)


def test_bilstm_kind_requires_sequence_pieces():
    with pytest.raises(ValueError, match="vocabulary"):
        PredictorHandle(kind="bilstm", morbidity="Gout", model=None)


def _bilstm_handle():
    texts = [
        "markergout present with swelling and pain",
        "markergout confirmed on exam today",
        "markergout and joint tenderness noted",
        "no acute findings on physical exam",
        "patient doing well after discharge",
        "stable vitals and clear lungs noted",
    ]
    labels = [1, 1, 1, 0, 0, 0]
    token_lists = [tokenize(normalize_text(t)) for t in texts]
    vocab = build_vocabulary(token_lists)
    policy = compute_max_len([len(t) for t in token_lists])
    table = random_table(len(vocab), 12, seed=3)
    model = bilstm_train(
        index_matrix(token_lists, vocab, policy),
        labels,
        table,
        BiLstmConfig(hidden1=8, hidden2=8, epochs=60, batch_size=3, train_embeddings=True),
        seed=0,
    )
    return PredictorHandle(
        kind="bilstm", morbidity="Gout", model=model, vocab=vocab, length_policy=policy
    )


def test_bilstm_handle_flags_marker_documents():
    handle = _bilstm_handle()
    assert predict(handle, "markergout noted with pain", "Gout") == 1
    assert predict(handle, "stable and doing well today", "Gout") == 0


def test_bilstm_batch_is_scored_in_bounded_slices(monkeypatch):
    handle = _bilstm_handle()
    texts = ["markergout noted with pain", "stable and doing well today", "exam today"]
    token_lists = [tokenize(normalize_text(t)) for t in texts] * 24  # 72 notes
    sizes = []

    def recording_forward(X, model):
        sizes.append(len(X))
        return bilstm_forward(X, model)

    monkeypatch.setattr(predictor, "bilstm_forward", recording_forward)
    labels = predict_batch(handle, token_lists)
    assert BILSTM_SCORE_BATCH == 32 and sizes == [32, 32, 8]
    X = index_matrix(token_lists, handle.vocab, handle.length_policy)
    assert labels.tolist() == (bilstm_forward(X, handle.model) >= 0.5).astype(int).tolist()


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batch_gives_empty_labels(kind):
    handle = _bilstm_handle() if kind == "bilstm" else _tfidf_handle(kind)
    labels = predict_batch(handle, [])
    assert labels.shape == (0,)
    assert labels.dtype == predict_batch(handle, [["gout"]]).dtype
    assert np.issubdtype(labels.dtype, np.integer)


def test_index_matrix_of_no_notes_keeps_the_fitted_width():
    handle = _bilstm_handle()
    X = index_matrix([], handle.vocab, handle.length_policy)
    assert X.shape == (0, handle.length_policy.max_len)
