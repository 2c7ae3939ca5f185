"""TF-IDF weighting against an independent brute-force oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from morbench.models.predictor import tfidf_matrix
from morbench.tfidf import fit, normalize_row, transform


def oracle_tfidf(docs: list[list[str]]) -> list[dict[str, float]]:
    """Straight-from-the-formula reference: (count/len) * ln(N/docfreq)."""
    N = len(docs)
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for word in set(doc):
            doc_freq[word] = doc_freq.get(word, 0) + 1
    out = []
    for doc in docs:
        weights = {}
        for word in set(doc):
            tf = doc.count(word) / len(doc)
            weights[word] = tf * math.log(N / doc_freq[word])
        out.append(weights)
    return out


def as_word_weights(row, model) -> dict[str, float]:
    words = sorted(model.columns, key=model.columns.get)
    return {words[col]: w for col, w in row}


def test_hand_computed_fixture():
    docs = [
        ["apple", "banana", "apple", "cherry"],
        ["banana", "durian"],
        ["apple"],
    ]
    model = fit(docs)
    assert model.columns == {"apple": 0, "banana": 1, "cherry": 2, "durian": 3}
    assert model.idfs == (math.log(3 / 2), math.log(3 / 2), math.log(3 / 1), math.log(3 / 1))
    r0 = as_word_weights(transform(docs[0], model), model)
    # apple: (2/4) * ln(3/2) = 0.2027326; cherry: (1/4) * ln(3) = 0.2746531
    assert r0["apple"] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
    assert r0["banana"] == pytest.approx(0.25 * math.log(1.5), abs=1e-12)
    assert r0["cherry"] == pytest.approx(0.25 * math.log(3.0), abs=1e-12)
    r1 = as_word_weights(transform(docs[1], model), model)
    assert r1["durian"] == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    r2 = as_word_weights(transform(docs[2], model), model)
    # present in every... apple appears in 2 of 3 docs: (1/1) * ln(3/2)
    assert r2["apple"] == pytest.approx(math.log(1.5), abs=1e-12)


def test_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(12345)
    words = [f"w{i}" for i in range(25)]
    for trial in range(100):
        n_docs = int(rng.integers(1, 21))
        docs = []
        for _ in range(n_docs):
            length = int(rng.integers(1, 31))
            docs.append([words[int(i)] for i in rng.integers(0, len(words), size=length)])
        model = fit(docs)
        expected = oracle_tfidf(docs)
        for doc, want in zip(docs, expected):
            got = as_word_weights(transform(doc, model), model)
            assert set(got) == set(want)
            for word, weight in want.items():
                assert abs(got[word] - weight) <= 1e-12, (trial, word)


def test_word_in_every_document_gets_zero_weight_but_keeps_entry():
    docs = [["common", "x"], ["common", "y"]]
    model = fit(docs)
    row = transform(docs[0], model)
    weights = as_word_weights(row, model)
    # ln(2/2) = 0: present words stay as explicit (column, 0.0) entries
    assert weights["common"] == 0.0
    assert len(row) == 2


def test_no_smoothing_single_doc_corpus():
    model = fit([["only", "doc"]])
    row = transform(["only", "doc"], model)
    assert all(w == 0.0 for _, w in row)  # ln(1/1) = 0 exactly


def test_full_vocabulary_is_feature_space():
    docs = [["a", "b"], ["c"], ["a", "d", "e"]]
    model = fit(docs)
    assert tfidf_matrix(docs, model).shape == (3, 5)  # every distinct token is a column
    assert model.columns == {w: i for i, w in enumerate("abcde")}  # lexicographic columns


def test_row_normalization():
    docs = [["a", "a", "b"], ["b", "c"]]
    dense = tfidf_matrix(docs, fit(docs))
    for r in range(dense.shape[0]):
        if dense[r].max() > 0:
            assert dense[r].max() == pytest.approx(1.0, abs=1e-15)
    assert dense.min() >= 0.0 and dense.max() <= 1.0
    assert normalize_row(((0, 0.5), (1, 0.25))) == ((0, 1.0), (1, 0.5))


def test_normalize_leaves_all_zero_rows_alone():
    assert normalize_row(()) == ()
    row = ((0, 0.0), (2, 0.0))
    assert normalize_row(row) == row


def test_empty_document_transforms_to_empty_row():
    model = fit([["a"], []])  # empty docs still count toward N
    assert transform([], model) == ()
    assert model.columns == {"a": 0}
    assert model.idfs == (math.log(2 / 1),)
    # a appears in 1 of 2 docs: idf = ln 2
    assert as_word_weights(transform(["a"], model), model)["a"] == pytest.approx(math.log(2))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        fit([])


def test_out_of_vocabulary_ignored_at_transform():
    model = fit([["a", "b"]])
    assert transform(["zzz"], model) == ()


def test_deterministic_and_column_order():
    docs = [["b", "a"], ["a"]]
    m1, m2 = fit(docs), fit(docs)
    assert m1 == m2
    assert m1.columns == {"a": 0, "b": 1}
    np.testing.assert_array_equal(tfidf_matrix(docs, m1), tfidf_matrix(docs, m2))


# ---------------------------------------------------------------------------
# the featurizer against a per-occurrence reference


def reference_transform(tokens, model, corpus):
    """The per-occurrence weighting: filter every token, then weight each word
    by ln(N / n_w), counted from the corpus the model was fitted on."""
    size = len(tokens)
    if size == 0:
        return ()
    counts = Counter(t for t in tokens if t in model.columns)
    row = [
        (model.columns[w], (c / size) * math.log(len(corpus) / sum(w in doc for doc in corpus)))
        for w, c in counts.items()
    ]
    return tuple(sorted(row))


def reference_matrix(token_lists, model, corpus):
    """Dense rows written one element at a time, each divided by its maximum."""
    X = np.zeros((len(token_lists), len(model.columns)))
    for r, tokens in enumerate(token_lists):
        row = reference_transform(tokens, model, corpus)
        peak = max((w for _, w in row), default=0.0)
        for col, weight in row:
            X[r, col] = weight / peak if peak > 0.0 else weight
    return X


_WORDS = st.sampled_from(["a", "b", "c", "d", "e"])
_OOV = st.sampled_from(["x", "y"])  # never in a fitted corpus
_NOTES = st.lists(_WORDS, max_size=12)


@given(
    corpus=st.lists(_NOTES, min_size=1, max_size=6),
    queries=st.lists(st.lists(st.one_of(_WORDS, _OOV), max_size=12), max_size=6),
)
@example(corpus=[["a", "a", "b"]], queries=[[], ["x", "y", "x"], ["a", "x", "a", "a"]])
@example(corpus=[[], ["c"], ["c", "c"]], queries=[["c"] * 5])
@example(corpus=[[]], queries=[["a"]])
def test_transform_and_matrix_equal_the_reference_exactly(corpus, queries):
    model = fit(corpus)
    for doc in corpus + queries:
        assert transform(doc, model) == reference_transform(doc, model, corpus)
    for docs in (corpus, queries):
        got, want = tfidf_matrix(docs, model), reference_matrix(docs, model, corpus)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
