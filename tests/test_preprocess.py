"""Text normalization, tokenization, vocabulary, and length policy."""

import math

import pytest

from morbench.preprocess import (
    EncodedDoc,
    Vocabulary,
    build_vocabulary,
    compute_max_len,
    encode,
    filter_for_tfidf,
    load_stopwords,
    normalize_text,
    pad_truncate,
    tokenize,
)


def test_normalize_lowercases_only():
    assert normalize_text("Obesity and obesity") == "obesity and obesity"
    assert normalize_text("CAD/CHF x2") == "cad/chf x2"


def test_tokenize_alphanumeric_runs():
    assert tokenize("the patient, has: diabetes.") == ["the", "patient", "has", "diabetes"]
    assert tokenize("x-ray results 12.5 mg") == ["x", "ray", "results", "12", "5", "mg"]
    # underscores are separators, not word characters here
    assert tokenize("foo_bar") == ["foo", "bar"]
    assert tokenize("") == []
    assert tokenize("...") == []


def test_vocabulary_order_frequency_then_lexicographic():
    docs = [["b", "a", "b"], ["c", "a", "b"]]
    vocab = build_vocabulary(docs)
    # b occurs 3x -> index 1; a and c tie at 2x/1x -> a(2) then c(1)... counts: b=3, a=2, c=1
    assert vocab["b"] == 1 and vocab["a"] == 2 and vocab["c"] == 3
    assert len(vocab) == 3
    assert vocab.words == ["b", "a", "c"]
    # ties break lexicographically
    tie = build_vocabulary([["z", "m"], ["m", "z"]])
    assert tie["m"] == 1 and tie["z"] == 2


def test_index_zero_reserved_for_padding():
    vocab = build_vocabulary([["word"]])
    assert 0 not in vocab.index.values()
    assert vocab["word"] == 1


def test_encode_worked_example():
    # f maps the->5, patient->34, has->10, diabetes->87;
    # "the patient has the diabetes" encodes to [5, 34, 10, 5, 87]
    f = Vocabulary(index={"the": 5, "patient": 34, "has": 10, "diabetes": 87})
    tokens = tokenize(normalize_text("the patient has the diabetes"))
    assert encode(tokens, f) == [5, 34, 10, 5, 87]


def test_encode_drops_out_of_vocabulary():
    vocab = build_vocabulary([["known"]])
    assert encode(["known", "unknown", "known"], vocab) == [1, 1]


def test_max_len_worked_example():
    # lengths 25, 39, 44, 80: avg = 47.00, population std = sqrt(1646/4) = 20.29,
    # max_len = floor(47.00 + 20.29) = 67
    policy = compute_max_len([25, 39, 44, 80])
    assert policy.avg == pytest.approx(47.00)
    assert round(policy.std, 2) == 20.29
    assert policy.max_len == 67
    # the sample (n-1) std would be 23.42 and floor to 70, so the population
    # form is load-bearing here
    sample_std = math.sqrt(1646 / 3)
    assert math.floor(47.0 + sample_std) == 70


def test_max_len_single_and_empty():
    policy = compute_max_len([10])
    assert policy.max_len == 10 and policy.std == 0.0
    with pytest.raises(ValueError):
        compute_max_len([])


def test_pad_truncate():
    policy = compute_max_len([4, 4])  # max_len 4
    assert policy.max_len == 4
    short = pad_truncate([7, 8], policy)
    assert short == EncodedDoc(indices=(7, 8, 0, 0))
    long = pad_truncate([1, 2, 3, 4, 5, 6], policy)
    assert long.indices == (1, 2, 3, 4)  # head kept, tail dropped
    exact = pad_truncate([9, 9, 9, 9], policy)
    assert exact.indices == (9, 9, 9, 9)


def test_stopword_list_loads():
    stop = load_stopwords()
    assert "the" in stop and "of" in stop and "not" in stop
    assert "patient" not in stop
    assert len(stop) == 179


def test_filter_for_tfidf():
    stop = load_stopwords()
    tokens = tokenize(normalize_text("The patient has 250 mg of aspirin x2"))
    kept = filter_for_tfidf(tokens, stop)
    # stopwords (the, has, of) and the pure number 250 are dropped; x2 mixes
    # letters and digits so it stays
    assert kept == ["patient", "mg", "aspirin", "x2"]


def test_filter_keeps_alphanumeric_mixes():
    stop = load_stopwords()
    assert filter_for_tfidf(["12ab", "99", "b12"], stop) == ["12ab", "b12"]
