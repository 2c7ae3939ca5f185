"""Skip-gram trainer, the vector-file loader, and embedding tables."""

import numpy as np
import pytest

from morbench.embeddings import (
    SkipgramConfig,
    load_pretrained,
    negative_sampling_cumulative,
    pair_gradients,
    pair_loss,
    random_table,
    save_vectors,
    train_skipgram,
)
from morbench.errors import VectorFileError
from morbench.preprocess import build_vocabulary, encode

TOY_DOCS = [["cat", "dog", "cat", "pet"], ["dog", "cat", "pet"], ["rock", "sand"]] * 4


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_pair_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        k = int(rng.integers(1, 6))
        v_c = rng.normal(scale=0.7, size=dim)
        u_o = rng.normal(scale=0.7, size=dim)
        u_neg = rng.normal(scale=0.7, size=(k, dim))
        g_v, g_uo, g_uneg = pair_gradients(v_c, u_o, u_neg)
        for target, grad in ((v_c, g_v), (u_o, g_uo), (u_neg, g_uneg)):
            fd = np.zeros_like(target)
            it = np.nditer(target, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                old = target[i]
                target[i] = old + h
                up = pair_loss(v_c, u_o, u_neg)
                target[i] = old - h
                down = pair_loss(v_c, u_o, u_neg)
                target[i] = old
                fd[i] = (up - down) / (2 * h)
                it.iternext()
            rel = np.linalg.norm(grad - fd) / max(
                np.linalg.norm(grad) + np.linalg.norm(fd), 1e-12
            )
            assert rel < 1e-5


def test_train_deterministic():
    vocab = build_vocabulary(TOY_DOCS)
    config = SkipgramConfig(dim=8, window=2, epochs=2, seed=5)
    t1, l1 = train_skipgram(TOY_DOCS, vocab, config)
    t2, l2 = train_skipgram(TOY_DOCS, vocab, config)
    assert np.array_equal(t1.rows, t2.rows)
    assert l1 == l2
    t3, _ = train_skipgram(TOY_DOCS, vocab, SkipgramConfig(dim=8, window=2, epochs=2, seed=6))
    assert not np.array_equal(t1.rows, t3.rows)


def test_padding_row_stays_zero():
    vocab = build_vocabulary(TOY_DOCS)
    table, _ = train_skipgram(TOY_DOCS, vocab, SkipgramConfig(dim=6, window=2, epochs=3, seed=0))
    assert np.all(table.rows[0] == 0.0)
    assert table.vocab_size == len(vocab)
    assert table.dim == 6


def test_loss_decreases_on_toy_corpus():
    vocab = build_vocabulary(TOY_DOCS)
    _, losses = train_skipgram(TOY_DOCS, vocab, SkipgramConfig(dim=10, window=2, epochs=8, seed=1))
    assert len(losses) == 8
    assert losses[-1] < losses[0]


def test_cooccurring_words_end_up_closer():
    # cat/dog share contexts; rock never appears near cat
    vocab = build_vocabulary(TOY_DOCS)
    for seed in (0, 1, 2):
        table, _ = train_skipgram(
            TOY_DOCS, vocab, SkipgramConfig(dim=12, window=2, epochs=80, seed=seed)
        )
        cat = table.rows[vocab["cat"]]
        dog = table.rows[vocab["dog"]]
        rock = table.rows[vocab["rock"]]
        assert _cosine(cat, dog) > _cosine(cat, rock) + 0.1, seed


def test_no_pairs_returns_initial_table():
    docs = [["lonely"]]  # no context within any window
    vocab = build_vocabulary(docs)
    table, losses = train_skipgram(docs, vocab, SkipgramConfig(dim=4, window=2, epochs=3, seed=2))
    assert losses == []
    assert table.rows.shape == (2, 4)
    assert np.all(table.rows[0] == 0.0)
    assert np.all(np.abs(table.rows[1]) <= 0.5 / 4)


def test_negative_sampling_distribution():
    # empirical frequencies over 1e6 draws match unigram^0.75 within 1% absolute
    counts = np.array([100.0, 10.0, 1.0, 40.0])
    cumulative = negative_sampling_cumulative(counts)
    want = counts**0.75 / (counts**0.75).sum()
    rng = np.random.default_rng(99)
    draws = np.searchsorted(cumulative, rng.random(1_000_000))
    got = np.bincount(draws, minlength=4) / 1_000_000
    assert np.all(np.abs(got - want) < 0.01)


def test_learning_rate_floor_is_tenth_of_initial():
    # single pair trained many epochs: updates never stop entirely
    docs = [["a", "b"]] * 2
    vocab = build_vocabulary(docs)
    config = SkipgramConfig(dim=4, window=1, epochs=50, learning_rate=0.5, seed=3)
    table, losses = train_skipgram(docs, vocab, config)
    assert np.all(np.isfinite(table.rows))
    assert losses[-1] < losses[0]


def test_random_table_shape_and_padding():
    table = random_table(5, 7, seed=11)
    assert table.rows.shape == (6, 7)
    assert np.all(table.rows[0] == 0.0)
    assert np.all(np.abs(table.rows[1:]) <= 0.05)
    again = random_table(5, 7, seed=11)
    assert np.array_equal(table.rows, again.rows)


# ---------------------------------------------------------------------------
# vector files


def test_save_load_round_trip(tmp_path):
    docs = [["alpha", "beta", "gamma", "alpha"]]
    vocab = build_vocabulary(docs)
    table, _ = train_skipgram(docs, vocab, SkipgramConfig(dim=5, window=2, epochs=2, seed=4))
    path = tmp_path / "vec.txt"
    save_vectors(table, vocab, path)
    header = path.read_text().splitlines()[0]
    assert header == f"{len(vocab)} 5"
    loaded, oov = load_pretrained(path, vocab, dim=5)
    assert oov == 0
    assert np.array_equal(loaded.rows, table.rows)  # repr floats reload exactly


def test_load_without_header(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("foo 1.0 2.0\nbar 3.0 4.0\n", encoding="utf-8")
    vocab = build_vocabulary([["foo", "bar", "baz"]])
    table, oov = load_pretrained(path, vocab, dim=2)
    assert oov == 1  # baz has no vector
    assert np.array_equal(table.rows[vocab["foo"]], [1.0, 2.0])
    assert np.array_equal(table.rows[vocab["baz"]], [0.0, 0.0])
    assert np.all(table.rows[0] == 0.0)


def test_load_dimension_mismatch_names_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("ok 1.0 2.0\nshort 1.0\n", encoding="utf-8")
    vocab = build_vocabulary([["ok", "short"]])
    with pytest.raises(VectorFileError, match="line 2"):
        load_pretrained(path, vocab, dim=2)


def test_load_rejects_bad_floats(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("word 1.0 oops\n", encoding="utf-8")
    vocab = build_vocabulary([["word"]])
    with pytest.raises(VectorFileError, match="line 1"):
        load_pretrained(path, vocab, dim=2)


def test_load_rejects_non_finite(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("word 1.0 inf\n", encoding="utf-8")
    vocab = build_vocabulary([["word"]])
    with pytest.raises(VectorFileError):
        load_pretrained(path, vocab, dim=2)
