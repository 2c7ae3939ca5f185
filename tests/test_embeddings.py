"""Skip-gram trainer, the vector-file loader, and embedding tables."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morbench.embeddings import (
    SkipgramConfig,
    load_pretrained,
    negative_sampling_cumulative,
    pair_loss_and_gradients,
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
        _, (g_v, g_uo, g_uneg) = pair_loss_and_gradients(v_c, u_o, u_neg)
        for target, grad in ((v_c, g_v), (u_o, g_uo), (u_neg, g_uneg)):
            fd = np.zeros_like(target)
            it = np.nditer(target, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                old = target[i]
                target[i] = old + h
                up = pair_loss_and_gradients(v_c, u_o, u_neg)[0]
                target[i] = old - h
                down = pair_loss_and_gradients(v_c, u_o, u_neg)[0]
                target[i] = old
                fd[i] = (up - down) / (2 * h)
                it.iternext()
            rel = np.linalg.norm(grad - fd) / max(
                np.linalg.norm(grad) + np.linalg.norm(fd), 1e-12
            )
            assert rel < 1e-5


def _reference_skipgram(token_lists, vocab, config):
    """The per-pair trainer: k uniform draws and a fresh dot product per negative."""

    def log_sigmoid(x):
        return -math.log1p(math.exp(-x)) if x >= 0 else x - math.log1p(math.exp(x))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    rng = np.random.default_rng(config.seed)
    V, dim = len(vocab), config.dim
    centers = np.zeros((V + 1, dim))
    centers[1:] = (rng.random((V, dim)) - 0.5) / dim
    contexts = np.zeros((V + 1, dim))
    docs = [encode(tokens, vocab) for tokens in token_lists]
    counts = np.bincount([i for doc in docs for i in doc], minlength=V + 1).astype(float)
    pairs = [
        (doc[i], doc[j])
        for doc in docs
        for i in range(len(doc))
        for j in range(max(0, i - config.window), min(len(doc), i + config.window + 1))
        if j != i
    ]
    total = len(pairs) * config.epochs
    cumulative = negative_sampling_cumulative(counts[1:])
    losses, t = [], 0
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for center, context in pairs:
            negs = np.searchsorted(cumulative, rng.random(config.negatives)) + 1
            lr = config.learning_rate * (1.0 - 0.9 * t / (total - 1))
            v_c, u_o, u_neg = centers[center], contexts[context], contexts[negs]
            epoch_loss -= log_sigmoid(float(u_o @ v_c))
            for k in range(config.negatives):
                epoch_loss -= log_sigmoid(-float(u_neg[k] @ v_c))
            pos_err = sigmoid(float(u_o @ v_c)) - 1.0
            neg_err = sigmoid(u_neg @ v_c)
            g_v = pos_err * u_o + neg_err @ u_neg
            g_uo = pos_err * v_c
            g_uneg = neg_err[:, None] * v_c[None, :]
            centers[center] = v_c - lr * g_v
            contexts[context] = u_o - lr * g_uo
            np.subtract.at(contexts, negs, lr * g_uneg)
            t += 1
        losses.append(epoch_loss / len(pairs))
    centers[0] = 0.0
    return centers, losses


@pytest.mark.parametrize(
    "config",
    [
        SkipgramConfig(dim=9, window=2, epochs=2, negatives=5, seed=3),
        SkipgramConfig(dim=6, window=6, epochs=1, negatives=12, seed=4),
        SkipgramConfig(dim=4, window=1, epochs=3, negatives=1, seed=5),
    ],
)
def test_train_matches_per_pair_reference(config):
    # a tiny vocabulary makes repeated negatives (and context == negative) common;
    # the empty and one-word documents hold no pairs and draw nothing
    docs = TOY_DOCS + [[], ["cat"], ["pet", "rock", "sand", "cat", "dog", "sand", "rock"]]
    vocab = build_vocabulary(docs)
    table, losses = train_skipgram(docs, vocab, config)
    want_rows, want_losses = _reference_skipgram(docs, vocab, config)
    assert np.array_equal(table.rows, want_rows)
    assert len(losses) == len(want_losses)
    for got, want in zip(losses, want_losses):
        assert abs(got - want) <= 1e-12 * abs(want)


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
    assert table.rows.shape == (len(vocab) + 1, 6)
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


def test_load_spacing_and_line_ending_edges(tmp_path):
    # words split on single spaces only: runs of spaces collapse and tabs
    # belong to the word; "\r", "\n" and "\r\n" all end a line
    lines = [
        "two 5.0",  # line 1 with two fields that is not a header: a vector at dim 1
        "a  1.0",  # double space
        " b 2.0",  # leading space
        "c 3.0 ",  # trailing space
        "d 4.0\r",  # CRLF line ending
        "t\tab 6.0",  # a tab inside the word
        "zz 7.0",  # out of vocabulary
        "",  # blank line
        "a\tb 8.0",  # out of vocabulary, with a tab
    ]
    path = tmp_path / "vec.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    vocab = build_vocabulary([["two", "a", "b", "c", "d", "t\tab", "missing"]])
    table, oov = load_pretrained(path, vocab, dim=1)
    got = {w: table.rows[vocab[w]][0] for w in vocab.words}
    assert got == {
        "two": 5.0, "a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0, "t\tab": 6.0, "missing": 0.0
    }
    assert oov == 1
    path.write_bytes(b"a 1.0\rb 2.0")  # a lone "\r" between entries
    table, oov = load_pretrained(path, vocab, dim=1)
    assert (table.rows[vocab["a"]][0], table.rows[vocab["b"]][0], oov) == (1.0, 2.0, 5)


def test_load_header_is_skipped_only_on_line_one(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("3 1\nw 2.0\n", encoding="utf-8")
    table, oov = load_pretrained(path, build_vocabulary([["w", "3"]]), dim=1)
    assert oov == 1  # "3 1" is the header, not the vector of "3"
    path.write_text("w 2.0\n3 1\n", encoding="utf-8")
    vocab = build_vocabulary([["w", "3"]])
    table, oov = load_pretrained(path, vocab, dim=1)
    assert oov == 0 and table.rows[vocab["3"]][0] == 1.0


def test_load_wrong_count_out_of_vocabulary_line_names_line(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("ok 1.0 2.0\nunseen 1.0 2.0\nunknown 1.0 2.0 3.0\n", encoding="utf-8")
    vocab = build_vocabulary([["ok"]])
    with pytest.raises(VectorFileError, match="line 3: expected 2 values, found 3"):
        load_pretrained(path, vocab, dim=2)


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes(b"\xef\xbb\xbf2 3\nfoo 1 2 3\nbar 4 5 6\n")
    vocab = build_vocabulary([["foo", "bar", "baz"]])
    table, oov = load_pretrained(path, vocab, dim=3)
    assert table.rows[vocab["foo"]].tolist() == [1.0, 2.0, 3.0]
    assert table.rows[vocab["bar"]].tolist() == [4.0, 5.0, 6.0]
    assert oov == 1
    path.write_bytes(b"\xef\xbb\xbffoo 1 2 3\n")  # no header: the mark is not part of the word
    table, oov = load_pretrained(path, vocab, dim=3)
    assert table.rows[vocab["foo"]].tolist() == [1.0, 2.0, 3.0]


def test_load_missing_file_names_path(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(VectorFileError, match="absent.txt"):
        load_pretrained(path, build_vocabulary([["word"]]), dim=2)


def test_load_non_utf8_file_names_path(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("caf\xe9 1.0 2.0\n".encode("latin-1"))
    with pytest.raises(VectorFileError, match="latin1.txt.*UTF-8"):
        load_pretrained(path, build_vocabulary([["word"]]), dim=2)



def _reference_load(path, vocab, dim):
    """Reference loader: every line is split on single spaces and checked, and
    only then dropped if its word is not in the vocabulary."""
    rows = np.zeros((len(vocab) + 1, dim))
    found = set()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = [p for p in line.rstrip("\n").split(" ") if p]
                if not parts:
                    continue
                if lineno == 1 and len(parts) == 2:
                    try:
                        int(parts[0]), int(parts[1])
                        continue
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
    return rows, len(vocab) - len(found)


_KNOWN = ["cat", "dog", "3", "t\tab"]
_WORDS = _KNOWN + ["zz", "7", "1", "q\tr", "é"]
_VALUES = ["1.5", "-2", "0", "3", "1e3", "7.25\t", "nan", "inf", "oops", "1,0"]


@st.composite
def _vector_line(draw, dim):
    """One line: a word and about dim values, irregularly spaced at times."""
    fields = [draw(st.sampled_from(_WORDS))]
    count = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
    fields += draw(st.lists(st.sampled_from(_VALUES), min_size=count, max_size=count))
    n_gaps = len(fields) - 1
    gaps = draw(st.lists(st.sampled_from([" ", " ", " ", "  "]), min_size=n_gaps, max_size=n_gaps))
    line = fields[0] + "".join(g + f for g, f in zip(gaps, fields[1:]))
    lead = draw(st.sampled_from(["", "", "", " "]))
    trail = draw(st.sampled_from(["", "", " ", "  "]))
    return lead + line + trail


@st.composite
def _vector_file(draw):
    """A small vector file mixing regular, irregular, header-like and bad lines."""
    dim = draw(st.integers(1, 3))
    line = st.one_of(_vector_line(dim), st.sampled_from(["", " ", f"2 {dim}", "3 1", "7 2 1"]))
    lines = draw(st.lists(line, min_size=1, max_size=8))
    if draw(st.booleans()):  # a header-like first line
        lines.insert(0, draw(st.sampled_from([f"5 {dim}", "3 1", "3 x", " 4 2", "4 2 "])))
    if draw(st.booleans()):  # finite values only, so parsing runs past known words
        bad = {"nan", "inf", "oops", "1,0"}
        lines = [" ".join(w for w in ln.split(" ") if w not in bad) for ln in lines]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    if draw(st.booleans()):  # a leading UTF-8 byte-order mark
        text = "\ufeff" + text
    return dim, text


@settings(max_examples=400)
@given(_vector_file(), st.lists(st.sampled_from(_KNOWN), min_size=1, max_size=4))
def test_load_matches_split_every_line_reference(case, vocab_words):
    dim, text = case
    vocab = build_vocabulary([vocab_words + ["missing"]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vec.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = _reference_load(path, vocab, dim)
        except VectorFileError as exc:
            with pytest.raises(VectorFileError) as got:
                load_pretrained(path, vocab, dim)
            assert str(got.value) == str(exc)
            return
        table, oov = load_pretrained(path, vocab, dim)
    assert table.rows.tobytes() == want[0].tobytes()
    assert oov == want[1]
