"""Acceptance suite: one test per release criterion, each with its stated
tolerance and runtime budget. Run with -v for a pass/fail line per criterion.

1. worked-example fidelity (length policy + encoding), exact
2. TF-IDF equals a brute-force oracle on 100 random corpora, <= 1e-12
3. analytic gradients match central finite differences, rel < 1e-5
4. learning capability: SVM separable / MLP XOR / BiLSTM keyword task
5. cross-validation invariants and F1 oracle equivalence
6. qualitative ranking on marker corpora: TF-IDF baselines beat the
   randomly-initialized BiLSTM
7. byte-identical reruns, including parallel execution
8. rmsprop single-step hand value
"""

import json
import math
import time

import numpy as np
import pytest

from morbench.cli import main
from morbench.corpus import (
    MORBIDITIES,
    MorbiditySpec,
    SyntheticSpec,
    build_binary_dataset,
    generate_synthetic_corpus,
)
from morbench.embeddings import pair_gradients, pair_loss, pair_scores, random_table
from morbench.eval import (
    ExperimentConfig,
    f1_score,
    run_experiment,
    stratified_kfold,
)
from morbench.models.lstm import (
    BiLstmConfig,
    _layer_backward,
    _layer_forward,
    _step_inputs,
    bilstm_forward,
    bilstm_gradients,
    bilstm_loss,
    bilstm_train,
    init_params,
)
from morbench.models.mlp import init_params as mlp_init
from morbench.models.mlp import mlp_forward, mlp_gradients, mlp_loss, mlp_train
from morbench.models.predictor import index_matrix
from morbench.models.rmsprop import RmspropState, rmsprop_step
from morbench.models.svm import svm_decision, svm_train
from morbench.preprocess import (
    Vocabulary,
    build_vocabulary,
    compute_max_len,
    encode,
    normalize_text,
    tokenize,
)
from morbench.tfidf import fit as tfidf_fit
from morbench.tfidf import transform


def _rel_error(a, b):
    num = np.linalg.norm(np.ravel(a) - np.ravel(b))
    den = max(np.linalg.norm(np.ravel(a)) + np.linalg.norm(np.ravel(b)), 1e-12)
    return num / den


def _central_diff(fn, array, h=1e-5):
    """Central finite differences of scalar fn over every entry of array (in place)."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


# ---------------------------------------------------------------------------


def test_criterion_1_worked_examples():
    """Length policy and encoding reproduce the documented hand values exactly."""
    policy = compute_max_len([25, 39, 44, 80])
    assert policy.avg == 47.00
    assert round(policy.std, 2) == 20.29
    assert policy.max_len == 67

    vocab = Vocabulary(index={"the": 5, "patient": 34, "has": 10, "diabetes": 87})
    indices = encode(tokenize(normalize_text("the patient has the diabetes")), vocab)
    assert indices == [5, 34, 10, 5, 87]


def test_criterion_2_tfidf_oracle_equivalence():
    """Raw TF-IDF weights equal a brute-force oracle within 1e-12, 100 corpora."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260819)
    pool = [f"w{i:02d}" for i in range(25)]
    worst = 0.0
    for _ in range(100):
        corpus = [
            [pool[j] for j in rng.integers(0, len(pool), size=rng.integers(1, 31))]
            for _ in range(rng.integers(1, 21))
        ]
        n_docs = len(corpus)
        doc_freq = {w: sum(1 for doc in corpus if w in doc) for w in {t for d in corpus for t in d}}
        model = tfidf_fit(corpus)
        col_word = {c: w for w, c in model.columns.items()}
        for doc in corpus:
            row = dict(transform(doc, model))
            expected = {
                w: (doc.count(w) / len(doc)) * math.log(n_docs / doc_freq[w])
                for w in set(doc)
            }
            got = {col_word[c]: v for c, v in row.items()}
            assert set(got) == set(expected)
            for w, v in expected.items():
                worst = max(worst, abs(got[w] - v))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12, worst
    assert elapsed < 5.0, f"{elapsed:.1f}s"


def test_criterion_3_gradient_suite():
    """SGNS, MLP, stacked LSTM-layer BPTT, and full-model gradients vs finite differences."""
    started = time.perf_counter()
    rng = np.random.default_rng(777)

    # skip-gram pair loss: 20 fixtures over (center, context, negatives)
    for _ in range(20):
        dim = int(rng.integers(3, 9))
        k = int(rng.integers(1, 6))
        v_c = rng.standard_normal(dim) * 0.5
        u_o = rng.standard_normal(dim) * 0.5
        u_neg = rng.standard_normal((k, dim)) * 0.5
        rows = np.vstack([u_o, u_neg])
        g_v, G = pair_gradients(v_c, rows, pair_scores(v_c, rows, np.empty(k + 1)))
        g_uo, g_uneg = G[0], G[1:]

        def loss():
            return pair_loss(pair_scores(v_c, np.vstack([u_o, u_neg]), np.empty(k + 1)))

        assert _rel_error(g_v, _central_diff(loss, v_c)) < 1e-5
        assert _rel_error(g_uo, _central_diff(loss, u_o)) < 1e-5
        assert _rel_error(g_uneg, _central_diff(loss, u_neg)) < 1e-5

    # MLP: 20 fixtures
    for trial in range(20):
        d = int(rng.integers(2, 6))
        hdim = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        params = mlp_init(d, hdim, seed=trial)
        params["b1"] += 0.05  # keep relu inputs off the kink
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        analytic = mlp_gradients(params, X, y)
        for name in params:
            numeric = _central_diff(lambda: mlp_loss(params, X, y), params[name])
            assert _rel_error(analytic[name], numeric) < 1e-5, ("mlp", trial, name)

    # LSTM layer unrolled 3 steps (BPTT through both stacked directions): 20 fixtures
    for _ in range(20):
        B = int(rng.integers(1, 4))
        D = int(rng.integers(2, 5))
        H = int(rng.integers(2, 5))
        X = rng.standard_normal((3, B, D))  # time-major; the backward direction reads it from the end
        W = rng.standard_normal((2, D, 4 * H)) * 0.4
        U = rng.standard_normal((2, H, 4 * H)) * 0.4
        b = rng.standard_normal((2, 1, 4 * H)) * 0.2
        G = rng.standard_normal((3, 2, B, H))

        def objective():
            return float(np.sum(_layer_forward(_step_inputs(X), W, U, b)[-1][1:] * G))

        cache = _layer_forward(_step_inputs(X), W, U, b)
        dW, dU, db, dX_steps = _layer_backward(_step_inputs(X), W, U, cache, G, True)
        dX = dX_steps[:, 0] + dX_steps[::-1, 1]  # each position's two gradients
        for analytic, array in ((dX, X), (dW, W), (dU, U), (db, b)):
            numeric = _central_diff(objective, array)
            assert _rel_error(analytic, numeric.reshape(np.shape(analytic))) < 1e-5

    # full model through the dense head, embeddings included: 20 fixtures
    for trial in range(20):
        V = int(rng.integers(4, 8))
        dim = int(rng.integers(2, 4))
        h1 = int(rng.integers(2, 4))
        h2 = int(rng.integers(2, 4))
        B = int(rng.integers(2, 4))
        T = int(rng.integers(3, 5))
        table = random_table(V, dim, seed=trial)
        params = init_params(table.rows, h1, h2, seed=trial + 1)
        batch_idx = rng.integers(1, V + 1, size=(B, T))  # row 0's gradient is pinned
        y = rng.integers(0, 2, size=B).astype(float)
        analytic = bilstm_gradients(params, batch_idx, y, train_embeddings=True)
        for name in params:
            numeric = _central_diff(lambda: bilstm_loss(params, batch_idx, y), params[name])
            if name == "embedding":
                numeric[0] = 0.0
            assert _rel_error(analytic[name], numeric) < 1e-5, ("bilstm", trial, name)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_4_learning_capability():
    """SVM solves the separable fixture; MLP solves XOR; BiLSTM learns a keyword."""
    started = time.perf_counter()

    # (a) linearly separable fixture, perfect F1 within 50 epochs, every seed
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1, 0])
    for seed in range(5):
        model = svm_train(X, y, epochs=50, seed=seed)
        assert f1_score(y, [int(svm_decision(model, x) >= 0) for x in X]) == 1.0, seed

    # (b) XOR within 2000 epochs for at least 4 of 5 seeds
    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    xor_y = np.array([0, 1, 1, 0])
    solved = 0
    for seed in range(5):
        model = mlp_train(xor_x, xor_y, hidden_size=8, epochs=2000, seed=seed, batch_size=4)
        solved += (mlp_forward(model.params, xor_x) >= 0.5).astype(int).tolist() == xor_y.tolist()
    assert solved >= 4, solved

    # (c) 200-document keyword task: training F1 >= 0.9 in 20 epochs, >= 4/5 seeds
    spec = SyntheticSpec(
        morbidities={"Gout": MorbiditySpec(positives=100, negatives=100)},
        noise_vocab_size=50,
        min_tokens=15,
        max_tokens=30,
    )
    notes = generate_synthetic_corpus(spec, seed=42)
    dataset = build_binary_dataset(notes, "Gout")
    token_lists = [tokenize(normalize_text(t)) for t in dataset.texts]
    vocab = build_vocabulary(token_lists)
    policy = compute_max_len([len(t) for t in token_lists])
    docs = index_matrix(token_lists, vocab, policy)
    labels = np.asarray(dataset.labels, dtype=float)
    config = BiLstmConfig(hidden1=16, hidden2=16, epochs=20, train_embeddings=True)
    reached = 0
    scores = []
    for seed in range(5):
        table = random_table(len(vocab), 16, seed=1000 + seed)
        model = bilstm_train(docs, labels, table, config, seed=seed)
        preds = (bilstm_forward(docs, model) >= 0.5).astype(int)
        train_f1 = f1_score(dataset.labels, preds)
        scores.append(round(train_f1, 3))
        reached += train_f1 >= 0.9
    assert reached >= 4, scores

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"{elapsed:.1f}s"


def test_criterion_5_cross_validation_invariants():
    """Fold invariants over every n <= 50 and 100 seeds; F1 equals its oracle."""
    started = time.perf_counter()
    for k in (2, 5, 10):
        for n in range(k, 51):
            for seed in range(100):
                rng = np.random.default_rng(seed * 10007 + n * 13 + k)
                labels = rng.integers(0, 2, n).tolist()
                folds = stratified_kfold(labels, k, seed)
                all_test = sorted(i for f in folds for i in f.test_indices)
                assert all_test == list(range(n))  # disjoint and covering
                for cls in (0, 1):
                    per_fold = [
                        sum(1 for i in f.test_indices if labels[i] == cls) for f in folds
                    ]
                    assert max(per_fold) - min(per_fold) <= 1, (k, n, seed, cls)
                for f in folds:
                    assert set(f.train_indices).isdisjoint(f.test_indices)

    rng = np.random.default_rng(4242)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y_true = rng.integers(0, 2, n)
        y_pred = rng.integers(0, 2, n)
        tp = int(np.sum((y_true == 1) & (y_pred == 1)))
        fp = int(np.sum((y_true == 0) & (y_pred == 1)))
        fn = int(np.sum((y_true == 1) & (y_pred == 0)))
        if tp == 0:
            expected = 0.0
        else:
            p, r = tp / (tp + fp), tp / (tp + fn)
            expected = 2 * p * r / (p + r)
        assert f1_score(y_true, y_pred) == expected

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"{elapsed:.1f}s"


def test_criterion_6_baselines_beat_random_bilstm():
    """On marker corpora (16 conditions x 100 notes, 10-fold) the TF-IDF
    baselines both average F1 >= 0.99 and beat the randomly-initialized
    BiLSTM, for 3 of 3 master seeds."""
    started = time.perf_counter()
    spec = SyntheticSpec(
        morbidities={
            m: MorbiditySpec(positives=30, negatives=70, marker_repeats=3) for m in MORBIDITIES
        },
        noise_vocab_size=25,
        min_tokens=15,
        max_tokens=30,
    )
    notes = generate_synthetic_corpus(spec, seed=2026)
    datasets = {m: build_binary_dataset(notes, m) for m in MORBIDITIES}
    config = ExperimentConfig(
        k=10,
        representations=("tfidf_svm", "tfidf_mlp", "bilstm_random"),
        svm_lambda=1e-2,
        mlp_epochs=300,
        bilstm_hidden1=16,
        bilstm_hidden2=16,
        embed_dim=16,
    )
    for master_seed in (1, 2, 3):
        report = run_experiment(datasets, config, master_seed)
        svm = report.mean_over_morbidities("tfidf_svm")
        mlp = report.mean_over_morbidities("tfidf_mlp")
        bilstm = report.mean_over_morbidities("bilstm_random")
        print(f"seed {master_seed}: svm={svm:.4f} mlp={mlp:.4f} bilstm_random={bilstm:.4f}")
        assert svm >= 0.99, (master_seed, svm)
        assert mlp >= 0.99, (master_seed, mlp)
        assert svm > bilstm, (master_seed, svm, bilstm)
        assert mlp > bilstm, (master_seed, mlp, bilstm)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"{elapsed:.1f}s"


def test_criterion_7_byte_identical_runs(tmp_path):
    """Identical invocations and --jobs 4 produce byte-identical outputs."""
    spec = {
        "morbidities": {
            "Gout": {"positives": 8, "negatives": 8, "marker_repeats": 3},
            "Asthma": {"positives": 8, "negatives": 8, "marker_repeats": 3},
        },
        "noise_vocab_size": 25,
        "min_tokens": 15,
        "max_tokens": 30,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(corpus)]) == 0

    sg_config = {"embeddings.dim": 8, "skipgram.epochs": 1, "skipgram.window": 2}
    (tmp_path / "sg.json").write_text(json.dumps(sg_config), encoding="utf-8")
    vectors = tmp_path / "vectors.txt"
    assert (
        main(
            [
                "train-embeddings",
                str(corpus),
                "--config",
                str(tmp_path / "sg.json"),
                "--out",
                str(vectors),
            ]
        )
        == 0
    )

    config = {
        "eval.k": 2,
        "svm.epochs": 10,
        "svm.lambda": 0.01,
        "mlp.hidden_size": 8,
        "mlp.epochs": 20,
        "bilstm.hidden1": 4,
        "bilstm.hidden2": 4,
        "bilstm.epochs": 2,
        "embeddings.dim": 8,
        "embeddings.word2vec_path": str(vectors),
        "embeddings.glove_path": str(vectors),
        "skipgram.epochs": 1,
        "skipgram.window": 2,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")

    base = ["run", str(corpus), "--config", str(tmp_path / "config.json"), "--seed", "7"]
    assert main([*base, "--out", str(tmp_path / "r1")]) == 0
    assert main([*base, "--out", str(tmp_path / "r2")]) == 0
    assert main([*base, "--jobs", "4", "--out", str(tmp_path / "r4")]) == 0

    raw = (tmp_path / "r1" / "raw.jsonl").read_text()
    assert len(raw.splitlines()) == 24  # 2 morbidities x 6 representations x 2 folds
    for name in ("report.md", "report.csv", "raw.jsonl"):
        first = (tmp_path / "r1" / name).read_bytes()
        assert (tmp_path / "r2" / name).read_bytes() == first, f"{name}: rerun differs"
        assert (tmp_path / "r4" / name).read_bytes() == first, f"{name}: --jobs 4 differs"


def test_criterion_8_rmsprop_hand_value():
    """One step from a fresh state with g=1 moves theta by -0.0031623."""
    params = {"theta": np.array([0.0])}
    state = RmspropState.fresh(params)
    rmsprop_step(params, {"theta": np.array([1.0])}, state)
    assert params["theta"][0] == pytest.approx(-0.0031623, abs=1e-7)
