"""Tests for folding, metrics, configuration, and the experiment engine."""

import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from morbench.corpus import (
    DatasetRecord,
    MorbidityDataset,
    MorbiditySpec,
    SyntheticSpec,
    build_binary_dataset,
    generate_synthetic_corpus,
)
from morbench.errors import ConfigError
from morbench.eval import (
    REPRESENTATION_TABLE,
    REPRESENTATIONS,
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    FoldResult,
    _cells_task,
    _fit_fold,
    config_from_dict,
    config_to_dict,
    confusion_counts,
    derive_seed,
    f1_from_counts,
    f1_score,
    order_morbidities,
    raw_rows,
    render_report_csv,
    render_report_markdown,
    report_from_raw_rows,
    run_cell,
    run_experiment,
    stratified_kfold,
)
from morbench.models.predictor import note_tokens, tfidf_matrix
from morbench.preprocess import load_stopwords, normalize_text, tokenize
from morbench.tfidf import fit as tfidf_fit


def _dataset(morbidity, texts, labels):
    records = tuple(
        DatasetRecord(note_id=f"n{i}", text=t, label=l, source="textual")
        for i, (t, l) in enumerate(zip(texts, labels))
    )
    return MorbidityDataset(morbidity=morbidity, records=records)


def _marker_dataset(morbidity="Gout", positives=20, negatives=20, seed=7, repeats=3):
    spec = SyntheticSpec(
        morbidities={morbidity: MorbiditySpec(positives, negatives, marker_repeats=repeats)},
        noise_vocab_size=25,
        min_tokens=15,
        max_tokens=30,
    )
    notes = generate_synthetic_corpus(spec, seed=seed)
    return build_binary_dataset(notes, morbidity)


# ---------------------------------------------------------------------------
# seeds


def test_derive_seed_deterministic_and_sensitive_to_parts():
    assert derive_seed(1, "Gout", 0) == derive_seed(1, "Gout", 0)
    seen = {
        derive_seed(1, "Gout", 0),
        derive_seed(1, "Gout", 1),
        derive_seed(1, "CAD", 0),
        derive_seed(2, "Gout", 0),
        derive_seed(1, "Gout", "folds"),
    }
    assert len(seen) == 5
    for value in seen:
        assert 0 <= value < 2**63


# ---------------------------------------------------------------------------
# metrics


def test_confusion_counts_hand_case():
    y_true = [1, 1, 0, 0, 1, 0]
    y_pred = [1, 0, 1, 0, 1, 0]
    assert confusion_counts(y_true, y_pred) == (2, 1, 1, 2)
    with pytest.raises(ValueError, match="mismatch"):
        confusion_counts([1, 0], [1])


def test_f1_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(99)
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
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            expected = 2 * precision * recall / (precision + recall)
        assert f1_score(y_true, y_pred) == pytest.approx(expected, abs=1e-12)


def test_f1_zero_conventions():
    assert f1_score([0, 0], [0, 0]) == 0.0  # no positives anywhere
    assert f1_score([1, 1], [0, 0]) == 0.0  # no predicted positives
    assert f1_score([0, 0], [1, 1]) == 0.0  # no true positives
    assert f1_from_counts(0, 0, 0) == 0.0


def test_weighted_f1_hand_value():
    # y_true = [1,1,0,0,0], y_pred = [1,0,0,0,1]
    # positive class: tp=1 fp=1 fn=1 -> F1 = 0.5, support 2
    # negative class: tp'=2 fp'=1 fn'=1 -> F1 = 2/3, support 3
    # weighted = (2*0.5 + 3*2/3) / 5 = 0.6
    value = f1_score([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], weighted=True)
    assert value == pytest.approx(0.6, abs=1e-12)


# ---------------------------------------------------------------------------
# stratified folds


def test_fold_invariants_across_seeds_and_k():
    rng = np.random.default_rng(1234)
    for seed in range(100):
        n = int(rng.integers(10, 51))
        labels = rng.integers(0, 2, n).tolist()
        for k in (2, 5, 10):
            if k > n:
                continue
            folds = stratified_kfold(labels, k, seed)
            assert len(folds) == k
            all_test = [i for f in folds for i in f.test_indices]
            assert sorted(all_test) == list(range(n))  # disjoint and covering
            sizes = [len(f.test_indices) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            for cls in (0, 1):
                per_fold = [
                    sum(1 for i in f.test_indices if labels[i] == cls) for f in folds
                ]
                assert max(per_fold) - min(per_fold) <= 1, (seed, k, cls)
            for f in folds:
                assert set(f.train_indices).isdisjoint(f.test_indices)
                assert len(f.train_indices) + len(f.test_indices) == n


def test_fold_split_is_seed_deterministic():
    labels = [0, 1] * 10
    a = stratified_kfold(labels, 5, seed=3)
    b = stratified_kfold(labels, 5, seed=3)
    c = stratified_kfold(labels, 5, seed=4)
    assert a == b
    assert a != c


@given(st.lists(st.integers(0, 2), min_size=2, max_size=60), st.data(), st.integers(0, 2**63 - 1))
def test_fold_properties_for_any_labels_k_and_seed(labels, data, seed):
    n = len(labels)
    k = data.draw(st.integers(2, n), label="k")
    folds = stratified_kfold(labels, k, seed)
    assert [f.fold for f in folds] == list(range(k))
    assert sorted(i for f in folds for i in f.test_indices) == list(range(n))  # each index once
    for f in folds:
        assert f.train_indices == tuple(i for i in range(n) if i not in f.test_indices)
    groups = [range(n)] + [[i for i in range(n) if labels[i] == c] for c in set(labels)]
    for members in groups:  # total and per-class test sizes
        sizes = [len(set(f.test_indices).intersection(members)) for f in folds]
        assert max(sizes) - min(sizes) <= 1
    assert stratified_kfold(labels, k, seed) == folds


def test_fold_argument_validation():
    with pytest.raises(ValueError, match="at least 2"):
        stratified_kfold([0, 1, 0, 1], 1, seed=0)
    with pytest.raises(ValueError, match="cannot make"):
        stratified_kfold([0, 1, 0], 4, seed=0)


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip_through_flat_dict():
    config = ExperimentConfig(
        k=5,
        representations=("tfidf_svm", "bilstm_random"),
        morbidities=("Gout",),
        svm_lambda=0.01,
        embed_dim=16,
    )
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config


_PLAUSIBLE_CONFIG_VALUE = {  # by the type of the key's default
    bool: st.booleans(),
    float: st.floats(0, 1) | st.integers(1, 5),
    str: st.sampled_from(["fold", "corpus"]),
    list: st.lists(st.sampled_from(REPRESENTATIONS), max_size=4),
    type(None): st.text(max_size=5) | st.lists(st.text(max_size=5), max_size=3),
}


@st.composite
def _config_dicts(draw, ints=st.integers(1, 400), any_int=st.integers()) -> dict:
    """A flat config dict; seven values in eight are of the key's type and mostly in
    range. Integers are drawn from ``ints`` for integer keys and from ``any_int``
    among the values of any type."""
    defaults = config_to_dict(ExperimentConfig())
    plausible = {**_PLAUSIBLE_CONFIG_VALUE, int: ints}
    any_value = st.none() | st.booleans() | any_int | st.floats() | st.text(max_size=5)
    raw = {}
    for key in draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=6)):
        value = plausible[type(defaults[key])] if draw(st.integers(0, 7)) < 7 else any_value
        raw[key] = draw(value)
    return raw


@given(_config_dicts())
def test_every_accepted_config_dict_survives_config_to_dict(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    flat = config_to_dict(config)
    assert {key: flat[key] for key in raw} == raw
    assert config_from_dict(json.loads(json.dumps(flat))) == config


def test_default_config_dict_covers_every_key():
    flat = config_to_dict(ExperimentConfig())
    assert config_from_dict(flat) == ExperimentConfig()
    assert flat["eval.k"] == 10
    assert flat["eval.representations"] == list(REPRESENTATIONS)
    nulls = {"eval.morbidities", "embeddings.word2vec_path", "embeddings.glove_path"}
    assert {key for key, value in flat.items() if value is None} == nulls


def test_readme_config_table_names_every_key_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(config_to_dict(ExperimentConfig()))


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"eval.folds": 10})


@pytest.mark.parametrize(
    "raw,message",
    [
        ({"eval.k": "ten"}, "must be an integer"),
        ({"eval.k": True}, "must be an integer"),
        ({"svm.lambda": "small"}, "must be a number"),
        ({"eval.weighted_f1": 1}, "must be true or false"),
        ({"eval.representations": "tfidf_svm"}, "list of strings"),
        ({"eval.representations": [1, 2]}, "list of strings"),
        ({"embeddings.word2vec_path": 7}, "must be a string"),
    ],
)
def test_config_type_validation(raw, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


_TYPE_MESSAGES = {  # by the type of the key's default in its file form
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "a non-empty list of strings",
}


@pytest.mark.parametrize("key", sorted(config_to_dict(ExperimentConfig())))
def test_null_is_accepted_exactly_for_keys_whose_default_is_null(key):
    default = config_to_dict(ExperimentConfig())[key]
    if default is None:
        assert config_to_dict(config_from_dict({key: None}))[key] is None
        return
    message = f"config key '{key}' must be {_TYPE_MESSAGES[type(default)]}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict({key: None})


def test_config_semantic_validation():
    with pytest.raises(ConfigError, match="at least 2"):
        ExperimentConfig(k=1)
    with pytest.raises(ConfigError, match="unknown representation"):
        ExperimentConfig(representations=("tfidf_forest",))
    with pytest.raises(ConfigError, match="fit_scope"):
        ExperimentConfig(fit_scope="document")
    for key, value in [
        ("eval.representations", []),
        ("eval.representations", ["tfidf_svm", "tfidf_svm"]),
        ("eval.morbidities", []),
        ("eval.morbidities", [""]),
        ("eval.morbidities", ["Gout", ""]),
    ]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({key: value})
    assert config_from_dict({}) == ExperimentConfig()


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("svm_lambda", -1.0, "svm.lambda"),
        ("svm_lambda", 0.0, "svm.lambda"),
        ("svm_lambda", None, "svm.lambda"),
        ("sg_lr", float("nan"), "skipgram.learning_rate"),
        ("rms_lr", float("inf"), "rmsprop.learning_rate"),
        ("rms_eps", -1e-7, "rmsprop.eps"),
        ("rms_rho", 1.0, "rmsprop.rho"),
        ("rms_rho", -0.1, "rmsprop.rho"),
        ("weighted_f1", None, "eval.weighted_f1"),
        ("mlp_batch", True, "mlp.batch_size"),
        ("svm_lambda", 10**400, "svm.lambda"),  # too large for a float
    ],
)
def test_direct_construction_checks_every_rule(field, value, key):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{field: value})


def test_config_edges_and_coercion():
    config = ExperimentConfig(rms_rho=0.0, representations=["tfidf_svm"], morbidities=None)
    assert config.rms_rho == 0.0 and config.representations == ("tfidf_svm",)
    from_file = config_from_dict({"svm.lambda": 1, "rmsprop.rho": 0})
    assert isinstance(from_file.svm_lambda, float) and isinstance(from_file.rms_rho, float)
    assert config_to_dict(from_file)["svm.lambda"] == 1.0


def test_order_morbidities_canonical_then_extras():
    got = order_morbidities(["Zebra", "Venous Insufficiency", "Asthma", "Alpha"])
    assert got == ("Asthma", "Venous Insufficiency", "Alpha", "Zebra")


# ---------------------------------------------------------------------------
# representation fitting is leakage-free


def _token_lists(dataset):
    return [tokenize(normalize_text(t)) for t in dataset.texts]


def _fit(representation, token_lists, fold, labels, **overrides):
    rep = REPRESENTATION_TABLE[representation]
    config = _cheap_config(**overrides)
    return _fit_fold(rep, "Gout", token_lists, fold, np.asarray(labels), config, 0, {})


def test_tfidf_fold_ignores_test_documents():
    dataset = _marker_dataset(positives=10, negatives=10)
    tokens = _token_lists(dataset)
    folds = stratified_kfold(dataset.labels, 4, seed=0)
    fold = folds[0]
    a = _fit("tfidf_svm", tokens, fold, dataset.labels)
    mutated = list(tokens)
    for i in fold.test_indices:
        mutated[i] = ["entirely", "different", "words", "here"]
    b = _fit("tfidf_svm", mutated, fold, dataset.labels)
    assert a.tfidf == b.tfidf
    np.testing.assert_array_equal(a.model.weights, b.model.weights)
    assert a.model.bias == b.model.bias


def test_sequence_fold_ignores_test_documents():
    dataset = _marker_dataset(positives=10, negatives=10)
    tokens = _token_lists(dataset)
    fold = stratified_kfold(dataset.labels, 4, seed=0)[1]
    a = _fit("bilstm_random", tokens, fold, dataset.labels)
    mutated = list(tokens)
    for i in fold.test_indices:
        mutated[i] = ["zzz"] * 50
    b = _fit("bilstm_random", mutated, fold, dataset.labels)
    assert a.vocab.index == b.vocab.index
    assert a.length_policy == b.length_policy
    for name, value in a.model.params.items():
        np.testing.assert_array_equal(value, b.model.params[name])


def test_corpus_scope_widens_tfidf_vocabulary():
    tokens = [["alpha", "beta"], ["beta", "gamma"], ["delta", "alpha"], ["epsilon", "zeta"]]
    labels = [0, 1, 0, 1]
    fold = stratified_kfold(labels, 2, seed=0)[0]
    by_fold = _fit("tfidf_svm", tokens, fold, labels, fit_scope="fold")
    by_corpus = _fit("tfidf_svm", tokens, fold, labels, fit_scope="corpus")
    fit_words = {w for i in fold.train_indices for w in tokens[i]}
    assert len(by_fold.tfidf.columns) == len(fit_words)
    assert len(by_corpus.tfidf.columns) == len({w for doc in tokens for w in doc})


# ---------------------------------------------------------------------------
# run_cell


def _cheap_config(**overrides):
    base = dict(
        k=4,
        representations=("tfidf_svm",),
        svm_lambda=1e-2,
        svm_epochs=30,
        mlp_hidden=8,
        mlp_epochs=40,
        bilstm_hidden1=4,
        bilstm_hidden2=4,
        bilstm_epochs=3,
        embed_dim=8,
        sg_epochs=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_cell_scores_marker_corpus():
    dataset = _marker_dataset(positives=12, negatives=12)
    cell = run_cell(dataset, "tfidf_svm", _cheap_config(), master_seed=1)
    assert cell.skipped is None
    assert len(cell.folds) == 4
    assert cell.mean_f1 is not None and cell.mean_f1 >= 0.9
    for fr in cell.folds:
        assert fr.tp + fr.fp + fr.fn + fr.tn == len(fr_indices_for(dataset, fr.fold))


def fr_indices_for(dataset, fold_index):
    # helper mirroring run_cell's fold derivation so per-fold totals can be checked
    fold_seed = derive_seed(1, dataset.morbidity, "folds")
    folds = stratified_kfold(dataset.labels, 4, fold_seed)
    return folds[fold_index].test_indices


def test_run_cell_no_signal_stays_near_chance():
    spec = SyntheticSpec(
        morbidities={"Gout": MorbiditySpec(100, 100, marker=False)},
        noise_vocab_size=50,
        min_tokens=15,
        max_tokens=30,
    )
    config = _cheap_config(k=10)
    for master_seed in (1, 2, 3):
        notes = generate_synthetic_corpus(spec, seed=100 + master_seed)
        dataset = build_binary_dataset(notes, "Gout")
        cell = run_cell(dataset, "tfidf_svm", config, master_seed)
        assert cell.skipped is None
        assert cell.mean_f1 < 0.75, (master_seed, cell.mean_f1)


def test_run_cell_skips_small_and_single_class_data():
    tiny = _dataset("Gout", ["a b"] * 3, [1, 0, 1])
    cell = run_cell(tiny, "tfidf_svm", _cheap_config(), master_seed=0)
    assert cell.skipped is not None and "folds" in cell.skipped

    single = _dataset("Gout", ["a b"] * 8, [1] * 8)
    cell = run_cell(single, "tfidf_svm", _cheap_config(), master_seed=0)
    assert cell.skipped is not None and "need >= 2" in cell.skipped
    assert cell.mean_f1 is None


def test_run_cell_skips_unconfigured_vector_files():
    dataset = _marker_dataset(positives=8, negatives=8)
    config = _cheap_config(representations=("bilstm_pretrained_w2v",))
    cell = run_cell(dataset, "bilstm_pretrained_w2v", config, master_seed=0)
    assert cell.skipped is not None and "no vector file" in cell.skipped
    config = _cheap_config(representations=("bilstm_glove",))
    cell = run_cell(dataset, "bilstm_glove", config, master_seed=0)
    assert cell.skipped is not None and "bilstm_glove" in cell.skipped


def test_run_cell_skips_notes_without_tokens():
    dataset = _dataset("Gout", ["!!! ... ???"] * 20, [1, 0] * 10)
    config = _cheap_config(representations=("bilstm_random", "tfidf_svm", "tfidf_mlp"))
    report = run_experiment({"Gout": dataset}, config, master_seed=0)
    bilstm, svm, mlp = report.cells
    assert bilstm.skipped is not None and "max_len 0" in bilstm.skipped
    for cell in (svm, mlp):
        assert cell.skipped is not None and "0 columns" in cell.skipped
    lines = raw_rows(report)
    assert [json.loads(line)["skipped"] for line in lines] == [c.skipped for c in report.cells]


@pytest.mark.parametrize("fit_scope", ["fold", "corpus"])
def test_run_cell_parses_each_vector_file_once(tmp_path, monkeypatch, fit_scope):
    import morbench.eval as eval_module
    from morbench.embeddings import load_pretrained

    dataset = _marker_dataset(positives=6, negatives=6)
    token_lists = _token_lists(dataset)
    dim = 3
    rng = np.random.default_rng(0)
    # vectors for half the corpus words plus words the corpus never uses
    words = sorted({t for tokens in token_lists for t in tokens})[::2] + ["unused", "other"]
    path = tmp_path / "vec.txt"
    lines = [" ".join([w, *map(repr, rng.normal(size=dim).tolist())]) + "\n" for w in words]
    path.write_text("".join(lines), encoding="utf-8")
    config = _cheap_config(
        representations=("bilstm_pretrained_w2v",),
        word2vec_path=str(path),
        embed_dim=dim,
        bilstm_epochs=1,
        fit_scope=fit_scope,
    )
    calls, tables = [], []
    restrict = eval_module.restrict_table

    def counting_load(*args, **kwargs):
        calls.append(args)
        return load_pretrained(*args, **kwargs)

    def recording_restrict(table, table_vocab, vocab):
        out = restrict(table, table_vocab, vocab)
        tables.append((vocab, out))
        return out

    monkeypatch.setattr(eval_module, "load_pretrained", counting_load)
    monkeypatch.setattr(eval_module, "restrict_table", recording_restrict)
    cell = run_cell(dataset, "bilstm_pretrained_w2v", config, master_seed=1)
    assert cell.skipped is None and len(cell.folds) == config.k
    assert len(calls) == 1
    assert len(tables) == config.k
    for vocab, table in tables:
        direct, _ = load_pretrained(path, vocab, dim)
        assert np.array_equal(table.rows, direct.rows)


def test_run_cell_is_deterministic():
    dataset = _marker_dataset(positives=8, negatives=8)
    config = _cheap_config(representations=("bilstm_random",))
    a = run_cell(dataset, "bilstm_random", config, master_seed=5)
    b = run_cell(dataset, "bilstm_random", config, master_seed=5)
    assert [f.f1 for f in a.folds] == [f.f1 for f in b.folds]
    assert [(f.tp, f.fp, f.fn, f.tn) for f in a.folds] == [
        (f.tp, f.fp, f.fn, f.tn) for f in b.folds
    ]


# ---------------------------------------------------------------------------
# run_experiment and rendering


def _tiny_experiment(jobs=1, master_seed=3):
    datasets = {
        "Gout": _marker_dataset("Gout", positives=8, negatives=8, seed=5),
        "Asthma": _marker_dataset("Asthma", positives=8, negatives=8, seed=6),
    }
    config = _cheap_config(k=2, svm_epochs=10)
    return run_experiment(datasets, config, master_seed=master_seed, jobs=jobs)


def test_run_experiment_grid_and_ordering():
    report = _tiny_experiment()
    assert report.morbidities == ("Asthma", "Gout")
    assert len(report.cells) == 2
    assert report.cell("Gout", "tfidf_svm").morbidity == "Gout"
    with pytest.raises(KeyError):
        report.cell("Gout", "tfidf_mlp")


def test_run_experiment_rejects_unknown_morbidity():
    datasets = {"Gout": _marker_dataset()}
    config = _cheap_config(morbidities=("Gout", "Missing"))
    with pytest.raises(ConfigError, match="Missing"):
        run_experiment(datasets, config, master_seed=0)


def test_parallel_run_matches_sequential_bytes(monkeypatch):
    import morbench.eval as eval_module

    # real worker processes on any host: a grouped TF-IDF task (its memo
    # filled in a worker) and a BiLSTM task per morbidity
    monkeypatch.setattr(eval_module, "_usable_cpus", lambda: 2)
    pools = []

    class CountingPool(eval_module.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(eval_module, "ProcessPoolExecutor", CountingPool)
    reps = ("tfidf_svm", "tfidf_mlp", "bilstm_random")
    seq = _two_morbidity_experiment(reps, jobs=1)
    par = _two_morbidity_experiment(reps, jobs=4)
    assert pools == [2]
    assert all(c.skipped is None for c in par.cells) and len(par.cells) == 6
    assert render_report_markdown(seq) == render_report_markdown(par)
    assert render_report_csv(seq) == render_report_csv(par)
    assert raw_rows(seq) == raw_rows(par)


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: records each pool's worker count,
    worker initializer and each task's (morbidity, representations), and runs
    the tasks in this process."""
    record = SimpleNamespace(workers=[], initializers=[], tasks=[])

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            record.workers.append(max_workers)
            record.initializers.append((initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            record.tasks.extend((t[0].morbidity, t[1]) for t in tasks)
            return map(fn, tasks)

    monkeypatch.setattr("morbench.eval.ProcessPoolExecutor", RecordingPool)
    return record


def test_pool_has_no_more_workers_than_cells(recording_pool, monkeypatch):
    monkeypatch.setattr("morbench.eval._usable_cpus", lambda: 64)
    report = _tiny_experiment(jobs=64)
    assert recording_pool.workers == [len(report.cells)] == [2]


def _two_morbidity_experiment(representations, jobs, master_seed=3):
    datasets = {
        "Gout": _marker_dataset("Gout", positives=6, negatives=6, seed=5),
        "Asthma": _marker_dataset("Asthma", positives=6, negatives=6, seed=6),
    }
    config = _cheap_config(k=2, representations=representations, bilstm_epochs=1)
    return run_experiment(datasets, config, master_seed=master_seed, jobs=jobs)


@pytest.mark.parametrize("cpus, workers", [(64, [4]), (3, [3]), (1, [])])
def test_pool_is_clamped_to_usable_cpus(recording_pool, monkeypatch, cpus, workers):
    # 2 morbidities x (one TF-IDF task + one task per BiLSTM representation) = 4 tasks;
    # a single usable CPU runs them in this process, with no pool at all
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    _two_morbidity_experiment(("tfidf_svm", "tfidf_mlp", "bilstm_random"), jobs=64)
    assert recording_pool.workers == workers


def test_pool_clamp_falls_back_to_cpu_count(recording_pool, monkeypatch):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    _two_morbidity_experiment(("tfidf_svm", "tfidf_mlp", "bilstm_random"), jobs=64)
    assert recording_pool.workers == [3]
    monkeypatch.setattr("os.cpu_count", lambda: None)  # unknown: one worker, no pool
    _two_morbidity_experiment(("tfidf_svm", "bilstm_random"), jobs=64)
    assert recording_pool.workers == [3]


def test_tfidf_representations_of_a_morbidity_form_one_task(recording_pool, monkeypatch):
    monkeypatch.setattr("morbench.eval._usable_cpus", lambda: 8)
    reps = ("tfidf_svm", "bilstm_random", "tfidf_mlp", "bilstm_domain_w2v")
    report = _two_morbidity_experiment(reps, jobs=8)
    assert recording_pool.tasks == [
        ("Asthma", ("tfidf_svm", "tfidf_mlp")),
        ("Asthma", ("bilstm_random",)),
        ("Asthma", ("bilstm_domain_w2v",)),
        ("Gout", ("tfidf_svm", "tfidf_mlp")),
        ("Gout", ("bilstm_random",)),
        ("Gout", ("bilstm_domain_w2v",)),
    ]
    # cells come back in (morbidity, representation) grid order, as a sequential run gives them
    assert [(c.morbidity, c.representation) for c in report.cells] == [
        (m, rep) for m in ("Asthma", "Gout") for rep in reps
    ]
    assert raw_rows(report) == raw_rows(_two_morbidity_experiment(reps, jobs=1))


def test_cells_run_with_one_blas_thread(recording_pool, monkeypatch):
    import morbench.eval as eval_module

    outside = eval_module._set_blas_threads(2)
    if outside is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    seen = []  # the thread count each cell ran with
    run_cell_inner = eval_module.run_cell

    def recording_run_cell(*args, **kwargs):
        seen.append(eval_module._set_blas_threads(1))
        return run_cell_inner(*args, **kwargs)

    monkeypatch.setattr(eval_module, "run_cell", recording_run_cell)
    try:
        monkeypatch.setattr(eval_module, "_usable_cpus", lambda: 1)
        _tiny_experiment(jobs=2)  # one usable CPU: no pool
        assert eval_module._set_blas_threads(2) == 2  # the caller's count is restored
        monkeypatch.setattr(eval_module, "_usable_cpus", lambda: 2)
        _tiny_experiment(jobs=2)
        assert eval_module._set_blas_threads(2) == 2
    finally:
        eval_module._set_blas_threads(outside)
    assert seen == [1] * 4
    assert recording_pool.workers == [2]
    assert recording_pool.initializers == [(eval_module._set_blas_threads, (1,))]


def _without_seconds(cell: CellResult) -> CellResult:
    return replace(cell, seconds=0.0)


@pytest.mark.parametrize("fit_scope", ["fold", "corpus"])
def test_shared_memo_gives_the_unshared_results(tmp_path, monkeypatch, fit_scope):
    import morbench.eval as eval_module

    marker = _marker_dataset(positives=8, negatives=8)
    # stopwords in every note: the TF-IDF cells drop them and the BiLSTM cells keep them
    dataset = _dataset("Gout", [f"the {text} of" for text in marker.texts], marker.labels)
    path = tmp_path / "vec.txt"
    rng = np.random.default_rng(0)
    words = sorted({t for tokens in _token_lists(dataset) for t in tokens})
    lines = [f"{w} {rng.normal()!r} {rng.normal()!r}\n" for w in words]
    path.write_text("".join(lines), encoding="utf-8")
    # one task holding every kind of memo entry; a run gives each BiLSTM representation its own
    reps = ("tfidf_svm", "tfidf_mlp", "bilstm_random", "bilstm_pretrained_w2v")
    config = _cheap_config(
        representations=reps,
        fit_scope=fit_scope,
        word2vec_path=str(path),
        embed_dim=2,
        bilstm_epochs=1,
    )
    matrices = []  # every TF-IDF training matrix, as the classifiers receive it
    for name in ("svm_train", "mlp_train"):
        train = getattr(eval_module, name)

        def recording_train(X, *args, _train=train, **kwargs):
            matrices.append((X.shape, X.tobytes()))
            return _train(X, *args, **kwargs)

        monkeypatch.setattr(eval_module, name, recording_train)
    alone = [run_cell(dataset, rep, config, master_seed=2) for rep in reps]
    alone_matrices, matrices[:] = matrices[:], []
    # each fold's matrix as it is built with no memo at all
    tokens = [note_tokens(t, load_stopwords()) for t in dataset.texts]
    expected = []
    for fold in stratified_kfold(dataset.labels, config.k, derive_seed(2, "Gout", "folds")):
        train = [tokens[i] for i in fold.train_indices]
        X = tfidf_matrix(train, tfidf_fit(tokens if fit_scope == "corpus" else train))
        expected.append((X.shape, X.tobytes()))
    assert alone_matrices == expected * 2
    fits, loads = [], []
    fit, load = eval_module.tfidf_fit, eval_module.load_pretrained

    def counting_fit(docs):
        fits.append(len(docs))
        return fit(docs)

    def counting_load(*args):
        loads.append(args)
        return load(*args)

    monkeypatch.setattr(eval_module, "tfidf_fit", counting_fit)
    monkeypatch.setattr(eval_module, "load_pretrained", counting_load)
    together = _cells_task((dataset, reps, config, 2))
    assert [_without_seconds(c) for c in together] == [_without_seconds(c) for c in alone]
    assert matrices == alone_matrices and len(matrices) == 2 * config.k
    assert all(c.skipped is None and len(c.folds) == config.k for c in together)
    assert len(loads) == 1
    if fit_scope == "corpus":
        assert fits == [len(dataset.labels)]  # one fit for the whole task
    else:
        assert len(fits) == config.k  # the second TF-IDF cell fitted nothing


def test_shared_memo_keeps_the_zero_column_skip_for_every_cell():
    dataset = _dataset("Gout", ["!!! ... ???"] * 20, [1, 0] * 10)
    config = _cheap_config(representations=("tfidf_svm", "tfidf_mlp"))
    cells = _cells_task((dataset, config.representations, config, 0))
    for cell in cells:
        assert cell.skipped is not None and "0 columns" in cell.skipped
    assert cells[0].skipped == cells[1].skipped


def test_render_markdown_layout_and_average():
    cells = (
        CellResult(
            morbidity="Gout",
            representation="tfidf_svm",
            folds=(FoldResult(0, 1.0, 2, 0, 0, 2), FoldResult(1, 0.5, 1, 1, 1, 1)),
        ),
        CellResult(morbidity="Asthma", representation="tfidf_svm", skipped="too small"),
    )
    report = ExperimentReport(
        representations=("tfidf_svm",), morbidities=("Asthma", "Gout"), cells=cells
    )
    text = render_report_markdown(report)
    lines = text.splitlines()
    assert lines[0].startswith("| morbidity")
    assert "tfidf_svm" in lines[0]
    assert [l.count("|") for l in lines] == [3] * len(lines)
    assert "n/a" in lines[2]  # Asthma row (morbidities are row-ordered)
    assert "75.00" in lines[3]  # Gout mean of 1.0 and 0.5
    assert lines[4].startswith("| Average")
    assert "75.00" in lines[4]  # only scored cells enter the average

    csv_text = render_report_csv(report)
    assert csv_text.splitlines()[0] == "morbidity,tfidf_svm"
    assert csv_text.splitlines()[2] == "Gout,75.00"
    assert csv_text.splitlines()[3] == "Average,75.00"


def test_mean_over_morbidities_none_when_everything_skipped():
    report = ExperimentReport(
        representations=("tfidf_svm",),
        morbidities=("Gout",),
        cells=(CellResult(morbidity="Gout", representation="tfidf_svm", skipped="x"),),
    )
    assert report.mean_over_morbidities("tfidf_svm") is None
    assert render_report_markdown(report).count("n/a") == 2  # cell and Average


def test_raw_rows_shape_and_determinism():
    report = _tiny_experiment()
    rows = raw_rows(report)
    assert rows == raw_rows(report)
    parsed = [json.loads(r) for r in rows]
    assert len(parsed) == 4  # 2 morbidities x 2 folds
    for row in parsed:
        assert set(row) == {"morbidity", "representation", "fold", "f1", "tp", "fp", "fn", "tn"}
        assert "seconds" not in row

    skipped_report = ExperimentReport(
        representations=("tfidf_svm",),
        morbidities=("Gout",),
        cells=(CellResult(morbidity="Gout", representation="tfidf_svm", skipped="why"),),
    )
    (line,) = raw_rows(skipped_report)
    assert json.loads(line) == {
        "morbidity": "Gout",
        "representation": "tfidf_svm",
        "skipped": "why",
    }


def _report_with_skips():
    def folds(*f1s):
        return tuple(FoldResult(i, f1, i + 1, 1, 2, 3) for i, f1 in enumerate(f1s))

    cells = (
        CellResult("Asthma", "tfidf_svm", folds(0.5, 0.25, 1.0)),
        CellResult("Asthma", "tfidf_mlp", skipped="class counts 1 positive / 9 negative"),
        CellResult("Asthma", "bilstm_random", folds(0.1, 0.2, 0.3)),
        CellResult("Gout", "tfidf_svm", folds(0.0, 2 / 3, 1 / 3)),
        CellResult("Gout", "tfidf_mlp", folds(0.75, 0.5, 0.125)),
        CellResult("Gout", "bilstm_random", skipped="notes too short"),
    )
    return ExperimentReport(
        representations=("tfidf_svm", "tfidf_mlp", "bilstm_random"),
        morbidities=("Asthma", "Gout"),
        cells=cells,
    )


def test_report_from_raw_rows_round_trips_the_tables():
    report = _report_with_skips()
    rebuilt = report_from_raw_rows(raw_rows(report), "raw.jsonl")
    assert render_report_markdown(rebuilt) == render_report_markdown(report)
    assert render_report_csv(rebuilt) == render_report_csv(report)
    assert rebuilt.cells == report.cells


def test_report_from_raw_rows_renders_a_missing_cell_as_na():
    report = _report_with_skips()
    cells = tuple(c for c in report.cells if (c.morbidity, c.representation) != ("Gout", "tfidf_mlp"))
    rebuilt = report_from_raw_rows(raw_rows(replace(report, cells=cells)), "raw.jsonl")
    assert rebuilt.cell("Gout", "tfidf_mlp").skipped == "missing from raw rows"
    assert render_report_csv(rebuilt).splitlines()[2].split(",")[2] == "n/a"
