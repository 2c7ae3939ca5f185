"""The benchmark's hooks and workload configs must fit the package.

benchmarks/tracing.py rebinds named functions in named modules and refuses to
run when one is missing, reads package objects out of the traced calls'
arguments and results, refuses a traced run in which a span its workload
expects never fired, and every benchmark run loads its workload's config
through the package's config checks; this checks all four in seconds, so a
refactor that drops a hook target, stops calling one, renames a parameter key,
changes a return shape or adds a range rule that rejects a workload config
fails here before the benchmark's own smoke test.
"""

import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from morbench.corpus import (
    MorbiditySpec,
    SyntheticSpec,
    build_binary_dataset,
    generate_synthetic_corpus,
)
from morbench.eval import REPRESENTATIONS, config_from_dict, run_experiment
from morbench.models import predictor, serialize
from morbench.models.svm import svm_train
from morbench.preprocess import build_vocabulary, load_stopwords, normalize_text, tokenize
from morbench.tfidf import fit as tfidf_fit

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_hook_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{namespace}.{func}"
        for _, func, namespaces in tracing.HOOKS
        for namespace in namespaces
        if not callable(getattr(importlib.import_module(namespace), func, None))
    ]
    assert missing == []


@pytest.mark.parametrize("scale", ["full", "tiny"])
def test_every_workload_config_is_accepted(monkeypatch, scale):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads").build_workloads(scale)
    for wl in workloads.values():
        # the benchmark fills in the vector paths and, in one traced run, the overrides
        paths = {"embeddings.word2vec_path": "word2vec.txt", "embeddings.glove_path": "glove.txt"}
        for raw in (wl.config, {**wl.config, **paths, **wl.oversub}):
            config = config_from_dict(raw)
            assert config.representations == tuple(wl.config["eval.representations"])


def _write_vectors(path: Path, words, dim: int, header: bool, seed: int) -> None:
    rng = np.random.default_rng(seed)
    lines = [f"{len(words)} {dim}"] if header else []
    lines += [w + " " + " ".join(f"{v:.4f}" for v in rng.standard_normal(dim)) for w in words]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_span_attributes_read_real_package_objects(monkeypatch, tmp_path):
    """Every tracing._attrs branch runs on the arguments and results of real calls."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    spec = SyntheticSpec({"Gout": MorbiditySpec(6, 6)}, min_tokens=8, max_tokens=12)
    dataset = build_binary_dataset(generate_synthetic_corpus(spec, seed=3), "Gout")
    words = build_vocabulary([tokenize(normalize_text(t)) for t in dataset.texts]).words
    dim, hidden1, k = 5, 3, 2
    _write_vectors(tmp_path / "w2v.txt", words[:-2], dim, header=True, seed=1)  # two words OOV
    _write_vectors(tmp_path / "glove.txt", words, dim, header=False, seed=2)
    config = config_from_dict(
        {
            "eval.k": k,
            "eval.representations": list(REPRESENTATIONS),
            "svm.epochs": 2,
            "mlp.hidden_size": 4,
            "mlp.epochs": 2,
            "bilstm.hidden1": hidden1,
            "bilstm.hidden2": 2,
            "bilstm.epochs": 1,
            "bilstm.batch_size": 4,
            "embeddings.dim": dim,
            "skipgram.epochs": 1,
            "skipgram.window": 2,
            "embeddings.word2vec_path": str(tmp_path / "w2v.txt"),
            "embeddings.glove_path": str(tmp_path / "glove.txt"),
        }
    )
    stopwords = load_stopwords()
    token_lists = [predictor.note_tokens(t, stopwords) for t in dataset.texts]
    tfidf = tfidf_fit(token_lists)
    svm = svm_train(predictor.tfidf_matrix(token_lists, tfidf), dataset.labels, epochs=2)

    # a traced run installs at-fork handlers; this in-process run forks nothing
    monkeypatch.setattr(os, "register_at_fork", lambda **_: None)
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        report = run_experiment({"Gout": dataset}, config, master_seed=5, jobs=1)
        handle = predictor.PredictorHandle(
            kind="svm", morbidity="Gout", model=svm, tfidf=tfidf, stopwords=stopwords
        )
        serialize.save_model(handle.model, tmp_path / "svm.model")
        handle.model = serialize.load_model(tmp_path / "svm.model")
        predictor.predict(handle, dataset.texts[0], "Gout")
    finally:
        tracer.uninstall()
    assert [cell.skipped for cell in report.cells] == [None] * len(REPRESENTATIONS)

    keys = ("id", "parent", "name", "start", "end", "pid", "cell", "attrs")
    spans = [dict(zip(keys, span)) for span in tracer.spans]
    attrs = {}
    for span in spans:
        attrs.setdefault(span["name"], []).append(span["attrs"])
    grads = attrs["models.lstm.bilstm_gradients"]
    assert {(a["D"], a["H"]) for a in grads} == {(dim, hidden1)}
    assert max(a["B"] for a in grads) == 4 and min(a["T"] for a in grads) >= 1
    assert sorted(a["representation"] for a in attrs["eval.run_cell"]) == sorted(REPRESENTATIONS)
    assert sorted((a["bytes"], a["oov"]) for a in attrs["embeddings.load_pretrained"]) == sorted(
        [(os.path.getsize(tmp_path / "w2v.txt"), 2), (os.path.getsize(tmp_path / "glove.txt"), 0)]
    )
    assert attrs["models.predictor.predict"] == [{"kind": "svm"}]
    for name, key in (
        ("tfidf.fit", "columns"),
        ("models.svm.svm_train", "updates"),
        ("models.rmsprop.rmsprop_step", "bytes"),
        ("embeddings.train_skipgram", "pairs"),
    ):
        assert all(a[key] > 0 for a in attrs[name]), name

    # every span a workload's traced run must fire, but those only the CLI calls
    cli_only = {
        "corpus.load_corpus",
        "corpus.build_binary_dataset",
        "eval.run_experiment",
        "eval.render_report_markdown",
    }
    for wl in importlib.import_module("workloads").build_workloads("tiny").values():
        assert sorted(set(wl.expected) - cli_only - set(attrs)) == [], wl.name

    metrics = tracing.layer_metrics(spans, tuple(attrs), jobs=1)
    assert metrics["eval.folds"] == k * len(REPRESENTATIONS)
    assert metrics["models.lstm.grad_calls"] == len(grads)
    assert metrics["embeddings.oov"] == 2
    assert tracing.predict_metrics(spans)["models.predictor.predict_ms.svm"] > 0
