"""The benchmark's workloads: why each exists, its sizes, and its inputs.

Every workload generates its inputs from the seed (see inputs.py) and runs
the program as a user would: ``morbench run`` on the generated corpus and,
in the traced run only, single-note ``morbench.models.predictor.predict``
calls on handles built with the public training functions.

Sizes are set so one ``morbench run`` takes a few seconds on a 2-vCPU VM and
a run of ``--seconds 30`` holds at least three of them; ``tiny`` sizes are
for the smoke test only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from morbench.corpus import MORBIDITIES
from morbench.preprocess import build_vocabulary, normalize_text, tokenize

import inputs

NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class PredictSpec:
    """Single-note prediction in the traced run: handles trained on one morbidity
    with the workload's model settings, then called on its held-out notes."""

    kinds: tuple[str, ...]  # handle kinds, called round-robin
    morbidity: str
    train_share: float  # share of the morbidity's records used to train the handles
    embedding: str = "random"  # bilstm handle: "random" or "word2vec" (the generated file)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int  # --jobs of the CLI runs
    config: dict  # flat-key `morbench run` config; vector paths are filled in
    predict: PredictSpec
    sizes: tuple  # generator sizes; part of the input cache key
    build: Callable[[Path, int], None]  # writes corpus.jsonl (and vector files) into a dir
    expected: tuple[str, ...]  # spans a traced run of this workload must contain
    oversub: dict = field(default_factory=dict)  # config overrides for run.oversubscription


# spans every traced cross-validation run produces
_CV_SPANS = (
    "corpus.load_corpus",
    "corpus.build_binary_dataset",
    "preprocess.tokenize",
    "eval.run_experiment",
    "eval.run_cell",
    "eval.stratified_kfold",
    "eval.render_report_markdown",
)
_TFIDF_SPANS = (
    "tfidf.fit",
    "tfidf.transform",
    "models.svm.svm_train",
    "models.svm.svm_decision",
    "models.mlp.mlp_train",
    "models.mlp.mlp_forward",
    "models.rmsprop.rmsprop_step",
)
_LSTM_SPANS = (
    "preprocess.build_vocabulary",
    "preprocess.encode",
    "models.lstm.bilstm_train",
    "models.lstm.bilstm_gradients",
    "models.lstm.bilstm_forward",
    "models.rmsprop.rmsprop_step",
)


def _marker_build(sizes: inputs.MarkerSizes):
    def build(target: Path, seed: int) -> None:
        inputs.write_marker_corpus(target / "corpus.jsonl", seed, sizes)

    return build


def _lexical_build(sizes: inputs.LexicalSizes):
    def build(target: Path, seed: int) -> None:
        inputs.write_jsonl(inputs.lexical_notes(seed, sizes), target / "corpus.jsonl")

    return build


def _vectors_build(sizes: inputs.LexicalSizes, vectors: inputs.VectorSizes):
    def build(target: Path, seed: int) -> None:
        notes = inputs.lexical_notes(seed, sizes)
        inputs.write_jsonl(notes, target / "corpus.jsonl")
        words = build_vocabulary([tokenize(normalize_text(n["text"])) for n in notes]).words
        inputs.write_vector_file(target / "word2vec.txt", words, seed * 2 + 1, vectors, header=True)
        inputs.write_vector_file(target / "glove.txt", words, seed * 2 + 2, vectors, header=False)

    return build


def build_workloads(scale: str = "full") -> dict[str, Workload]:
    tiny = scale == "tiny"
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")

    # marker_seq: criterion 6's corpus and model settings, one condition's cells
    marker = inputs.MarkerSizes(positives=6, negatives=14) if tiny else inputs.MarkerSizes()
    marker_config = {
        "eval.k": 3 if tiny else 10,
        "eval.representations": ["tfidf_svm", "tfidf_mlp", "bilstm_random"],
        "eval.morbidities": [MORBIDITIES[0]],
        "svm.lambda": 1e-2,
        "mlp.epochs": 20 if tiny else 300,
        "bilstm.hidden1": 16,
        "bilstm.hidden2": 16,
        "bilstm.epochs": 2 if tiny else 20,
        "embeddings.dim": 16,
    }

    # lexical_par: long multi-label notes, TF-IDF baselines over a process pool.
    # mlp.hidden_size is cut from 100 to 8: at 100 each pool worker's BLAS
    # threads oversubscribe the cores and, on a 2-vCPU VM, wall time turned
    # bimodal (3.2 s or 7.5-9 s for the same input), which no run length makes
    # steady. The traced run still measures the full width (Workload.oversub).
    lexical = (
        inputs.LexicalSizes(notes=90, vocab=400, min_tokens=40, max_tokens=80)
        if tiny
        else inputs.LexicalSizes(notes=120)
    )
    lexical_config = {
        "eval.k": 3 if tiny else 5,
        "eval.representations": ["tfidf_svm", "tfidf_mlp"],
        "eval.morbidities": list(MORBIDITIES[:2] if tiny else MORBIDITIES[:8]),
        "svm.lambda": 1e-3,
        "svm.epochs": 5,
        "mlp.hidden_size": 8,
        "mlp.epochs": 10,
        "rmsprop.learning_rate": 0.03,
    }

    # vectors_seq: the three pretrained/domain embedding variants with a tiny
    # BiLSTM, so parsing vector files and skip-gram dominate. 200 notes, not
    # 100: with 100, f1_mean's quartile spread over twelve seeds was 0.11;
    # with 200 it was 0.05
    vec_corpus = (
        inputs.LexicalSizes(notes=24, vocab=300, min_tokens=20, max_tokens=40)
        if tiny
        else inputs.LexicalSizes(notes=200, vocab=2000, min_tokens=30, max_tokens=60)
    )
    vectors = inputs.VectorSizes(dim=100, target_mb=2.0 if tiny else 100.0)
    vec_config = {
        "eval.k": 2,
        # one epoch of a tiny BiLSTM mostly predicts the majority class, so
        # positive-class F1 sits near 0 and varies wildly by seed; the
        # support-weighted F1 of both classes is steady
        "eval.weighted_f1": True,
        "eval.representations": ["bilstm_pretrained_w2v", "bilstm_glove", "bilstm_domain_w2v"],
        "eval.morbidities": [MORBIDITIES[1]],
        "bilstm.hidden1": 4,
        "bilstm.hidden2": 4,
        "bilstm.epochs": 1,
        "embeddings.dim": vectors.dim,
        "skipgram.epochs": 1,
        "skipgram.window": 2,
        "skipgram.negatives": 5,
    }

    workloads = [
        Workload(
            name="marker_seq",
            why=(
                "criterion 6's marker corpus at --jobs 1; models.lstm does most of the work, "
                "the plain single-worker baseline"
            ),
            jobs=1,
            config=marker_config,
            predict=PredictSpec(
                kinds=("svm", "mlp", "bilstm"),
                morbidity=MORBIDITIES[0],
                train_share=0.7,
            ),
            sizes=(marker,),
            build=_marker_build(marker),
            expected=_CV_SPANS + _TFIDF_SPANS + _LSTM_SPANS,
        ),
        Workload(
            name="lexical_par",
            why=(
                "long multi-label notes over a Zipfian lexicon at --jobs nproc; preprocess, "
                "tfidf, svm, mlp and the eval process pool"
            ),
            jobs=NPROC,
            config=lexical_config,
            predict=PredictSpec(
                kinds=("svm", "mlp"),
                morbidity=MORBIDITIES[0],
                train_share=0.7,
            ),
            sizes=(lexical,),
            build=_lexical_build(lexical),
            expected=_CV_SPANS + _TFIDF_SPANS,
            oversub={"mlp.hidden_size": 100, "eval.morbidities": lexical_config["eval.morbidities"][:2]},
        ),
        Workload(
            name="vectors_seq",
            why=(
                "word2vec and GloVe text files of about 100 MB plus skip-gram with a tiny "
                "BiLSTM; the only workload where embeddings does the work"
            ),
            jobs=1,
            config=vec_config,
            predict=PredictSpec(
                kinds=("bilstm",),
                morbidity=MORBIDITIES[1],
                train_share=0.7,
                embedding="word2vec",
            ),
            sizes=(vec_corpus, vectors),
            build=_vectors_build(vec_corpus, vectors),
            expected=_CV_SPANS
            + _LSTM_SPANS
            + ("embeddings.load_pretrained", "embeddings.train_skipgram"),
        ),
    ]
    return {w.name: w for w in workloads}
