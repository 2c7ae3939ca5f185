"""Cross-validated comparison of document representations per morbidity.

For every (morbidity, representation) cell: stratified k-fold split, fit the
representation on the training folds only (unless fit_scope="corpus"), train
the matching classifier, score the held-out fold with binary F1, and average
across folds. All randomness derives from sha256 of the master seed plus the
cell coordinates, so cells are independent and the report bytes do not depend
on execution order or worker count.

REPRESENTATION_TABLE maps each representation to the predictor kind that
featurizes and classifies its notes and, for the BiLSTM variants, to the
source of the embedding table. Each fold's fitted featurizer and trained
model become a PredictorHandle, and the held-out notes are scored through
morbench.models.predictor.predict_batch: the code a saved handle predicts
with is the code cross-validation scored.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from morbench.corpus import MORBIDITIES, MorbidityDataset
from morbench.embeddings import (
    SkipgramConfig,
    load_pretrained,
    random_table,
    restrict_table,
    train_skipgram,
)
from morbench.errors import ConfigError, TrainingDiverged
from morbench.models.lstm import BiLstmConfig, bilstm_train
from morbench.models.mlp import mlp_train
from morbench.models.predictor import (
    PredictorHandle,
    index_matrix,
    note_tokens,
    predict_batch,
    tfidf_matrix,
)
from morbench.models.rmsprop import RmspropConfig
from morbench.models.svm import svm_train
from morbench.preprocess import build_vocabulary, compute_max_len, load_stopwords
from morbench.tfidf import fit as tfidf_fit

# Kept only as targets of the benchmark's layer hooks; the calls go through the predictor.
from morbench.models.lstm import bilstm_forward  # noqa: F401
from morbench.models.mlp import mlp_forward  # noqa: F401
from morbench.models.svm import svm_decision  # noqa: F401
from morbench.preprocess import encode, pad_truncate, tokenize  # noqa: F401
from morbench.tfidf import normalize_row, transform  # noqa: F401


@dataclass(frozen=True)
class Representation:
    kind: str  # the PredictorHandle kind: "svm", "mlp" or "bilstm"
    # BiLSTM embedding table: "random" (trained with the model), "skipgram"
    # (trained on the training notes), or the config field naming a vector file
    embedding: str | None = None


REPRESENTATION_TABLE = {
    "tfidf_svm": Representation("svm"),
    "tfidf_mlp": Representation("mlp"),
    "bilstm_random": Representation("bilstm", "random"),
    "bilstm_pretrained_w2v": Representation("bilstm", "word2vec_path"),
    "bilstm_glove": Representation("bilstm", "glove_path"),
    "bilstm_domain_w2v": Representation("bilstm", "skipgram"),
}
REPRESENTATIONS = tuple(REPRESENTATION_TABLE)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-cell seed: sha256 over the coordinate string, folded to 63 bits."""
    text = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# ---------------------------------------------------------------------------
# metrics


def confusion_counts(y_true, y_pred) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) with class 1 positive."""
    t = np.asarray(y_true, dtype=int)
    p = np.asarray(y_pred, dtype=int)
    if t.shape != p.shape:
        raise ValueError("label/prediction length mismatch")
    tp = int(np.sum((t == 1) & (p == 1)))
    fp = int(np.sum((t == 0) & (p == 1)))
    fn = int(np.sum((t == 1) & (p == 0)))
    tn = int(np.sum((t == 0) & (p == 0)))
    return tp, fp, fn, tn


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_score(y_true, y_pred, weighted: bool = False) -> float:
    """Positive-class F1, or the support-weighted mean of both classes' F1."""
    tp, fp, fn, tn = confusion_counts(y_true, y_pred)
    if not weighted:
        return f1_from_counts(tp, fp, fn)
    n = tp + fp + fn + tn
    if n == 0:
        raise ValueError("cannot score an empty set")
    pos_support = tp + fn
    neg_support = fp + tn
    # class 0 as positive swaps tp<->tn and fp<->fn
    f1_pos = f1_from_counts(tp, fp, fn)
    f1_neg = f1_from_counts(tn, fn, fp)
    return (pos_support * f1_pos + neg_support * f1_neg) / n


# ---------------------------------------------------------------------------
# stratified folds


@dataclass(frozen=True)
class FoldSplit:
    fold: int
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]


def stratified_kfold(labels, k: int, seed: int) -> list[FoldSplit]:
    """Split indices so each class's counts differ by at most one across folds.

    Classes are shuffled independently and dealt round-robin, with the dealing
    position carried from one class to the next so total fold sizes stay
    within one of each other as well.
    """
    y = list(labels)
    n = len(y)
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} records")
    rng = np.random.default_rng(seed)
    test_sets: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in sorted(set(y)):
        members = [i for i, label in enumerate(y) if label == cls]
        members = [members[j] for j in rng.permutation(len(members))]
        for j, idx in enumerate(members):
            test_sets[(offset + j) % k].append(idx)
        offset = (offset + len(members)) % k
    splits = []
    for f in range(k):
        test = tuple(sorted(test_sets[f]))
        in_test = set(test)
        train = tuple(i for i in range(n) if i not in in_test)
        splits.append(FoldSplit(fold=f, train_indices=train, test_indices=test))
    return splits


# ---------------------------------------------------------------------------
# configuration

_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    tuple: "a non-empty list of strings",
}
_COUNT = ("an integer of at least 1", lambda v: v >= 1)  # sizes, epochs, batches, windows
_POSITIVE = ("a finite number above 0", lambda v: 0.0 < v < math.inf)  # rates and lambda


def _setting(key: str, default, rule: str = "", ok=None, kind: type | None = None):
    """A config field: its dotted file key and its range, a predicate ``ok`` that ``rule``
    describes. Its type is its default's, or ``kind`` if that is None (then null is valid)."""
    meta = {"key": key, "kind": kind or type(default), "rule": rule, "ok": ok}
    return field(default=default, metadata=meta)


def _has_type(kind: type, value) -> bool:
    if kind is tuple:
        strings = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
        return strings and len(value) > 0
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; each field declares its config-file key, default
    and range once, and construction checks them all (ConfigError)."""

    k: int = _setting("eval.k", 10, "at least 2", lambda v: v >= 2)
    weighted_f1: bool = _setting("eval.weighted_f1", False)
    # "fold": fit representations on training folds only
    fit_scope: str = _setting(
        "eval.fit_scope", "fold", "'fold' or 'corpus'", lambda v: v in ("fold", "corpus")
    )
    representations: tuple[str, ...] = _setting(
        "eval.representations",
        REPRESENTATIONS,
        f"a list of distinct names, no unknown representation"
        f" (known: {', '.join(REPRESENTATIONS)})",
        lambda v: len(set(v)) == len(v) and set(v) <= set(REPRESENTATIONS),
    )
    # None: every morbidity in the corpus
    morbidities: tuple[str, ...] | None = _setting(
        "eval.morbidities", None, "a list of non-empty names", all, kind=tuple
    )
    svm_lambda: float = _setting("svm.lambda", 1e-4, *_POSITIVE)
    svm_epochs: int = _setting("svm.epochs", 50, *_COUNT)
    mlp_hidden: int = _setting("mlp.hidden_size", 100, *_COUNT)
    mlp_epochs: int = _setting("mlp.epochs", 200, *_COUNT)
    mlp_batch: int = _setting("mlp.batch_size", 32, *_COUNT)
    bilstm_hidden1: int = _setting("bilstm.hidden1", 64, *_COUNT)
    bilstm_hidden2: int = _setting("bilstm.hidden2", 64, *_COUNT)
    bilstm_epochs: int = _setting("bilstm.epochs", 20, *_COUNT)
    bilstm_batch: int = _setting("bilstm.batch_size", 32, *_COUNT)
    embed_dim: int = _setting("embeddings.dim", 300, *_COUNT)
    sg_window: int = _setting("skipgram.window", 5, *_COUNT)
    sg_epochs: int = _setting("skipgram.epochs", 10, *_COUNT)
    sg_negatives: int = _setting("skipgram.negatives", 5, *_COUNT)
    sg_lr: float = _setting("skipgram.learning_rate", 0.025, *_POSITIVE)
    rms_rho: float = _setting("rmsprop.rho", 0.9, "a number in [0, 1)", lambda v: 0 <= v < 1)
    rms_lr: float = _setting("rmsprop.learning_rate", 0.001, *_POSITIVE)
    rms_eps: float = _setting("rmsprop.eps", 1e-7, *_POSITIVE)
    word2vec_path: str | None = _setting("embeddings.word2vec_path", None, kind=str)
    glove_path: str | None = _setting("embeddings.glove_path", None, kind=str)

    def __post_init__(self):
        for f in fields(self):
            key, kind, value = f.metadata["key"], f.metadata["kind"], getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if not _has_type(kind, value):
                raise ConfigError(f"config key {key!r} must be {_TYPE_NAMES[kind]}")
            try:
                value = kind(value)  # file numbers become floats, lists become tuples
                ok = f.metadata["ok"] is None or f.metadata["ok"](value)
            except OverflowError:  # an integer too large for a float
                ok = False
            if not ok:
                raise ConfigError(f"{key} must be {f.metadata['rule']}, got {value!r}")
            object.__setattr__(self, f.name, value)

    def rmsprop(self) -> RmspropConfig:
        return RmspropConfig(rho=self.rms_rho, learning_rate=self.rms_lr, eps=self.rms_eps)

    def skipgram(self, seed: int) -> SkipgramConfig:
        return SkipgramConfig(
            dim=self.embed_dim,
            window=self.sg_window,
            epochs=self.sg_epochs,
            negatives=self.sg_negatives,
            learning_rate=self.sg_lr,
            seed=seed,
        )


# dotted config-file key -> ExperimentConfig field name
_FIELD_OF_KEY = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from the flat {dotted_key: value} form used in files."""
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in raw:
        if key not in _FIELD_OF_KEY:
            raise ConfigError(f"unknown config key {key!r}")
    return ExperimentConfig(**{_FIELD_OF_KEY[key]: value for key, value in raw.items()})


def config_to_dict(config: ExperimentConfig) -> dict:
    """Flatten a config back to the {dotted_key: value} file form."""
    out = {}
    for key, name in _FIELD_OF_KEY.items():
        value = getattr(config, name)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


# ---------------------------------------------------------------------------
# per-cell experiment


@dataclass(frozen=True)
class FoldResult:
    fold: int
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class CellResult:
    morbidity: str
    representation: str
    folds: tuple[FoldResult, ...] = ()
    skipped: str | None = None  # reason the cell produced no score
    seconds: float = 0.0  # wall time; excluded from reports and raw rows

    @property
    def mean_f1(self) -> float | None:
        if self.skipped is not None:
            return None
        return float(np.mean([f.f1 for f in self.folds]))


def _once(memo: dict, key, make):
    """memo[key], built by make() the first time it is asked for."""
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _embedding(
    source: str, vocab, token_lists, train_docs, config: ExperimentConfig, seed: int, memo
):
    """Embedding table for a BiLSTM, and whether training may update it.

    A vector file is parsed once per memo, against the words of every note,
    and each fold copies its own words' rows out of that table.
    """
    if source == "random":
        return random_table(len(vocab), config.embed_dim, seed), True
    if source == "skipgram":
        table, _ = train_skipgram(train_docs, vocab, config.skipgram(seed))
        return table, False

    def load():
        all_vocab = build_vocabulary(token_lists)
        return all_vocab, load_pretrained(getattr(config, source), all_vocab, config.embed_dim)[0]

    all_vocab, all_table = _once(memo, source, load)
    return restrict_table(all_table, all_vocab, vocab), False


def _fit_fold(
    rep: Representation, morbidity: str, token_lists, fold: FoldSplit, labels, config, seed, memo
) -> PredictorHandle | str:
    """Fit the featurizer and train the classifier on one fold's training notes.

    The featurizer is fitted on the training notes, or on every note under
    fit_scope="corpus". Returns the handle that scores the held-out notes, or
    a skip reason when the notes it fits on hold too few tokens to set a
    sequence length or to give TF-IDF a single column. ``memo`` is the pool
    task's (see run_cell); it keeps each TF-IDF model by the notes it was
    fitted on, and each fold's training matrix as int32 coordinates.
    """
    train_docs = [token_lists[i] for i in fold.train_indices]
    fit_docs = token_lists if config.fit_scope == "corpus" else train_docs
    y_train = labels[list(fold.train_indices)]
    if rep.kind == "bilstm":
        vocab = build_vocabulary(fit_docs)
        policy = compute_max_len([len(t) for t in fit_docs])
        if policy.max_len < 1:
            return f"notes too short for a sequence (max_len {policy.max_len})"
        table, trainable = _embedding(
            rep.embedding, vocab, token_lists, train_docs, config, derive_seed(seed, "embed"), memo
        )
        bconfig = BiLstmConfig(
            hidden1=config.bilstm_hidden1,
            hidden2=config.bilstm_hidden2,
            epochs=config.bilstm_epochs,
            batch_size=config.bilstm_batch,
            rmsprop=config.rmsprop(),
            train_embeddings=trainable,
        )
        X = index_matrix(train_docs, vocab, policy)
        model = bilstm_train(X, y_train, table, bconfig, seed=seed)
        return PredictorHandle(
            kind="bilstm", morbidity=morbidity, model=model, vocab=vocab, length_policy=policy
        )
    fitted_on = "corpus" if config.fit_scope == "corpus" else fold.fold
    model_tf = _once(memo, ("tfidf", fitted_on), lambda: tfidf_fit(fit_docs))
    if not model_tf.columns:
        return "notes have no tokens for TF-IDF features (0 columns)"
    key = ("train_matrix", fold.fold)
    if key in memo:
        rows, cols, values = memo[key]
        X = np.zeros((len(train_docs), len(model_tf.columns)))
        X[rows, cols] = values
    else:
        X = tfidf_matrix(train_docs, model_tf)
        rows, cols = np.nonzero(X)
        memo[key] = (rows.astype(np.int32), cols.astype(np.int32), X[rows, cols])
    if rep.kind == "svm":
        model = svm_train(X, y_train, lam=config.svm_lambda, epochs=config.svm_epochs, seed=seed)
    else:
        model = mlp_train(
            X,
            y_train,
            hidden_size=config.mlp_hidden,
            epochs=config.mlp_epochs,
            rmsprop=config.rmsprop(),
            seed=seed,
            batch_size=config.mlp_batch,
        )
    return PredictorHandle(
        kind=rep.kind, morbidity=morbidity, model=model, tfidf=model_tf, stopwords=load_stopwords()
    )


def run_cell(
    dataset: MorbidityDataset,
    representation: str,
    config: ExperimentConfig,
    master_seed: int,
    _memo: dict | None = None,
) -> CellResult:
    """Score one (morbidity, representation) cell; degenerate data or divergence skips it.

    ``_memo`` is internal: _cells_task passes one dict to every cell of a pool
    task, all of one dataset, config and master seed, so that each note is
    tokenized, each vector file parsed and each TF-IDF model fitted once per
    task. The results are the same as with a fresh dict, which run_cell makes
    when it gets none.
    """
    started = time.perf_counter()
    memo = {} if _memo is None else _memo
    rep = REPRESENTATION_TABLE[representation]
    morbidity = dataset.morbidity
    labels = list(dataset.labels)
    n = len(labels)

    def finish(**outcome) -> CellResult:  # folds= or skipped=
        seconds = time.perf_counter() - started
        return CellResult(morbidity, representation, seconds=seconds, **outcome)

    if n < config.k:
        return finish(skipped=f"{n} records < {config.k} folds")
    counts = {c: labels.count(c) for c in (0, 1)}
    if min(counts.values()) < 2:
        reason = f"class counts {counts[1]} positive / {counts[0]} negative; need >= 2 each"
        return finish(skipped=reason)
    if rep.embedding in _FIELD_OF_KEY.values() and getattr(config, rep.embedding) is None:
        return finish(skipped=f"no vector file configured for {representation}")

    stopwords = None if rep.kind == "bilstm" else load_stopwords()
    token_lists = _once(
        memo, ("tokens", stopwords), lambda: [note_tokens(t, stopwords) for t in dataset.texts]
    )

    fold_seed = derive_seed(master_seed, morbidity, "folds")
    folds = stratified_kfold(labels, config.k, fold_seed)
    y = np.asarray(labels, dtype=int)

    results = []
    for fold in folds:
        seed = derive_seed(master_seed, morbidity, representation, fold.fold)
        # a saturating sigmoid overflows exp harmlessly; invalid values still warn
        with np.errstate(over="ignore"):
            try:
                handle = _fit_fold(rep, morbidity, token_lists, fold, y, config, seed, memo)
            except TrainingDiverged as exc:
                return finish(skipped=f"training diverged: {exc}")
            if isinstance(handle, str):
                return finish(skipped=handle)
            y_pred = predict_batch(handle, [token_lists[i] for i in fold.test_indices])
        y_test = y[list(fold.test_indices)]
        tp, fp, fn, tn = confusion_counts(y_test, y_pred)
        f1 = f1_score(y_test, y_pred, weighted=config.weighted_f1)
        results.append(FoldResult(fold=fold.fold, f1=f1, tp=tp, fp=fp, fn=fn, tn=tn))

    return finish(folds=tuple(results))


# ---------------------------------------------------------------------------
# experiment over the full grid


@dataclass(frozen=True)
class ExperimentReport:
    representations: tuple[str, ...]
    morbidities: tuple[str, ...]
    cells: tuple[CellResult, ...]

    def cell(self, morbidity: str, representation: str) -> CellResult:
        for c in self.cells:
            if c.morbidity == morbidity and c.representation == representation:
                return c
        raise KeyError((morbidity, representation))

    def mean_over_morbidities(self, representation: str) -> float | None:
        values = [
            c.mean_f1
            for c in self.cells
            if c.representation == representation and c.mean_f1 is not None
        ]
        if not values:
            return None
        return float(np.mean(values))


def order_morbidities(names) -> tuple[str, ...]:
    """Canonical names in their fixed order first, anything else after, sorted."""
    known = [m for m in MORBIDITIES if m in names]
    extra = sorted(set(names) - set(MORBIDITIES))
    return tuple(known + extra)


def _cells_task(args) -> list[CellResult]:
    """Run one pool task: its representations' cells, in order, sharing one memo."""
    dataset, representations, config, master_seed = args
    memo = {}
    return [run_cell(dataset, rep, config, master_seed, memo) for rep in representations]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _set_blas_threads(n: int) -> int | None:
    """Give numpy's OpenBLAS n threads and return how many it had (None: another BLAS).

    run_experiment runs BLAS on one thread in every process that scores
    cells. Pool workers with BLAS threads of their own oversubscribe the
    cores, and OpenBLAS splits long dot and matrix-vector products by its
    thread count, so without the pin the low bits of a result would depend
    on the host's core count.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas", "openblas"):  # numpy >= 2 wheels; older wheels and system builds
        for suffix in ("64_", ""):
            get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
            if get is not None:
                before = get()
                getattr(lib, f"{name}_set_num_threads{suffix}")(n)
                return before
    return None


def run_experiment(
    datasets: dict[str, MorbidityDataset],
    config: ExperimentConfig,
    master_seed: int,
    jobs: int = 1,
) -> ExperimentReport:
    """Evaluate every configured (morbidity, representation) cell.

    Cells are independent given the master seed, so --jobs N produces the
    same report bytes as a sequential run. Each morbidity's TF-IDF
    representations form one task, which featurizes every fold once for all
    of them (see _fit_fold's ``memo``); each BiLSTM representation forms its
    own. The pool has at most one worker per task and per usable CPU, and
    BLAS runs on one thread throughout (see _set_blas_threads).
    """
    names = config.morbidities if config.morbidities is not None else tuple(datasets)
    for name in names:
        if name not in datasets:
            raise ConfigError(f"morbidity {name!r} has no records in the corpus")
    morbidities = order_morbidities(names)
    tfidf = tuple(r for r in config.representations if REPRESENTATION_TABLE[r].kind != "bilstm")
    groups = ([tfidf] if tfidf else []) + [(r,) for r in config.representations if r not in tfidf]
    coords = [(m, group) for m in morbidities for group in groups]
    tasks = [(datasets[m], group, config, master_seed) for m, group in coords]
    workers = min(jobs, len(tasks), _usable_cpus())
    blas_threads = _set_blas_threads(1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
            ) as pool:
                batches = list(pool.map(_cells_task, tasks, chunksize=1))
        else:
            batches = [_cells_task(t) for t in tasks]
    finally:
        if blas_threads is not None:
            _set_blas_threads(blas_threads)
    by_key = {
        (m, rep): cell for (m, group), batch in zip(coords, batches) for rep, cell in zip(group, batch)
    }
    cells = [by_key[m, rep] for m in morbidities for rep in config.representations]
    return ExperimentReport(
        representations=config.representations, morbidities=morbidities, cells=tuple(cells)
    )


# ---------------------------------------------------------------------------
# rendering


def _format_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}"


def _report_rows(report: ExperimentReport) -> list[list[str]]:
    """The header, one row per morbidity, then Average: the cells of both report tables."""
    reps = report.representations
    rows = [["morbidity", *reps]]
    for m in report.morbidities:
        rows.append([m, *(_format_cell(report.cell(m, rep).mean_f1) for rep in reps)])
    rows.append(["Average", *(_format_cell(report.mean_over_morbidities(rep)) for rep in reps)])
    return rows


def render_report_markdown(report: ExperimentReport) -> str:
    rows = _report_rows(report)
    rows.insert(1, ["---"] * len(rows[0]))
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def render_report_csv(report: ExperimentReport) -> str:
    return "\n".join(",".join(row) for row in _report_rows(report)) + "\n"


def raw_rows(report: ExperimentReport) -> list[str]:
    """One JSON line per fold (or per skipped cell); byte-deterministic.

    report_from_raw_rows reads these lines back.
    """
    lines = []
    for cell in report.cells:
        coords = {"morbidity": cell.morbidity, "representation": cell.representation}
        if cell.skipped is not None:
            rows = [{**coords, "skipped": cell.skipped}]
        else:
            rows = [{**coords, **asdict(fr)} for fr in cell.folds]
        lines.extend(json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows)
    return lines


def _check_fold_result(fold: FoldResult) -> None:
    """Raise ValueError unless the counts are ints and f1 a finite number (bools are neither)."""
    for name in ("fold", "tp", "fp", "fn", "tn"):
        value = getattr(fold, name)
        if type(value) is not int:
            raise ValueError(f"{name} {value!r} is not an integer")
    if type(fold.f1) not in (int, float) or not math.isfinite(fold.f1):
        raise ValueError(f"f1 {fold.f1!r} is not a finite number")


def report_from_raw_rows(lines, where: str) -> ExperimentReport:
    """Rebuild the report that raw_rows wrote, enough to render its tables again.

    Representations appear in the order the rows first name them, which is
    the order run wrote its columns in, and morbidities as order_morbidities
    sorts them; a cell with no row renders as n/a. A row with a missing key,
    a value of the wrong type or an unknown representation raises
    ConfigError; so does a row that repeats a fold, a second skipped row for
    a cell, and a cell with both fold rows and a skipped row. ``where`` names
    the source in it.
    """
    folds: dict[tuple[str, str], list[FoldResult]] = {}
    skipped: dict[tuple[str, str], str] = {}
    reps: dict[str, None] = {}  # in the order the rows name them
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            key = (row["morbidity"], row["representation"])
            if not (isinstance(key[0], str) and key[0]):
                raise ValueError(f"morbidity {key[0]!r} is not a non-empty string")
            if key[1] not in REPRESENTATIONS:
                raise ValueError(f"unknown representation {key[1]!r}")
            reps.setdefault(key[1])
            cell = f"{key[0]}/{key[1]}"
            if key in skipped:
                raise ValueError(f"{cell} already has a skipped row")
            if "skipped" in row:
                if not isinstance(row["skipped"], str):
                    raise ValueError(f"skipped {row['skipped']!r} is not a string")
                if key in folds:
                    raise ValueError(f"{cell} already has fold rows")
                skipped[key] = row["skipped"]
            else:
                fold = FoldResult(**{f.name: row[f.name] for f in fields(FoldResult)})
                _check_fold_result(fold)
                if any(f.fold == fold.fold for f in folds.get(key, ())):
                    raise ValueError(f"{cell} already has fold {fold.fold}")
                folds.setdefault(key, []).append(fold)
        # OverflowError: an f1 integer too large for a float; RecursionError: deep nesting
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ConfigError(f"{where} line {lineno}: bad raw row ({exc})") from exc

    if not reps:
        raise ConfigError(f"{where} holds no result rows")
    morbidities = order_morbidities({m for m, _ in [*folds, *skipped]})
    cells = []
    for m in morbidities:
        for rep in reps:
            key = (m, rep)
            if key in folds:
                ordered = tuple(sorted(folds[key], key=lambda fr: fr.fold))
                cells.append(CellResult(morbidity=m, representation=rep, folds=ordered))
            else:
                reason = skipped.get(key, "missing from raw rows")
                cells.append(CellResult(morbidity=m, representation=rep, skipped=reason))
    return ExperimentReport(tuple(reps), morbidities, tuple(cells))
