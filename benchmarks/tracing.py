"""Layer-boundary tracing for the benchmark's traced runs.

Hooks wrap the package's public functions where one module calls into
another, by rebinding the name in each namespace that calls it (for example
``morbench.eval.tfidf_fit`` or ``morbench.models.lstm.bilstm_gradients``).
Nothing under ``src/`` changes. Each call becomes a span (name, start, end,
parent, cell, pid, attributes) kept in memory; the main process writes its
spans at exit and forked pool workers flush theirs after every grid cell, so
per-worker busy time survives the worker's ``os._exit``.

A hook whose target is missing raises at install time, and a span the
workload must produce but never did makes ``layer_metrics`` raise, so a
refactor that moves a function cannot silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from morbench.eval import REPRESENTATIONS


class TraceError(RuntimeError):
    """A hook target is missing or an expected span never fired."""


# (span name, function name, namespaces the call goes through)
HOOKS = (
    ("corpus.load_corpus", "load_corpus", ("morbench.cli", "morbench.corpus")),
    ("corpus.merge_partitions", "merge_partitions", ("morbench.cli", "morbench.corpus")),
    ("corpus.build_binary_dataset", "build_binary_dataset", ("morbench.cli", "morbench.corpus")),
    ("preprocess.tokenize", "tokenize", ("morbench.eval", "morbench.models.predictor", "morbench.preprocess")),
    ("preprocess.build_vocabulary", "build_vocabulary", ("morbench.eval", "morbench.preprocess")),
    ("preprocess.compute_max_len", "compute_max_len", ("morbench.eval", "morbench.preprocess")),
    ("preprocess.encode", "encode", ("morbench.eval", "morbench.models.predictor", "morbench.preprocess")),
    ("preprocess.pad_truncate", "pad_truncate", ("morbench.eval", "morbench.models.predictor", "morbench.preprocess")),
    ("tfidf.fit", "tfidf_fit", ("morbench.eval",)),
    ("tfidf.fit", "fit", ("morbench.tfidf",)),
    ("tfidf.transform", "transform", ("morbench.eval", "morbench.models.predictor", "morbench.tfidf")),
    ("tfidf.normalize_row", "normalize_row", ("morbench.eval", "morbench.models.predictor", "morbench.tfidf")),
    ("models.svm.svm_train", "svm_train", ("morbench.eval", "morbench.models.svm")),
    ("models.svm.svm_decision", "svm_decision", ("morbench.eval", "morbench.models.svm")),
    ("models.mlp.mlp_train", "mlp_train", ("morbench.eval", "morbench.models.mlp")),
    ("models.mlp.mlp_forward", "mlp_forward", ("morbench.eval", "morbench.models.mlp")),
    ("models.rmsprop.rmsprop_step", "rmsprop_step", ("morbench.models.mlp", "morbench.models.lstm")),
    ("models.lstm.bilstm_train", "bilstm_train", ("morbench.eval", "morbench.models.lstm")),
    ("models.lstm.bilstm_gradients", "bilstm_gradients", ("morbench.models.lstm",)),
    ("models.lstm.bilstm_forward", "bilstm_forward", ("morbench.eval", "morbench.models.predictor", "morbench.models.lstm")),
    ("embeddings.load_pretrained", "load_pretrained", ("morbench.eval", "morbench.embeddings")),
    ("embeddings.train_skipgram", "train_skipgram", ("morbench.eval", "morbench.embeddings")),
    ("eval.run_experiment", "run_experiment", ("morbench.cli",)),
    ("eval.run_cell", "run_cell", ("morbench.eval",)),
    ("eval.stratified_kfold", "stratified_kfold", ("morbench.eval",)),
    ("eval.render_report_markdown", "render_report_markdown", ("morbench.cli",)),
    ("eval.render_report_csv", "render_report_csv", ("morbench.cli",)),
    ("eval.raw_rows", "raw_rows", ("morbench.cli",)),
    ("models.predictor.predict", "predict", ("morbench.models.predictor",)),
    ("models.serialize.save_model", "save_model", ("morbench.models.serialize",)),
    ("models.serialize.load_model", "load_model", ("morbench.models.serialize",)),
)


def _pairs(tokens: list, window: int) -> int:
    """Skip-gram (center, context) pairs in one document, as train_skipgram counts them."""
    n = len(tokens)
    if n <= window + 1:
        return n * (n - 1)
    return 2 * (window * (window + 1) // 2 + (n - 1 - window) * window)


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts taken at the span boundary, for ratios computed per layer."""
    if name == "tfidf.fit":
        return {"columns": len(result.columns)}
    if name == "models.svm.svm_train":
        epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 50)
        return {"updates": int(np.shape(args[0])[0]) * int(epochs)}
    if name == "models.rmsprop.rmsprop_step":
        # computed traffic: read grad, read+write square average, read+write param
        return {"bytes": 5 * sum(g.nbytes for g in args[1].values())}
    if name == "models.lstm.bilstm_gradients":
        params, batch = args[0], args[1]
        return {
            "B": int(batch.shape[0]),
            "T": int(batch.shape[1]),
            "D": int(params["embedding"].shape[1]),
            "H": int(params["l1f.U"].shape[0]),
        }
    if name == "embeddings.load_pretrained":
        return {"bytes": os.path.getsize(args[0]), "oov": int(result[1])}
    if name == "embeddings.train_skipgram":
        config = args[2]
        pairs = sum(_pairs(tokens, config.window) for tokens in args[0])
        return {"pairs": pairs * config.epochs}
    if name == "eval.run_cell":
        return {"representation": args[1], "folds": len(result.folds)}
    if name == "models.predictor.predict":
        return {"kind": args[0].kind}
    return None


@dataclass
class Tracer:
    """In-memory span recorder for one process tree (fork inherits it)."""

    spans_dir: Path
    main_pid: int = field(default_factory=os.getpid)
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    cell: str | None = None
    next_id: int = 0
    installed: list = field(default_factory=list)

    def install(self) -> None:
        os.register_at_fork(after_in_child=self._forked)
        for name, func, namespaces in HOOKS:
            for ns in namespaces:
                module = importlib.import_module(ns)
                original = getattr(module, func, None)
                if original is None or not callable(original):
                    raise TraceError(f"hook target {ns}.{func} is missing")
                setattr(module, func, self._wrap(name, original))
                self.installed.append((module, func, original))

    def _forked(self) -> None:
        # a pool worker starts with its parent's buffer and open spans; both
        # belong to the parent, which writes them itself
        self.spans = []
        self.stack = []

    def uninstall(self) -> None:
        for module, func, original in reversed(self.installed):
            setattr(module, func, original)
        self.installed.clear()

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            outer_cell = tracer.cell
            if name == "eval.run_cell":
                tracer.cell = f"{args[0].morbidity}/{args[1]}"
            cell = tracer.cell
            tracer.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.cell = outer_cell
            attrs = _attrs(name, args, kwargs, result)
            tracer.spans.append(
                (span_id, parent, name, start, end, os.getpid(), cell, attrs)
            )
            if name == "eval.run_cell" and os.getpid() != tracer.main_pid:
                tracer.flush()
            return result

        return wrapper

    def flush(self) -> None:
        """Append this process's buffered spans to its own file."""
        if not self.spans:
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans.clear()


def read_spans(spans_dir: Path) -> list[dict]:
    keys = ("id", "parent", "name", "start", "end", "pid", "cell", "attrs")
    out = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            out.extend(dict(zip(keys, json.loads(line))) for line in fh)
    return out


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Span duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child[key] = child.get(key, 0.0) + (s["end"] - s["start"])
    return {
        (s["pid"], s["id"]): (s["end"] - s["start"]) - child.get((s["pid"], s["id"]), 0.0)
        for s in spans
    }


def covered(spans: list[dict], pid: int, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the process's top-level spans."""
    intervals = sorted(
        (max(s["start"], lo), min(s["end"], hi))
        for s in spans
        if s["pid"] == pid and s["parent"] is None
    )
    total, cursor = 0.0, lo
    for a, b in intervals:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


# ---------------------------------------------------------------------------
# per-layer metrics


def _by_name(spans, expected: tuple[str, ...]) -> dict[str, list[dict]]:
    """Spans grouped by name; raises TraceError when a name in `expected` never fired."""
    out: dict[str, list[dict]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    missing = [name for name in expected if name not in out]
    if missing:
        raise TraceError(f"expected spans never fired: {', '.join(missing)}")
    return out


def _dur(group) -> float:
    return float(sum(s["end"] - s["start"] for s in group))


def layer_metrics(spans: list[dict], expected: tuple[str, ...], jobs: int) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one traced run's spans.

    A layer that did no work on this workload reports zero time and count.
    Raises TraceError when a span in `expected` never fired.
    """
    g = _by_name(spans, expected)

    def get(name):
        return g.get(name, [])

    def rate(num: float, seconds: float) -> float:
        return num / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    m["corpus.load_s"] = _dur(get("corpus.load_corpus")) + _dur(get("corpus.merge_partitions"))
    m["corpus.build_s"] = _dur(get("corpus.build_binary_dataset"))

    m["preprocess.tokenize_calls"] = len(get("preprocess.tokenize"))
    m["preprocess.tokenize_s"] = _dur(get("preprocess.tokenize"))
    m["preprocess.vocab_s"] = _dur(get("preprocess.build_vocabulary")) + _dur(
        get("preprocess.compute_max_len")
    )
    m["preprocess.encode_s"] = _dur(get("preprocess.encode")) + _dur(get("preprocess.pad_truncate"))

    fits = get("tfidf.fit")
    m["tfidf.fit_calls"] = len(fits)
    m["tfidf.fit_s"] = _dur(fits)
    m["tfidf.transform_s"] = _dur(get("tfidf.transform")) + _dur(get("tfidf.normalize_row"))
    m["tfidf.columns_mean"] = (
        float(np.mean([s["attrs"]["columns"] for s in fits])) if fits else 0.0
    )

    svm_train = get("models.svm.svm_train")
    m["models.svm.train_s"] = _dur(svm_train)
    m["models.svm.updates_per_s"] = rate(
        sum(s["attrs"]["updates"] for s in svm_train), m["models.svm.train_s"]
    )
    m["models.svm.decision_s"] = _dur(get("models.svm.svm_decision"))

    m["models.mlp.train_s"] = _dur(get("models.mlp.mlp_train"))
    m["models.mlp.forward_s"] = _dur(get("models.mlp.mlp_forward"))

    steps = get("models.rmsprop.rmsprop_step")
    m["models.rmsprop.steps"] = len(steps)
    m["models.rmsprop.step_s"] = _dur(steps)
    m["models.rmsprop.bytes_per_s"] = rate(
        sum(s["attrs"]["bytes"] for s in steps), m["models.rmsprop.step_s"]
    )

    grads = get("models.lstm.bilstm_gradients")
    m["models.lstm.train_s"] = _dur(get("models.lstm.bilstm_train"))
    m["models.lstm.grad_calls"] = len(grads)
    m["models.lstm.grad_ms"] = 1e3 * _dur(grads) / len(grads) if grads else 0.0
    m["models.lstm.forward_s"] = _dur(get("models.lstm.bilstm_forward"))

    loads = get("embeddings.load_pretrained")
    m["embeddings.load_calls"] = len(loads)
    m["embeddings.load_s"] = _dur(loads)
    m["embeddings.parse_mb_per_s"] = rate(
        sum(s["attrs"]["bytes"] for s in loads) / 1e6, m["embeddings.load_s"]
    )
    m["embeddings.oov"] = sum(s["attrs"]["oov"] for s in loads)
    sg = get("embeddings.train_skipgram")
    m["embeddings.skipgram_calls"] = len(sg)
    m["embeddings.skipgram_s"] = _dur(sg)
    m["embeddings.pairs_per_s"] = rate(sum(s["attrs"]["pairs"] for s in sg), m["embeddings.skipgram_s"])

    cells = get("eval.run_cell")
    selfs = self_times(spans)
    m["eval.cells"] = len(cells)
    m["eval.folds"] = sum(s["attrs"]["folds"] for s in cells)
    m["eval.kfold_s"] = _dur(get("eval.stratified_kfold"))
    for rep in REPRESENTATIONS:
        m[f"eval.cell_s.{rep}"] = _dur([s for s in cells if s["attrs"]["representation"] == rep])
    m["eval.cell_self_s"] = float(sum(selfs[(s["pid"], s["id"])] for s in cells))
    experiment = _dur(get("eval.run_experiment"))
    m["eval.worker_busy_frac"] = rate(_dur(cells), jobs * experiment)
    m["eval.render_s"] = (
        _dur(get("eval.render_report_markdown"))
        + _dur(get("eval.render_report_csv"))
        + _dur(get("eval.raw_rows"))
    )
    return m


PREDICT_SPANS = ("models.predictor.predict", "models.serialize.save_model", "models.serialize.load_model")


def predict_metrics(spans: list[dict]) -> dict[str, float]:
    """models.predictor and models.serialize metrics from a traced predict stream.

    A handle kind the workload does not use reports zero. Raises TraceError
    when a span in PREDICT_SPANS never fired.
    """
    g = _by_name(spans, PREDICT_SPANS)
    m: dict[str, float] = {}
    for kind in ("svm", "mlp", "bilstm"):
        times = [1e3 * (s["end"] - s["start"]) for s in g[PREDICT_SPANS[0]] if s["attrs"]["kind"] == kind]
        m[f"models.predictor.predict_ms.{kind}"] = float(np.median(times)) if times else 0.0
    m["models.serialize.save_s"] = _dur(g["models.serialize.save_model"])
    m["models.serialize.load_s"] = _dur(g["models.serialize.load_model"])
    return m
