"""Child processes of the benchmark: set-up, single-note prediction, traced runs.

run.py starts each of these in a fresh interpreter, with ``src`` and this
directory on PYTHONPATH, so imports and set-up are paid as a user pays them:

    child.py setup        time set-up, then optionally predict held-out notes
    child.py trace-cli    run ``morbench`` CLI arguments with layer tracing on
    child.py paper-grad   time bilstm_gradients at the paper's default shape

Every command writes its result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from morbench import corpus as corpus_mod
from morbench import embeddings, preprocess, tfidf
from morbench.eval import config_from_dict
from morbench.models import lstm, mlp, predictor, serialize, svm

from workloads import build_workloads


def _dense(rows, width: int) -> np.ndarray:
    X = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        for col, weight in row:
            X[r, col] = weight
    return X


def same_model(a, b) -> bool:
    """Bit-exact equality of two models' arrays (the save/load round-trip check)."""
    if isinstance(a, svm.SvmModel):
        return a.bias == b.bias and np.array_equal(a.weights, b.weights)
    return a.params.keys() == b.params.keys() and all(
        np.array_equal(a.params[k], b.params[k]) for k in a.params
    )


class Handles:
    """Predictor handles for one morbidity, trained with the public API, plus held-out notes."""

    def __init__(self, dataset, wl, inputs_dir: Path, seed: int, model_dir: Path):
        spec = wl.predict
        cfg = config_from_dict(wl.config)
        records = list(dataset.records)
        order = np.random.default_rng([seed, 3]).permutation(len(records))
        n_train = int(round(spec.train_share * len(records)))
        train = [records[i] for i in order[:n_train]]
        self.held = [records[i] for i in order[n_train:]]
        self.morbidity = spec.morbidity
        self.round_trip_failures = 0
        y = np.array([r.label for r in train])
        tokens = [preprocess.tokenize(preprocess.normalize_text(r.text)) for r in train]
        self.handles = []
        for kind in spec.kinds:
            extra = {}
            if kind in ("svm", "mlp"):
                stop = frozenset(preprocess.load_stopwords())
                tf_tokens = [preprocess.filter_for_tfidf(t, stop) for t in tokens]
                model_tf = tfidf.fit(tf_tokens)
                X = _dense(
                    [tfidf.normalize_row(tfidf.transform(t, model_tf)) for t in tf_tokens],
                    len(model_tf.columns),
                )
                if kind == "svm":
                    model = svm.svm_train(X, y, lam=cfg.svm_lambda, epochs=cfg.svm_epochs, seed=seed)
                else:
                    model = mlp.mlp_train(
                        X,
                        y,
                        hidden_size=cfg.mlp_hidden,
                        epochs=cfg.mlp_epochs,
                        rmsprop=cfg.rmsprop(),
                        seed=seed,
                        batch_size=cfg.mlp_batch,
                    )
                extra = {"tfidf": model_tf, "stopwords": stop}
            else:
                vocab = preprocess.build_vocabulary(tokens)
                policy = preprocess.compute_max_len([len(t) for t in tokens])
                idx = np.array(
                    [preprocess.pad_truncate(preprocess.encode(t, vocab), policy).indices for t in tokens]
                )
                if spec.embedding == "random":
                    table = embeddings.random_table(len(vocab), cfg.embed_dim, seed)
                else:
                    table, _ = embeddings.load_pretrained(
                        inputs_dir / "word2vec.txt", vocab, cfg.embed_dim
                    )
                bconfig = lstm.BiLstmConfig(
                    hidden1=cfg.bilstm_hidden1,
                    hidden2=cfg.bilstm_hidden2,
                    epochs=cfg.bilstm_epochs,
                    batch_size=cfg.bilstm_batch,
                    rmsprop=cfg.rmsprop(),
                    train_embeddings=spec.embedding == "random",
                )
                model = lstm.bilstm_train(idx, y, table, bconfig, seed=seed)
                extra = {"vocab": vocab, "length_policy": policy}
            path = model_dir / f"{kind}.model"
            serialize.save_model(model, path)
            loaded = serialize.load_model(path)
            if not same_model(model, loaded):
                self.round_trip_failures += 1
            self.handles.append(
                predictor.PredictorHandle(kind=kind, morbidity=spec.morbidity, model=loaded, **extra)
            )

    def reference(self) -> dict[str, list[int]]:
        """Batch predictions of the same models on every held-out note."""
        texts = [r.text for r in self.held]
        out = {}
        for h in self.handles:
            if h.kind in ("svm", "mlp"):
                toks = [
                    preprocess.filter_for_tfidf(
                        preprocess.tokenize(preprocess.normalize_text(t)), h.stopwords
                    )
                    for t in texts
                ]
                X = _dense(
                    [tfidf.normalize_row(tfidf.transform(t, h.tfidf)) for t in toks],
                    len(h.tfidf.columns),
                )
                if h.kind == "svm":
                    out[h.kind] = [int(svm.svm_decision(h.model, row) >= 0.0) for row in X]
                else:
                    out[h.kind] = [int(p >= 0.5) for p in mlp.mlp_forward(h.model.params, X)]
            else:
                idx = np.array(
                    [
                        preprocess.pad_truncate(
                            preprocess.encode(
                                preprocess.tokenize(preprocess.normalize_text(t)), h.vocab
                            ),
                            h.length_policy,
                        ).indices
                        for t in texts
                    ]
                )
                out[h.kind] = [int(p >= 0.5) for p in lstm.bilstm_forward(idx, h.model)]
        return out


def cmd_setup(args) -> int:
    """Set-up as timed by the parent (spawn to `setup_end`), then optional prediction.

    --passes N: train the workload's predictor handles, save and reload them,
    then predict every held-out note with every handle, one note per call, N
    times over; each prediction is checked against the batch reference.
    """
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(Path(args.trace))
        tracer.install()
    wl = build_workloads(args.scale)[args.workload]
    inputs_dir = Path(args.inputs)
    spec = wl.predict
    morbidities = wl.config.get("eval.morbidities", [spec.morbidity])
    notes = corpus_mod.merge_partitions([corpus_mod.load_corpus(inputs_dir / "corpus.jsonl")])
    datasets = {m: corpus_mod.build_binary_dataset(notes, m) for m in morbidities}
    result = {"setup_end": time.perf_counter(), "attempted": 0, "failed": 0}
    if args.passes:
        handles = Handles(datasets[spec.morbidity], wl, inputs_dir, args.seed, Path(args.out).parent)
        seen = [
            (i, h.kind, predictor.predict(h, note.text, handles.morbidity))
            for _ in range(args.passes)
            for i, note in enumerate(handles.held)
            for h in handles.handles
        ]
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()
        result.update(
            attempted=len(seen) + len(handles.handles),
            failed=mismatches(seen, handles.reference()) + handles.round_trip_failures,
            held_out=len(handles.held),
        )
    Path(args.out).write_text(json.dumps(result))
    return 0


def mismatches(seen: list[tuple[int, str, int]], reference: dict[str, list[int]]) -> int:
    """Single-note predictions (note, kind, label) that differ from the batch reference."""
    return sum(1 for i, kind, label in seen if reference[kind][i] != label)


def cmd_trace_cli(args) -> int:
    from tracing import Tracer

    tracer = Tracer(Path(args.trace))
    tracer.install()
    from morbench import cli

    start = time.perf_counter()
    rc = cli.main(args.argv)
    end = time.perf_counter()
    tracer.flush()
    Path(args.trace, "window.json").write_text(
        json.dumps({"start": start, "end": end, "pid": tracer.main_pid})
    )
    Path(args.out).write_text(json.dumps({"rc": rc}))
    return rc


def cmd_paper_grad(args) -> int:
    """Median of three bilstm_gradients calls at B=32, T=300, D=300, H=64."""
    B, T, D, H, V = 32, 300, 300, 64, 2000
    rng = np.random.default_rng(0)
    table = embeddings.random_table(V, D, seed=0)
    params = lstm.init_params(table.rows, H, H, seed=0)
    batch = rng.integers(1, V + 1, size=(B, T))
    y = rng.integers(0, 2, size=B).astype(float)
    lstm.bilstm_gradients(params, batch[:, :8], y, False)  # first-call warm-up
    times = []
    for _ in range(3):
        start = time.perf_counter()
        lstm.bilstm_gradients(params, batch, y, False)
        times.append(1e3 * (time.perf_counter() - start))
    Path(args.out).write_text(json.dumps({"grad_ms": float(np.median(times))}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--scale", default="full")
    p.add_argument("--inputs", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=0, help="single-note prediction passes; 0: none")
    p.add_argument("--trace", default=None, help="span directory; tracing on when given")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("trace-cli")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_trace_cli)
    p = sub.add_parser("paper-grad")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_paper_grad)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
