"""Command line entry points.

Subcommands:
    synth             generate a labeled synthetic corpus from a spec file
    prepare           split a corpus into per-morbidity binary datasets
    train-embeddings  train skip-gram vectors on a corpus and save them
    run               run the full cross-validated comparison
    report            re-render report tables from a raw.jsonl file

Relative --out paths resolve against $MORBENCH_DATA_DIR when it is set.
Exit codes: 0 success, 1 internal error, 2 bad input, configuration or output path.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from morbench import __version__
from morbench.corpus import (
    MORBIDITIES,
    build_binary_dataset,
    generate_synthetic_corpus,
    load_corpus,
    merge_partitions,
    synthetic_spec_from_dict,
    write_corpus,
)
from morbench.embeddings import save_vectors, train_skipgram
from morbench.errors import ConfigError, CorpusError, MorbenchError
from morbench.eval import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    order_morbidities,
    raw_rows,
    render_report_csv,
    render_report_markdown,
    report_from_raw_rows,
    run_experiment,
)
from morbench.files import replace_atomically
from morbench.preprocess import build_vocabulary, normalize_text, tokenize


def _resolve_out(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else Path(os.environ.get("MORBENCH_DATA_DIR", ".")) / p


def _make_dir(path: Path) -> Path:
    """path, created with its parents; one that cannot be made raises ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path} ({exc.strerror})") from exc
    return path


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 input file; one that cannot be read raises ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 ({exc.reason})") from exc


def _read_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _replace(path: Path, write) -> None:
    """Replace path atomically through write(tmp); an OSError becomes a ConfigError naming path."""
    try:
        replace_atomically(path, write)
    except OSError as exc:
        raise ConfigError(f"cannot write {path} ({exc.strerror or exc})") from exc


def _write_files(pairs: list[tuple[Path, str]]) -> None:
    """Write all files, or none: partially written sets are removed on error."""
    written: list[Path] = []
    try:
        for path, text in pairs:
            _replace(path, lambda tmp, text=text: tmp.write_text(text, encoding="utf-8"))
            written.append(path)
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _load_notes(paths: list[str]):
    return merge_partitions([load_corpus(p) for p in paths])


def _load_config(path: str | None) -> ExperimentConfig:
    return ExperimentConfig() if path is None else config_from_dict(_read_json(path, "config file"))


def _environment() -> dict:
    """What the run's speed depends on: cores, numpy and BLAS, thread settings, pool start."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "start_method": multiprocessing.get_start_method(),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = synthetic_spec_from_dict(_read_json(args.spec, "spec file"))
    notes = generate_synthetic_corpus(spec, args.seed)
    out = _resolve_out(args.out)
    _make_dir(out.parent)
    _replace(out, lambda tmp: write_corpus(notes, tmp))
    print(f"wrote {len(notes)} notes for {len(spec.morbidities)} morbidities to {out}")
    return 0


def cmd_prepare(args) -> int:
    notes = _load_notes(args.corpus)
    labeled = Counter(m for note in notes for m in note.labels)
    morbidities = order_morbidities(set(MORBIDITIES) | set(labeled))
    by_slug: dict[str, str] = {}
    for m in morbidities:
        slug = _slug(m)
        other = by_slug.setdefault(slug, m)
        if other != m:
            raise CorpusError(f"morbidities {other!r} and {m!r} would share dataset_{slug}.jsonl")
    outdir = _make_dir(_resolve_out(args.out))

    pairs: list[tuple[Path, str]] = []
    rows = []  # (morbidity, total, positive, negative, excluded)
    for m in morbidities:
        dataset = build_binary_dataset(notes, m)
        lines = [json.dumps(asdict(r), sort_keys=True, ensure_ascii=False) for r in dataset.records]
        body = "\n".join(lines) + ("\n" if lines else "")
        pairs.append((outdir / f"dataset_{_slug(m)}.jsonl", body))
        total, positive = len(dataset.records), sum(dataset.labels)
        rows.append((m, total, positive, total - positive, labeled[m] - total))
    csv_lines = ["morbidity,total,positive,negative,excluded"]
    csv_lines += [",".join(map(str, row)) for row in rows]
    pairs.append((outdir / "summary.csv", "\n".join(csv_lines) + "\n"))
    _write_files(pairs)

    width = max(len(m) for m in morbidities)
    print(f"{'morbidity'.ljust(width)}  total  positive  negative  excluded")
    for m, total, positive, negative, excluded in rows:
        print(f"{m.ljust(width)}  {total:5d}  {positive:8d}  {negative:8d}  {excluded:8d}")
    print(f"wrote {len(morbidities)} dataset files and summary.csv to {outdir}")
    return 0


def cmd_train_embeddings(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    token_lists = [tokenize(normalize_text(note.text)) for note in _load_notes(args.corpus)]
    vocab = build_vocabulary(token_lists)
    if not vocab:
        raise CorpusError(
            f"corpus {', '.join(args.corpus)} holds no notes or no tokens to train embeddings on"
        )
    config = _load_config(args.config)
    sg = config.skipgram(args.seed)
    table, losses = train_skipgram(token_lists, vocab, sg)
    out = _resolve_out(args.out)
    _make_dir(out.parent)
    _replace(out, lambda tmp: save_vectors(table, vocab, tmp))
    final = f"{losses[-1]:.6f}" if losses else "n/a"
    print(
        f"trained {len(vocab)} x {sg.dim} vectors over {sg.epochs} epochs"
        f" (final mean pair loss {final}); wrote {out}"
    )
    return 0


def cmd_run(args) -> int:
    if args.print_default_config:
        print(json.dumps(config_to_dict(ExperimentConfig()), indent=2, sort_keys=True))
        return 0
    if not args.corpus:
        raise ConfigError("a corpus file is required (or use --print-default-config)")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config = _load_config(args.config)
    notes = _load_notes(args.corpus)
    names = (
        config.morbidities
        if config.morbidities is not None
        else tuple(sorted({m for note in notes for m in note.labels}))
    )
    if not names:
        raise ConfigError("the corpus has no morbidity labels to evaluate")
    datasets = {m: build_binary_dataset(notes, m) for m in names}
    report = run_experiment(datasets, config, args.seed, jobs=args.jobs)

    outdir = _make_dir(_resolve_out(args.out))
    markdown = render_report_markdown(report)
    manifest = {
        "version": __version__,
        "seed": args.seed,
        "jobs": args.jobs,
        "corpus": list(args.corpus),
        "notes": len(notes),
        "config": config_to_dict(config),
        "environment": _environment(),
        "cells": [
            {
                "morbidity": c.morbidity,
                "representation": c.representation,
                "mean_f1": c.mean_f1,
                "skipped": c.skipped,
                "seconds": round(c.seconds, 6),
            }
            for c in report.cells
        ],
    }
    _write_files(
        [
            (outdir / "report.md", markdown),
            (outdir / "report.csv", render_report_csv(report)),
            (outdir / "raw.jsonl", "\n".join(raw_rows(report)) + "\n"),
            (outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"),
        ]
    )
    print(markdown, end="")
    print(f"wrote report.md, report.csv, raw.jsonl, manifest.json to {outdir}")
    return 0


def cmd_report(args) -> int:
    report = report_from_raw_rows(_read_text(args.raw, "raw file").splitlines(), args.raw)
    markdown = render_report_markdown(report)
    outdir = _make_dir(_resolve_out(args.out))
    _write_files(
        [
            (outdir / "report.md", markdown),
            (outdir / "report.csv", render_report_csv(report)),
        ]
    )
    print(markdown, end="")
    print(f"wrote report.md and report.csv to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morbench",
        description="Per-morbidity text classification benchmarks on clinical-style notes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--spec", required=True, help="JSON spec with per-morbidity counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output corpus (JSON lines)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="build per-morbidity binary datasets")
    p.add_argument("corpus", nargs="+", help="corpus files (JSON lines); partitions are merged")
    p.add_argument("--out", default="prepared", help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-embeddings", help="train skip-gram vectors on a corpus")
    p.add_argument("corpus", nargs="+", help="corpus files (JSON lines)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output vector file")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("run", help="run the cross-validated comparison")
    p.add_argument("corpus", nargs="*", help="corpus files (JSON lines)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers over grid cells")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the default config as JSON and exit",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="re-render tables from a raw.jsonl file")
    p.add_argument("raw", help="raw.jsonl produced by run")
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MorbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and use the internal-error code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
