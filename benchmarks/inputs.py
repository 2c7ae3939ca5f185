"""Deterministic input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain files that the
program reads as a user's inputs would be read: JSON-lines corpora and text
vector files. Outputs are cached per (workload, seed, sizes) under the work
directory and are built outside any timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from morbench.corpus import (
    MORBIDITIES,
    MorbiditySpec,
    SyntheticSpec,
    generate_synthetic_corpus,
    write_corpus,
)

# Generated vector files run to hundreds of MB per seed; keep only the most
# recently used input sets.
CACHE_KEEP = 3


def _letters(i: int, width: int) -> str:
    """Base-26 letter code of i, `width` letters wide (alphabetic, no digits)."""
    out = []
    for _ in range(width):
        i, r = divmod(i, 26)
        out.append(chr(ord("a") + r))
    return "".join(reversed(out))


def vocabulary_word(rank: int) -> str:
    """The rank-th word of the Zipfian lexicon: 'w' + four letters."""
    return "w" + _letters(rank, 4)


def cue_word(morbidity: int, j: int) -> str:
    """Weak cue word j of a morbidity: 'q' + two letters + one letter."""
    return "q" + _letters(morbidity, 2) + _letters(j, 1)


# ---------------------------------------------------------------------------
# marker corpus: the public synthetic generator with criterion 6's spec


@dataclass(frozen=True)
class MarkerSizes:
    positives: int = 30
    negatives: int = 70
    marker_repeats: int = 3
    noise_vocab_size: int = 25
    min_tokens: int = 15
    max_tokens: int = 30


def write_marker_corpus(path: Path, seed: int, sizes: MarkerSizes) -> None:
    spec = SyntheticSpec(
        morbidities={
            m: MorbiditySpec(
                positives=sizes.positives,
                negatives=sizes.negatives,
                marker_repeats=sizes.marker_repeats,
            )
            for m in MORBIDITIES
        },
        noise_vocab_size=sizes.noise_vocab_size,
        min_tokens=sizes.min_tokens,
        max_tokens=sizes.max_tokens,
    )
    write_corpus(generate_synthetic_corpus(spec, seed), path)


# ---------------------------------------------------------------------------
# lexical corpus: long multi-label notes over a Zipfian lexicon


@dataclass(frozen=True)
class LexicalSizes:
    notes: int = 160
    vocab: int = 4000
    zipf_s: float = 1.1
    min_tokens: int = 150
    max_tokens: int = 300
    cues_per_morbidity: int = 6
    cue_p_positive: float = 0.60  # chance a given cue word appears in a positive note
    cue_p_other: float = 0.06  # ... and in any other note
    cue_repeats: int = 3  # occurrences of a present cue word in a positive note


# Per morbidity, the textual symbols are exact shares of the notes, so dataset
# sizes and class balance do not move with the seed. Half of the U/Q notes fall
# back to an intuitive label (40% of them Y), so both label sources and the
# exclusion path are used.
_TEXTUAL_SHARES = (("Y", 0.30), ("N", 0.50), ("U", 0.12), ("Q", 0.08))
_INTUITIVE_SHARES = (("Y", 0.4), ("N", 0.6))


def _exact(n: int, shares) -> list[str]:
    """n symbols in the given shares, rounded by largest remainder."""
    raw = [n * share for _, share in shares]
    counts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return [sym for (sym, _), c in zip(shares, counts) for _ in range(c)]


def lexical_labels(seed: int, notes: int) -> list[dict[str, dict[str, str]]]:
    """Per-note label objects; drawn from their own stream so label counts
    can be recomputed without generating any text."""
    rng = np.random.default_rng([seed, 1])
    pool = _exact(notes, _TEXTUAL_SHARES)
    out: list[dict[str, dict[str, str]]] = [{} for _ in range(notes)]
    for name in MORBIDITIES:
        textual = [pool[i] for i in rng.permutation(notes)]
        unsure = [n for n in range(notes) if textual[n] in ("U", "Q")]
        fallback = [unsure[i] for i in rng.permutation(len(unsure))[: len(unsure) // 2]]
        intuitive = dict(zip(fallback, _exact(len(fallback), _INTUITIVE_SHARES)))
        for n in range(notes):
            entry = {"textual": textual[n]}
            if n in intuitive:
                entry["intuitive"] = intuitive[n]
            out[n][name] = entry
    return out


def effective_label(entry: dict[str, str]) -> str | None:
    for kind in ("textual", "intuitive"):
        if entry.get(kind) in ("Y", "N"):
            return entry[kind]
    return None


def lexical_notes(seed: int, sizes: LexicalSizes) -> list[dict]:
    labels = lexical_labels(seed, sizes.notes)
    rng = np.random.default_rng([seed, 2])
    ranks = np.arange(1, sizes.vocab + 1, dtype=float)
    p = ranks**-sizes.zipf_s
    p /= p.sum()
    words = np.array([vocabulary_word(r) for r in range(sizes.vocab)])
    # evenly spread lengths, shuffled: the corpus's token count is the same for every seed
    lengths = rng.permutation(
        np.linspace(sizes.min_tokens, sizes.max_tokens, sizes.notes).round().astype(int)
    )
    notes = []
    for n, length in enumerate(lengths):
        tokens = list(words[rng.choice(sizes.vocab, size=length, p=p)])
        for m, name in enumerate(MORBIDITIES):
            positive = effective_label(labels[n][name]) == "Y"
            chance = sizes.cue_p_positive if positive else sizes.cue_p_other
            hits = rng.random(sizes.cues_per_morbidity) < chance
            for j in np.flatnonzero(hits):
                for _ in range(sizes.cue_repeats if positive else 1):
                    tokens.insert(int(rng.integers(0, len(tokens) + 1)), cue_word(m, int(j)))
        notes.append({"id": f"lex-{n:05d}", "text": " ".join(tokens), "labels": labels[n]})
    return notes


def write_jsonl(rows: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# vector files: word2vec text layout (with header) and GloVe (headerless)


@dataclass(frozen=True)
class VectorSizes:
    dim: int = 100
    target_mb: float = 100.0
    coverage: float = 0.9  # share of the corpus vocabulary present in each file


def _field_table() -> np.ndarray:
    """Every vector component the files use, as a fixed 9-byte text field.

    Components are k/32768 for k in [-32768, 32767], written with six
    significant characters ('-0.12345 ', '0.123456 ')."""
    fields = []
    for k in range(-32768, 32768):
        v = k / 32768
        text = f"{v:.5f}" if k < 0 else f"{v:.6f}"
        fields.append(text.encode() + b" ")
    return np.frombuffer(b"".join(fields), dtype=np.uint8).reshape(-1, 9)


def write_vector_file(
    path: Path, corpus_words: list[str], seed: int, sizes: VectorSizes, header: bool
) -> int:
    """Write a text vector file of about `target_mb`; returns its size in bytes."""
    rng = np.random.default_rng(seed)
    known = [w for w in corpus_words if rng.random() < sizes.coverage]
    line_bytes = 9 * sizes.dim + 8
    rows = max(len(known), int(sizes.target_mb * 1e6 / line_bytes))
    # filler words ('v' + six letters) can never collide with corpus words
    words = known + ["v" + _letters(i, 6) for i in range(rows - len(known))]
    order = rng.permutation(rows)
    table = _field_table()
    chunk = 4096
    with path.open("wb") as fh:
        if header:
            fh.write(f"{rows} {sizes.dim}\n".encode())
        for start in range(0, rows, chunk):
            idx = order[start : start + chunk]
            block = table[rng.integers(0, len(table), size=(len(idx), sizes.dim))]
            block[:, -1, 8] = ord("\n")
            flat = block.reshape(len(idx), -1)
            fh.write(
                b"".join(words[i].encode() + b" " + flat[r].tobytes() for r, i in enumerate(idx))
            )
    return path.stat().st_size


# ---------------------------------------------------------------------------
# cache


def cache_dir(work: Path, workload: str, seed: int, sizes: tuple) -> Path:
    """Directory for one input set; (re)built by `build` when not complete."""
    key = json.dumps(
        {"workload": workload, "seed": seed, "sizes": [asdict(s) for s in sizes]}, sort_keys=True
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return work / "inputs" / f"{workload}-{seed}-{digest}"


def cached(work: Path, workload: str, seed: int, sizes: tuple, build) -> Path:
    """Return the cached input directory, calling build(dir) on a miss."""
    target = cache_dir(work, workload, seed, sizes)
    done = target / ".complete"
    if done.exists():
        os.utime(done)
        return target
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    build(target)
    done.write_text("ok\n")
    _evict(target.parent)
    return target


def _evict(root: Path) -> None:
    sets = sorted(
        (d for d in root.iterdir() if (d / ".complete").exists()),
        key=lambda d: (d / ".complete").stat().st_mtime,
        reverse=True,
    )
    for old in sets[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
