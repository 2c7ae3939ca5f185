"""Corpus loading, per-morbidity binary dataset construction, synthetic corpora.

The corpus format is JSON-Lines: one note per line, each an object
``{"id": str, "text": str, "labels": {"<Morbidity>": {"textual": "Y|N|U|Q", "intuitive": "Y|N|U|Q"}}}``
with both label kinds optional per morbidity. A note enters a morbidity's
binary dataset when its textual label is Y/N; notes without a usable textual
label fall back to the intuitive label. Y maps to 1, N to 0, anything else is
excluded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from morbench.errors import ConfigError, CorpusError

# Canonical morbidity names, in fixed report order.
MORBIDITIES = (
    "Asthma",
    "CAD",
    "CHF",
    "Depression",
    "Diabetes",
    "Gallstones",
    "GERD",
    "Gout",
    "Hypercholesterolemia",
    "Hypertension",
    "Hypertriglyceridemia",
    "OA",
    "Obesity",
    "OSA",
    "PVD",
    "Venous Insufficiency",
)

LABEL_SYMBOLS = frozenset({"Y", "N", "U", "Q"})


@dataclass(frozen=True)
class LabelPair:
    textual: str | None = None
    intuitive: str | None = None


@dataclass(frozen=True)
class ClinicalNote:
    id: str
    text: str
    labels: dict[str, LabelPair] = field(default_factory=dict)


@dataclass(frozen=True)
class DatasetRecord:
    note_id: str
    text: str
    label: int  # 0 or 1
    source: str  # "textual" or "intuitive"


@dataclass(frozen=True)
class MorbidityDataset:
    morbidity: str
    records: tuple[DatasetRecord, ...]

    @property
    def labels(self) -> list[int]:
        return [r.label for r in self.records]

    @property
    def texts(self) -> list[str]:
        return [r.text for r in self.records]


def _parse_label_pair(raw, morbidity: str, lineno: int) -> LabelPair:
    if not isinstance(raw, dict):
        raise CorpusError(f"line {lineno}: labels for {morbidity!r} must be an object")
    unknown = set(raw) - {"textual", "intuitive"}
    if unknown:
        raise CorpusError(
            f"line {lineno}: unknown label kind {sorted(unknown)} for {morbidity!r}"
        )
    for kind in ("textual", "intuitive"):
        value = raw.get(kind)
        if value is not None and (not isinstance(value, str) or value not in LABEL_SYMBOLS):
            raise CorpusError(
                f"line {lineno}: {kind} label {value!r} for morbidity {morbidity!r} "
                f"is not one of Y, N, U, Q"
            )
    return LabelPair(textual=raw.get("textual"), intuitive=raw.get("intuitive"))


def _parse_note(line: str, lineno: int) -> ClinicalNote:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or deep nesting
        raise CorpusError(f"line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(obj, dict):
        raise CorpusError(f"line {lineno}: expected a JSON object")
    note_id = obj.get("id")
    if not isinstance(note_id, str) or not note_id:
        raise CorpusError(f"line {lineno}: 'id' must be a non-empty string")
    text = obj.get("text")
    if not isinstance(text, str):
        raise CorpusError(f"line {lineno}: 'text' must be a string")
    raw_labels = obj.get("labels", {})
    if not isinstance(raw_labels, dict):
        raise CorpusError(f"line {lineno}: 'labels' must be an object")
    labels = {}
    for morbidity, raw in raw_labels.items():
        if not morbidity:
            raise CorpusError(f"line {lineno}: empty morbidity name")
        labels[morbidity] = _parse_label_pair(raw, morbidity, lineno)
    try:  # JSON can spell an unpaired surrogate, which no UTF-8 file can hold, as \ud800
        "".join([note_id, text, *labels]).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CorpusError(
            f"line {lineno}: an unpaired surrogate escape in 'id', 'text' or a morbidity name"
        ) from exc
    return ClinicalNote(id=note_id, text=text, labels=labels)


def load_corpus(path: str | Path) -> list[ClinicalNote]:
    """Load a JSON-Lines corpus, validating ids and label symbols.

    A file that cannot be read or is not UTF-8 raises CorpusError naming the path.
    """
    notes: list[ClinicalNote] = []
    seen: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                note = _parse_note(line, lineno)
                if note.id in seen:
                    raise CorpusError(
                        f"duplicate note id {note.id!r} on lines {seen[note.id]} and {lineno}"
                    )
                seen[note.id] = lineno
                notes.append(note)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file {path} is not UTF-8 ({exc.reason})") from exc
    return notes


def note_to_json(note: ClinicalNote) -> str:
    labels = {}
    for morbidity, pair in note.labels.items():
        entry = {}
        if pair.textual is not None:
            entry["textual"] = pair.textual
        if pair.intuitive is not None:
            entry["intuitive"] = pair.intuitive
        labels[morbidity] = entry
    obj = {"id": note.id, "text": note.text, "labels": labels}
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def write_corpus(notes: list[ClinicalNote], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(note_to_json(note) + "\n")


def build_binary_dataset(notes: list[ClinicalNote], morbidity: str) -> MorbidityDataset:
    """Build the binary dataset for one morbidity.

    Notes with a textual Y/N label are taken first; of the remainder, notes
    with an intuitive Y/N label are added. The textual label always decides
    when both are present.
    """
    if not morbidity:
        raise ValueError("morbidity name must be non-empty")
    records = []
    for note in notes:
        pair = note.labels.get(morbidity)
        if pair is None:
            continue
        if pair.textual in ("Y", "N"):
            label, source = pair.textual, "textual"
        elif pair.intuitive in ("Y", "N"):
            label, source = pair.intuitive, "intuitive"
        else:
            continue
        records.append(
            DatasetRecord(
                note_id=note.id,
                text=note.text,
                label=1 if label == "Y" else 0,
                source=source,
            )
        )
    return MorbidityDataset(morbidity=morbidity, records=tuple(records))


def merge_partitions(partitions: list[list[ClinicalNote]]) -> list[ClinicalNote]:
    """Concatenate note partitions (e.g. original train and test splits)."""
    seen: dict[str, str] = {}
    merged: list[ClinicalNote] = []
    for p_index, partition in enumerate(partitions):
        for note in partition:
            where = f"partition {p_index}"
            if note.id in seen:
                raise CorpusError(
                    f"duplicate note id {note.id!r} in {seen[note.id]} and {where}"
                )
            seen[note.id] = where
            merged.append(note)
    return merged


# ---------------------------------------------------------------------------
# Synthetic corpora


@dataclass(frozen=True)
class MorbiditySpec:
    positives: int
    negatives: int
    marker: bool = True
    marker_repeats: int = 1  # occurrences of the marker token per positive note


@dataclass(frozen=True)
class SyntheticSpec:
    morbidities: dict[str, MorbiditySpec]
    noise_vocab_size: int = 300
    min_tokens: int = 20
    max_tokens: int = 40


_SPEC_DEFAULTS = {"morbidities": {}, "noise_vocab_size": 300, "min_tokens": 20, "max_tokens": 40}
_MORBIDITY_DEFAULTS = {"positives": 0, "negatives": 0, "marker": True, "marker_repeats": 1}
_SPEC_TYPE_NAMES = {dict: "an object", int: "an integer", bool: "true or false"}


def _spec_values(obj, defaults: dict, where: str) -> dict:
    """obj's settings over the defaults; an unknown key, or a value of another
    type than its default (true is not an integer), raises ConfigError naming it."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key, value in obj.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if type(value) is not type(defaults[key]):
            kind = _SPEC_TYPE_NAMES[type(defaults[key])]
            raise ConfigError(f"{where} key {key!r} must be {kind}, got {value!r}")
    return {**defaults, **obj}


def synthetic_spec_from_dict(obj: dict) -> SyntheticSpec:
    """A SyntheticSpec from its JSON form, checked as strictly as a config file."""
    values = _spec_values(obj, _SPEC_DEFAULTS, "synthetic spec")
    morbidities = {}
    for name, entry in values["morbidities"].items():
        if not name:
            raise ConfigError("empty morbidity name")
        spec = MorbiditySpec(**_spec_values(entry, _MORBIDITY_DEFAULTS, f"spec of {name!r}"))
        if spec.positives < 0 or spec.negatives < 0:
            raise ConfigError(f"negative counts for morbidity {name!r}")
        if spec.marker_repeats < 1:
            raise ConfigError(f"marker_repeats for morbidity {name!r} must be >= 1")
        morbidities[name] = spec
    spec = SyntheticSpec(**{**values, "morbidities": morbidities})
    if spec.noise_vocab_size < 1:
        raise ConfigError("noise_vocab_size must be >= 1")
    if not 1 <= spec.min_tokens <= spec.max_tokens:
        raise ConfigError("need 1 <= min_tokens <= max_tokens")
    return spec


def marker_token(morbidity: str) -> str:
    """The marker word planted in positive notes of a morbidity."""
    slug = "".join(ch for ch in morbidity.lower() if ch.isalnum())
    return f"marker{slug}"


def generate_synthetic_corpus(spec: SyntheticSpec, seed: int) -> list[ClinicalNote]:
    """Generate a deterministic labeled corpus from per-morbidity counts.

    Each note carries a textual Y/N label for exactly one morbidity. With the
    marker flag set, every positive note contains that morbidity's marker
    token and no negative note does; with the flag off, positives and
    negatives are indistinguishable noise.
    """
    rng = random.Random(seed)
    vocab = [f"w{i:04d}" for i in range(spec.noise_vocab_size)]
    notes: list[ClinicalNote] = []

    def make_text(marker: str | None, repeats: int) -> str:
        length = rng.randint(spec.min_tokens, spec.max_tokens)
        tokens = [rng.choice(vocab) for _ in range(length)]
        if marker is not None:
            for _ in range(repeats):
                tokens.insert(rng.randrange(len(tokens) + 1), marker)
        return " ".join(tokens)

    for morbidity, mspec in spec.morbidities.items():
        slug = "".join(ch if ch.isalnum() else "-" for ch in morbidity.lower())
        marker = marker_token(morbidity) if mspec.marker else None
        for i in range(mspec.positives + mspec.negatives):
            positive = i < mspec.positives
            notes.append(
                ClinicalNote(
                    id=f"synth-{slug}-{i:04d}",
                    text=make_text(marker if positive else None, mspec.marker_repeats),
                    labels={morbidity: LabelPair(textual="Y" if positive else "N")},
                )
            )
    return notes
