"""Corpus loading, label selection rules, and the synthetic generator."""

import json

import pytest

from morbench.corpus import (
    MORBIDITIES,
    ClinicalNote,
    LabelPair,
    MorbiditySpec,
    SyntheticSpec,
    build_binary_dataset,
    generate_synthetic_corpus,
    load_corpus,
    marker_token,
    merge_partitions,
    note_to_json,
    synthetic_spec_from_dict,
    write_corpus,
)
from morbench.errors import ConfigError, CorpusError


def test_canonical_morbidity_list():
    assert len(MORBIDITIES) == 16
    assert MORBIDITIES[0] == "Asthma"
    assert MORBIDITIES[-1] == "Venous Insufficiency"
    # fixed presentation order, not alphabetical by accident of data
    assert MORBIDITIES.index("Depression") == 3
    assert MORBIDITIES.index("Obesity") == 12


def _note(id, text="some text", **labels):
    pairs = {m: LabelPair(**v) for m, v in labels.items()}
    return ClinicalNote(id=id, text=text, labels=pairs)


def test_round_trip(tmp_path):
    notes = [
        _note("a", "patient is well", Asthma={"textual": "Y"}),
        _note("b", "unicode tëxt", Asthma={"textual": "N", "intuitive": "Q"}),
        _note("c", "no labels at all"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(notes, path)
    assert load_corpus(path) == notes


@pytest.mark.parametrize(
    "pair, written",
    [
        ('{"textual": "Y"}', '{"textual": "Y"}'),
        ('{"intuitive": "Q"}', '{"intuitive": "Q"}'),
        ('{"textual": null, "intuitive": "N"}', '{"intuitive": "N"}'),
        ('{"intuitive": null}', "{}"),
        ("{}", "{}"),
    ],
    ids=["only-textual", "only-intuitive", "explicit-null", "only-null", "empty"],
)
def test_loaded_label_pairs_round_trip(tmp_path, pair, written):
    path = tmp_path / "c.jsonl"
    path.write_text(f'{{"id": "x", "text": "t", "labels": {{"Gout": {pair}}}}}\n')
    notes = load_corpus(path)
    line = note_to_json(notes[0])
    assert line == f'{{"id": "x", "labels": {{"Gout": {written}}}, "text": "t"}}'
    write_corpus(notes, path)
    assert load_corpus(path) == notes


@pytest.mark.parametrize(
    "line, message",
    [
        ("{not json", "invalid JSON"),
        ("[" * 100_000 + "]" * 100_000, "invalid JSON"),
        ('{"id": "x", "text": "t", "n": ' + "1" * 5000 + "}", "invalid JSON"),
        ('{"id": "x\\ud800", "text": "t"}', "unpaired surrogate"),
        ('{"id": "x", "text": "a \\udfff b"}', "unpaired surrogate"),
        ('{"id": "x", "text": "t", "labels": {"\\ud83d": {"textual": "Y"}}}', "unpaired surrogate"),
    ],
    ids=["malformed", "deep", "long-integer", "surrogate-id", "surrogate-text", "surrogate-label"],
)
def test_load_corpus_bad_json_names_line(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text(note_to_json(_note("a")) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"line 2: .*{message}"):
        load_corpus(path)


def test_load_corpus_duplicate_id_cites_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(note_to_json(_note("dup")) + "\n" + note_to_json(_note("dup")) + "\n")
    with pytest.raises(CorpusError, match=r"lines 1 and 2"):
        load_corpus(path)


@pytest.mark.parametrize(
    "kind, value", [("textual", "maybe"), ("textual", ["Y"]), ("intuitive", {"a": 1})]
)
def test_load_corpus_bad_label_symbol(tmp_path, kind, value):
    path = tmp_path / "c.jsonl"
    row = {"id": "x", "text": "t", "labels": {"Gout": {kind: value}}}
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(CorpusError, match=rf"line 1: {kind} label .* 'Gout'"):
        load_corpus(path)


def test_partition_law_all_label_combinations():
    """Inclusion iff either label is Y or N, exhaustively over 5x5 combinations."""
    symbols = [None, "Y", "N", "U", "Q"]
    for textual in symbols:
        for intuitive in symbols:
            kwargs = {}
            if textual is not None:
                kwargs["textual"] = textual
            if intuitive is not None:
                kwargs["intuitive"] = intuitive
            note = _note("n1", Asthma=kwargs) if kwargs else _note("n1")
            ds = build_binary_dataset([note], "Asthma")
            should_include = textual in ("Y", "N") or intuitive in ("Y", "N")
            assert (len(ds.records) == 1) == should_include, (textual, intuitive)
            if not should_include:
                continue
            rec = ds.records[0]
            if textual in ("Y", "N"):
                # precedence: the textual label decides even if intuitive disagrees
                assert rec.label == (1 if textual == "Y" else 0)
                assert rec.source == "textual"
            else:
                assert rec.label == (1 if intuitive == "Y" else 0)
                assert rec.source == "intuitive"


def test_build_binary_dataset_keeps_note_order():
    notes = [
        _note("n1", "one", Gout={"textual": "Y"}),
        _note("n2", "two", Gout={"intuitive": "N"}),
        _note("n3", "three"),
        _note("n4", "four", Gout={"textual": "N", "intuitive": "Y"}),
    ]
    ds = build_binary_dataset(notes, "Gout")
    assert [r.note_id for r in ds.records] == ["n1", "n2", "n4"]
    assert list(ds.labels) == [1, 0, 0]
    assert ds.records[1].source == "intuitive"


def test_merge_partitions_rejects_cross_partition_duplicates():
    a = [_note("shared")]
    b = [_note("shared")]
    with pytest.raises(CorpusError, match="shared"):
        merge_partitions([a, b])
    merged = merge_partitions([[_note("x")], [_note("y")]])
    assert [n.id for n in merged] == ["x", "y"]


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_deterministic():
    spec = SyntheticSpec(
        morbidities={"Asthma": MorbiditySpec(positives=5, negatives=7)},
        noise_vocab_size=30,
    )
    a = generate_synthetic_corpus(spec, seed=3)
    b = generate_synthetic_corpus(spec, seed=3)
    assert [note_to_json(n) for n in a] == [note_to_json(n) for n in b]
    c = generate_synthetic_corpus(spec, seed=4)
    assert [note_to_json(n) for n in a] != [note_to_json(n) for n in c]


def test_synthetic_empty_spec():
    assert generate_synthetic_corpus(SyntheticSpec(morbidities={}), seed=0) == []


def test_synthetic_marker_counts():
    # 10 positives, 90 negatives -> the marker appears in exactly 10 notes
    spec = SyntheticSpec(
        morbidities={"Gout": MorbiditySpec(positives=10, negatives=90)},
        noise_vocab_size=40,
    )
    notes = generate_synthetic_corpus(spec, seed=1)
    marker = marker_token("Gout")
    with_marker = [n for n in notes if marker in n.text.split()]
    assert len(with_marker) == 10
    assert all(n.labels["Gout"].textual == "Y" for n in with_marker)
    ds = build_binary_dataset(notes, "Gout")
    assert sum(ds.labels) == 10 and len(ds.records) == 100


def test_synthetic_marker_repeats():
    spec = SyntheticSpec(
        morbidities={"Gout": MorbiditySpec(positives=4, negatives=4, marker_repeats=3)},
        noise_vocab_size=10,
        min_tokens=5,
        max_tokens=8,
    )
    notes = generate_synthetic_corpus(spec, seed=9)
    marker = marker_token("Gout")
    for note in notes:
        tokens = note.text.split()
        occurrences = tokens.count(marker)
        if note.labels["Gout"].textual == "Y":
            assert occurrences == 3
            assert 5 + 3 <= len(tokens) <= 8 + 3
        else:
            assert occurrences == 0
            assert 5 <= len(tokens) <= 8


def test_synthetic_marker_flag_off():
    spec = SyntheticSpec(
        morbidities={"CAD": MorbiditySpec(positives=5, negatives=5, marker=False)},
        noise_vocab_size=10,
    )
    notes = generate_synthetic_corpus(spec, seed=2)
    assert all(marker_token("CAD") not in n.text for n in notes)


def test_marker_token_shape():
    assert marker_token("Venous Insufficiency") == "markervenousinsufficiency"
    # survives the alphanumeric tokenizer as a single token
    assert marker_token("OA") == "markeroa"


def test_spec_from_dict():
    spec = synthetic_spec_from_dict(
        {
            "noise_vocab_size": 12,
            "min_tokens": 3,
            "max_tokens": 9,
            "morbidities": {"Asthma": {"positives": 2, "negatives": 3, "marker_repeats": 2}},
        }
    )
    assert spec.noise_vocab_size == 12
    assert spec.morbidities["Asthma"].marker_repeats == 2
    assert spec.morbidities["Asthma"].marker is True


@pytest.mark.parametrize(
    "raw",
    [
        {"morbidities": {"A": {"positives": -1, "negatives": 0}}},
        {"morbidities": {"A": {"positives": 1, "negatives": 1, "marker_repeats": 0}}},
        {"morbidities": "nope"},
        {"noise_vocab_size": 0, "morbidities": {}},
        {"min_tokens": 5, "max_tokens": 4, "morbidities": {}},
        {"morbidities": {"A": "nope"}},
        {"morbidities": {"": {"positives": 1, "negatives": 1}}},
        [],
    ],
)
def test_spec_from_dict_rejects(raw):
    with pytest.raises(ConfigError):
        synthetic_spec_from_dict(raw)
