"""End-to-end command line tests, run in-process through main(argv)."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morbench import __version__
from morbench.cli import main
from morbench.embeddings import load_pretrained
from morbench.eval import REPRESENTATIONS, ExperimentConfig, config_to_dict
from morbench.preprocess import build_vocabulary, normalize_text, tokenize
from test_eval import _config_dicts

SPEC = {
    "morbidities": {
        "Gout": {"positives": 8, "negatives": 8, "marker_repeats": 3},
        "Asthma": {"positives": 8, "negatives": 8, "marker_repeats": 3},
    },
    "noise_vocab_size": 25,
    "min_tokens": 15,
    "max_tokens": 30,
}

CHEAP_CONFIG = {
    "eval.k": 2,
    "eval.representations": ["tfidf_svm", "bilstm_random"],
    "svm.lambda": 0.01,
    "svm.epochs": 10,
    "bilstm.hidden1": 4,
    "bilstm.hidden2": 4,
    "bilstm.epochs": 2,
    "embeddings.dim": 8,
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(CHEAP_CONFIG), encoding="utf-8")
    return tmp_path


def _synth(workspace, out="corpus.jsonl", seed=5):
    code = main(
        [
            "synth",
            "--spec",
            str(workspace / "spec.json"),
            "--seed",
            str(seed),
            "--out",
            str(workspace / out),
        ]
    )
    assert code == 0
    return workspace / out


def test_synth_writes_deterministic_corpus(workspace, capsys):
    path_a = _synth(workspace, "a.jsonl")
    path_b = _synth(workspace, "b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()
    assert len(path_a.read_text().splitlines()) == 32
    out = capsys.readouterr().out
    assert "32 notes" in out and "2 morbidities" in out


def test_prepare_builds_dataset_files(workspace, capsys):
    corpus = _synth(workspace)
    out = workspace / "prepared"
    assert main(["prepare", str(corpus), "--out", str(out)]) == 0
    gout = (out / "dataset_gout.jsonl").read_text().splitlines()
    assert len(gout) == 16
    row = json.loads(gout[0])
    assert set(row) == {"note_id", "text", "label", "source"}
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "morbidity,total,positive,negative,excluded"
    assert "Gout,16,8,8,0" in summary
    # canonical names with no records still get (empty) dataset files
    assert (out / "dataset_cad.jsonl").exists()
    assert (out / "dataset_cad.jsonl").read_text() == ""
    table = capsys.readouterr().out
    assert "morbidity" in table and "Gout" in table


def test_prepare_counts_notes_with_no_usable_label_as_excluded(workspace, capsys):
    notes = [
        {"id": "a", "text": "t", "labels": {"Asthma": {"textual": "Y"}, "Gout": {"textual": "U"}}},
        {"id": "b", "text": "t", "labels": {"Asthma": {"intuitive": "N"}}},
        {"id": "c", "text": "t", "labels": {"Asthma": {"textual": "Q", "intuitive": "Q"}}},
    ]
    corpus = workspace / "three.jsonl"
    corpus.write_text("".join(json.dumps(n) + "\n" for n in notes), encoding="utf-8")
    out = workspace / "prepared"
    assert main(["prepare", str(corpus), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 17  # the header and the 16 canonical morbidities
    assert {"Asthma,2,1,1,1", "Gout,0,0,0,1", "CAD,0,0,0,0"} <= set(summary)
    asthma = (out / "dataset_asthma.jsonl").read_text().splitlines()
    assert [json.loads(line)["note_id"] for line in asthma] == ["a", "b"]
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["morbidity", "total", "positive", "negative", "excluded"]
    assert table[1].split() == ["Asthma", "2", "1", "1", "1"]
    assert table[8].split() == ["Gout", "0", "0", "0", "1"]  # canonical order


@pytest.mark.parametrize(
    "names", [("Gout", "gout"), ("!!!", "???")], ids=["case", "empty-slug"]
)
def test_prepare_refuses_morbidities_that_share_a_file(workspace, capsys, names):
    notes = [{"id": m, "text": "t", "labels": {m: {"textual": "Y"}}} for m in names]
    corpus = workspace / "clash.jsonl"
    corpus.write_text("".join(json.dumps(n) + "\n" for n in notes), encoding="utf-8")
    out = workspace / "prepared"
    assert main(["prepare", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(repr(m) in err for m in names) and "internal error" not in err
    assert not out.exists()


def test_run_pipeline_and_outputs(workspace, capsys):
    corpus = _synth(workspace)
    out = workspace / "results"
    code = main(
        [
            "run",
            str(corpus),
            "--config",
            str(workspace / "config.json"),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = (out / "report.md").read_text()
    assert report.splitlines()[0].startswith("| morbidity")
    assert "tfidf_svm" in report and "bilstm_random" in report
    assert "Gout" in report and "Average" in report

    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "morbidity,tfidf_svm,bilstm_random"

    raw = [json.loads(l) for l in (out / "raw.jsonl").read_text().splitlines()]
    assert len(raw) == 8  # 2 morbidities x 2 representations x 2 folds

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == __version__
    assert manifest["seed"] == 1
    assert manifest["notes"] == 32
    assert manifest["config"]["eval.k"] == 2
    assert len(manifest["cells"]) == 4
    assert all("seconds" in c for c in manifest["cells"])

    stdout = capsys.readouterr().out
    assert "| morbidity" in stdout  # table echoed to the terminal


def test_manifest_records_the_environment(workspace, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    corpus = _synth(workspace)
    out = workspace / "results"
    args = ["run", str(corpus), "--config", str(workspace / "config.json"), "--out", str(out)]
    assert main(args) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"nproc", "numpy", "blas", "thread_env", "start_method"}
    assert env["nproc"] >= 1
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"], str) and env["blas"]
    assert env["thread_env"] == {
        "OMP_NUM_THREADS": None,
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": None,
    }
    assert env["start_method"] in ("fork", "spawn", "forkserver")


def test_run_twice_is_byte_identical(workspace):
    corpus = _synth(workspace)
    args = ["run", str(corpus), "--config", str(workspace / "config.json"), "--seed", "3"]
    assert main([*args, "--out", str(workspace / "r1")]) == 0
    assert main([*args, "--out", str(workspace / "r2")]) == 0
    for name in ("report.md", "report.csv", "raw.jsonl"):
        a = (workspace / "r1" / name).read_bytes()
        b = (workspace / "r2" / name).read_bytes()
        assert a == b, name


def test_report_rerenders_identical_tables(workspace):
    corpus = _synth(workspace)
    out = workspace / "results"
    args = ["run", str(corpus), "--config", str(workspace / "config.json")]
    assert main([*args, "--out", str(out)]) == 0
    rerender = workspace / "rerendered"
    assert main(["report", str(out / "raw.jsonl"), "--out", str(rerender)]) == 0
    assert (rerender / "report.md").read_bytes() == (out / "report.md").read_bytes()
    assert (rerender / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


def _fold_row(**changes) -> str:
    row = {"morbidity": "Gout", "representation": "tfidf_svm", "fold": 0, "f1": 0.5}
    return json.dumps({**row, "tp": 1, "fp": 0, "fn": 1, "tn": 2, **changes}) + "\n"


def _skip_row() -> str:
    return json.dumps({"morbidity": "Gout", "representation": "tfidf_svm", "skipped": "x"}) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"morbidity": "Gout", "representation": "tfidf_svm", "skipped": "x"}\n{"f1": 0.5\n', "line 2"),
        ('{"morbidity": "Gout", "representation": "tfidf_svm", "fold": 0, "f1": 0.5}\n', "line 1"),
        (_fold_row(f1="x"), "line 1: bad raw row (f1 'x'"),
        pytest.param(
            _fold_row(f1=10**400), "line 1: bad raw row (int too large", id="f1-beyond-float"
        ),
        pytest.param("[" * 100_000, "line 1: bad raw row (maximum recursion", id="deep-nesting"),
        (_fold_row() + _fold_row(morbidity=5), "line 2: bad raw row (morbidity 5"),
        (_fold_row(representation="nope"), "unknown representation 'nope'"),
        (
            _fold_row(f1=0.5) + _fold_row(f1=0.9),
            "line 2: bad raw row (Gout/tfidf_svm already has fold 0)",
        ),
        (_fold_row() + _skip_row(), "line 2: bad raw row (Gout/tfidf_svm already has fold rows)"),
        (_skip_row() + _fold_row(), "line 2: bad raw row (Gout/tfidf_svm already has a skipped"),
        (_skip_row() + _skip_row(), "line 2: bad raw row (Gout/tfidf_svm already has a skipped"),
        ("", "holds no result rows"),
        ("\n\n", "holds no result rows"),
    ],
)
def test_report_on_bad_raw_rows_is_a_usage_error(workspace, capsys, text, message):
    (workspace / "raw.jsonl").write_text(text, encoding="utf-8")
    out = workspace / "rerendered"
    assert main(["report", str(workspace / "raw.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "raw.jsonl" in err and message in err and "internal error" not in err
    assert not out.exists()


def test_train_embeddings_writes_loadable_vectors(workspace, capsys):
    corpus = _synth(workspace)
    sg_config = {"embeddings.dim": 8, "skipgram.epochs": 1, "skipgram.window": 2}
    (workspace / "sg.json").write_text(json.dumps(sg_config), encoding="utf-8")
    out = workspace / "vectors.txt"
    code = main(
        [
            "train-embeddings",
            str(corpus),
            "--config",
            str(workspace / "sg.json"),
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "vectors" in capsys.readouterr().out

    notes = corpus.read_text().splitlines()
    tokens = [tokenize(normalize_text(json.loads(l)["text"])) for l in notes]
    vocab = build_vocabulary(tokens)
    table, oov = load_pretrained(out, vocab, 8)
    assert oov == 0
    assert table.rows.shape == (len(vocab) + 1, 8)


@pytest.mark.parametrize(
    "text", ["", '{"id": "a", "text": "!!! ???"}\n'], ids=["no-notes", "no-tokens"]
)
def test_train_embeddings_on_an_empty_corpus_is_a_usage_error(workspace, capsys, text):
    empty = workspace / "empty.jsonl"
    empty.write_text(text, encoding="utf-8")
    out = workspace / "vectors.txt"
    assert main(["train-embeddings", str(empty), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "empty.jsonl" in err and "no notes" in err and "internal error" not in err
    assert not out.exists()


def test_train_embeddings_negative_seed_is_a_usage_error(workspace, capsys):
    corpus = _synth(workspace)
    out = workspace / "vectors.txt"
    assert main(["train-embeddings", str(corpus), "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "internal error" not in err
    assert not out.exists()


def test_print_default_config(capsys):
    assert main(["run", "--print-default-config"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == config_to_dict(ExperimentConfig())


def test_missing_corpus_file_is_a_usage_error(workspace, capsys):
    code = main(["run", str(workspace / "nope.jsonl")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_without_corpus_is_a_usage_error(capsys):
    assert main(["run"]) == 2
    assert "corpus file is required" in capsys.readouterr().err


def test_bad_config_key_is_a_usage_error(workspace, capsys):
    (workspace / "bad.json").write_text('{"eval.folds": 3}', encoding="utf-8")
    corpus = _synth(workspace)
    code = main(["run", str(corpus), "--config", str(workspace / "bad.json")])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("skipgram.window", 0),
        ("bilstm.hidden1", 0),
        ("embeddings.dim", 0),
        ("mlp.hidden_size", 0),
        ("svm.epochs", -1),
    ],
)
def test_out_of_range_model_size_is_a_usage_error(workspace, capsys, key, value):
    (workspace / "sizes.json").write_text(json.dumps({key: value}), encoding="utf-8")
    corpus = _synth(workspace)
    out = workspace / "o"
    code = main(["run", str(corpus), "--config", str(workspace / "sizes.json"), "--out", str(out)])
    assert code == 2
    assert f"{key} must be an integer of at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("rmsprop.rho", 2.0),
        ("skipgram.learning_rate", -1.0),
        ("svm.lambda", None),
        ("rmsprop.rho", None),
        ("skipgram.learning_rate", None),
        ("rmsprop.eps", -1.0),
        ("svm.lambda", -1.0),
        ("eval.weighted_f1", None),
        ("svm.lambda", float("nan")),
        ("rmsprop.learning_rate", float("inf")),
        ("svm.lambda", 10**400),  # an integer no float can hold
        ("eval.representations", []),
        ("eval.representations", ["tfidf_svm", "tfidf_svm"]),
        ("eval.morbidities", [""]),
    ],
)
def test_out_of_range_or_null_setting_is_a_usage_error(workspace, capsys, key, value):
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    (workspace / "bad.json").write_text(json.dumps({key: value}), encoding="utf-8")
    corpus = _synth(workspace)
    out = workspace / "o"
    code = main(["run", str(corpus), "--config", str(workspace / "bad.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "internal error" not in err
    assert not out.exists()


def test_morbidity_absent_from_the_corpus_is_an_na_row(workspace):
    config = {**CHEAP_CONFIG, "eval.morbidities": ["Gout", "Absent"]}
    (workspace / "absent.json").write_text(json.dumps(config), encoding="utf-8")
    corpus, out = _synth(workspace), workspace / "o"
    assert main(["run", str(corpus), "--config", str(workspace / "absent.json"), "--out", str(out)]) == 0
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[1].startswith("Gout,") and rows[2] == "Absent,n/a,n/a"


@pytest.mark.parametrize(
    "text",
    ["{not json", '{"noise_vocab_size": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["malformed", "long-integer", "deep-nesting"],
)
def test_bad_spec_json_is_a_usage_error(workspace, capsys, text):
    (workspace / "broken.json").write_text(text, encoding="utf-8")
    code = main(["synth", "--spec", str(workspace / "broken.json"), "--out", "x.jsonl"])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "morbidity, top, key",
    [
        ({"positives": 2.7}, {}, "positives"),
        ({"negatives": True}, {}, "negatives"),
        ({"marker": "false"}, {}, "marker"),
        ({}, {"noise_vocab_size": True}, "noise_vocab_size"),
        ({"negativs": 3}, {}, "negativs"),
        ({}, {"min_token": 3}, "min_token"),
    ],
)
def test_bad_spec_key_or_type_is_a_usage_error(workspace, capsys, morbidity, top, key):
    spec = {"morbidities": {"Gout": {"positives": 2, "negatives": 2, **morbidity}}, **top}
    (workspace / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    out = workspace / "c.jsonl"
    code = main(["synth", "--spec", str(workspace / "spec.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "internal error" not in err
    assert list(workspace.glob("c.jsonl*")) == []


def _non_utf8(path):
    path.write_bytes(b'{"caf\xe9": 1}\n')
    return path


@pytest.mark.parametrize(
    "argv",
    [
        lambda ws: ["run", str(_non_utf8(ws / "latin1.jsonl"))],
        lambda ws: ["run", str(ws / "notes_dir")],
        lambda ws: ["prepare", str(ws / "notes_dir")],
        lambda ws: ["run", str(_synth(ws)), "--config", str(_non_utf8(ws / "latin1.json"))],
        lambda ws: ["synth", "--spec", str(_non_utf8(ws / "latin1.json")), "--out", "x.jsonl"],
        lambda ws: ["report", str(_non_utf8(ws / "latin1.jsonl"))],
        lambda ws: ["report", str(ws / "notes_dir")],
    ],
)
def test_unreadable_input_file_is_a_usage_error(workspace, capsys, argv):
    (workspace / "notes_dir").mkdir()
    args = argv(workspace)
    out = workspace / "out"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = next(a for a in args if "latin1" in a or "notes_dir" in a)
    assert bad in err and "internal error" not in err
    assert not out.exists()


def test_unwritable_output_is_a_usage_error_and_leaves_no_temporary(workspace, capsys):
    corpus = _synth(workspace)
    out = workspace / "r"
    (out / "report.csv").mkdir(parents=True)
    code = main(["run", str(corpus), "--config", str(workspace / "config.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(out / "report.csv") in err and "internal error" not in err
    assert sorted(p.name for p in out.iterdir()) == ["report.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        lambda ws: ["synth", "--spec", str(ws / "spec.json"), "--out", str(ws / "afile" / "c")],
        lambda ws: ["prepare", str(_synth(ws)), "--out", str(ws / "afile")],
        lambda ws: [
            "run", str(_synth(ws)), "--config", str(ws / "config.json"), "--out", str(ws / "afile")
        ],
    ],
)
def test_output_directory_that_is_a_file_is_a_usage_error(workspace, capsys, argv):
    (workspace / "afile").write_text("", encoding="utf-8")
    assert main(argv(workspace)) == 2
    err = capsys.readouterr().err
    assert str(workspace / "afile") in err and "internal error" not in err


def test_k_below_two_is_a_usage_error(workspace, capsys):
    (workspace / "k1.json").write_text('{"eval.k": 1}', encoding="utf-8")
    corpus = _synth(workspace)
    code = main(["run", str(corpus), "--config", str(workspace / "k1.json")])
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_is_a_usage_error(workspace, capsys, jobs):
    corpus = _synth(workspace)
    code = main(["run", str(corpus), "--jobs", jobs, "--out", str(workspace / "r")])
    assert code == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (workspace / "r").exists()


def _run_with_word2vec(workspace, vector_path):
    config = dict(CHEAP_CONFIG)
    config["eval.representations"] = ["bilstm_pretrained_w2v"]
    config["embeddings.word2vec_path"] = str(vector_path)
    (workspace / "w2v.json").write_text(json.dumps(config), encoding="utf-8")
    corpus = _synth(workspace)
    return main(
        ["run", str(corpus), "--config", str(workspace / "w2v.json"), "--out", str(workspace / "r")]
    )


def test_missing_vector_file_is_a_usage_error(workspace, capsys):
    code = _run_with_word2vec(workspace, workspace / "absent.vec")
    assert code == 2
    err = capsys.readouterr().err
    assert "absent.vec" in err and "internal error" not in err


def test_non_utf8_vector_file_is_a_usage_error(workspace, capsys):
    path = workspace / "latin1.vec"
    path.write_bytes("caf\xe9 ".encode("latin-1") + b"0.5 " * 7 + b"0.5\n")
    code = _run_with_word2vec(workspace, path)
    assert code == 2
    err = capsys.readouterr().err
    assert "latin1.vec" in err and "UTF-8" in err and "internal error" not in err


# Strings for the corpus fuzz below may hold unpaired surrogates, which JSON
# spells as escapes such as \ud800 and which a file holds only as bytes that
# are not UTF-8.
_FUZZ_CHARS = st.characters() | st.sampled_from(" !éxyz\ud800")
_FUZZ_TEXT = st.text(_FUZZ_CHARS, max_size=8)
_FUZZ_NAME = st.text(_FUZZ_CHARS, min_size=1, max_size=8)
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_FUZZ_TEXT, inner, max_size=3),
    max_leaves=6,
)
_UNREADABLE_LINES = ['{"id": "a", "text": "t", "n": ' + "1" * 5000 + "}", "[" * 100_000]


@st.composite
def _fuzz_line(draw) -> str:
    """One corpus line: text that is mostly not JSON, a line json.loads cannot
    read, any JSON value, or (most often) a note in which every field, label
    pair and label is well formed seven times in eight and any JSON value otherwise."""

    def usually(valid):
        return draw(_FUZZ_JSON if draw(st.integers(0, 7)) == 7 else valid)

    shape = draw(st.integers(0, 15))
    if shape == 0:
        return draw(_FUZZ_TEXT)
    if shape == 1:
        return draw(st.sampled_from(_UNREADABLE_LINES))
    if shape == 2:
        return json.dumps(draw(_FUZZ_JSON))
    labels = {}
    for _ in range(draw(st.integers(0, 3))):
        kinds = draw(st.sets(st.sampled_from(["textual", "intuitive"]), max_size=2))
        if draw(st.integers(0, 15)) == 15:
            kinds.add("other")
        pair = {kind: usually(st.sampled_from(["Y", "N", "U", "Q"])) for kind in kinds}
        morbidity = usually(st.sampled_from(["Gout", "gout", "CAD", ""]) | _FUZZ_NAME)
        labels[str(morbidity)] = usually(st.just(pair))
    note = {
        "id": usually(st.sampled_from(["a", "b", "c"]) | _FUZZ_NAME),
        "text": usually(_FUZZ_TEXT),
        "labels": usually(st.just(labels)),
    }
    # one time in eight a surrogate is written raw, so the file is not UTF-8
    return json.dumps(note, ensure_ascii=draw(st.integers(0, 7)) < 7)


@settings(max_examples=300)
@given(st.lists(_fuzz_line(), max_size=4))
def test_prepare_exits_0_or_2_on_any_json_lines_input(lines):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        assert main(["prepare", str(corpus), "--out", str(Path(tmp) / "out")]) in (0, 2)


# Every integer setting at 2 (eval.k at its least), so that a run of any
# config drawn over it, at sizes and epochs of 1 to 3, takes well under a second.
_TINY_CONFIG = {
    key: 2 for key, value in config_to_dict(ExperimentConfig()).items() if type(value) is int
}
_TINY_SPEC = {
    "morbidities": {
        "Gout": {"positives": 5, "negatives": 5, "marker_repeats": 2},
        "Asthma": {"positives": 5, "negatives": 5, "marker_repeats": 2},
    },
    "noise_vocab_size": 12,
    "min_tokens": 4,
    "max_tokens": 8,
}


@settings(max_examples=150)
@given(
    _config_dicts(ints=st.integers(1, 3), any_int=st.integers(-3, 3)),
    st.integers(1, 3),
    st.integers(),
)
def test_run_exits_0_or_2_on_any_config_and_report_reads_what_it_wrote(raw, jobs, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "spec.json").write_text(json.dumps(_TINY_SPEC), encoding="utf-8")
        (tmp / "config.json").write_text(json.dumps({**_TINY_CONFIG, **raw}), encoding="utf-8")
        assert main(["synth", "--spec", str(tmp / "spec.json"), "--out", str(tmp / "c.jsonl")]) == 0
        argv = ["run", str(tmp / "c.jsonl"), "--config", str(tmp / "config.json")]
        argv += ["--jobs", str(jobs), "--seed", str(seed), "--out", str(tmp / "out")]
        code = main(argv)
        assert code in (0, 2)
        if code == 0:
            assert main(["report", str(tmp / "out" / "raw.jsonl"), "--out", str(tmp / "re")]) == 0


@st.composite
def _raw_line(draw) -> str:
    """One raw.jsonl line: text that is mostly not JSON, a line json.loads cannot
    read, any JSON value, or (most often) a fold or skipped row in which each key
    is dropped one time in sixteen and its value replaced by any JSON value one
    time in sixteen."""
    shape = draw(st.integers(0, 15))
    if shape == 0:
        return draw(_FUZZ_TEXT)
    if shape == 1:
        return draw(st.sampled_from(_UNREADABLE_LINES))
    if shape == 2:
        return json.dumps(draw(_FUZZ_JSON))
    row = {
        "morbidity": draw(st.sampled_from(["Gout", "Asthma", ""]) | _FUZZ_NAME),
        "representation": draw(st.sampled_from([*REPRESENTATIONS, "tfidf_forest"])),
    }
    if draw(st.integers(0, 3)) == 0:
        row["skipped"] = draw(_FUZZ_TEXT)
    else:
        row["fold"] = draw(st.integers(0, 2))
        row["f1"] = draw(st.floats(0, 1))
        row.update({name: draw(st.integers(0, 5)) for name in ("tp", "fp", "fn", "tn")})
    for key in list(row):
        change = draw(st.integers(0, 15))
        if change == 0:
            del row[key]
        elif change == 1:
            row[key] = draw(_FUZZ_JSON)
    return json.dumps(row, ensure_ascii=draw(st.integers(0, 7)) < 7)


@settings(max_examples=300)
@given(st.lists(_raw_line(), max_size=6))
def test_report_exits_0_or_2_on_any_raw_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.jsonl"
        raw.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        assert main(["report", str(raw), "--out", str(Path(tmp) / "out")]) in (0, 2)


def test_unexpected_exception_maps_to_exit_one(workspace, monkeypatch, capsys):
    corpus = _synth(workspace)

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr("morbench.cli.run_experiment", boom)
    code = main(["run", str(corpus), "--out", str(workspace / "r")])
    assert code == 1
    assert "internal error: RuntimeError: wires crossed" in capsys.readouterr().err


def test_relative_out_resolves_against_data_dir(workspace, monkeypatch):
    monkeypatch.setenv("MORBENCH_DATA_DIR", str(workspace))
    _synth(workspace)  # absolute out, unaffected
    assert main(["synth", "--spec", str(workspace / "spec.json"), "--out", "rel.jsonl"]) == 0
    assert (workspace / "rel.jsonl").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
