"""Round-trip and corruption tests for the binary model format."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from morbench.embeddings import random_table
from morbench.models.lstm import BiLstmConfig, BiLstmModel, bilstm_train
from morbench.models.mlp import MlpModel, mlp_train
from morbench.models.serialize import MAGIC, _pack, load_model, save_model
from morbench.models.svm import SvmModel, svm_train


def _svm_model():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.1], [0.1, 0.5]])
    return svm_train(X, [1, 0, 1, 0], lam=1e-2, epochs=10, seed=0)


def _mlp_model():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return mlp_train(X, [0, 1, 1, 0], hidden_size=4, epochs=5, seed=0)


def _bilstm_model():
    X = np.array([[1, 2, 0], [3, 4, 1], [2, 2, 2], [4, 1, 0]])
    table = random_table(5, 3, seed=1)
    return bilstm_train(X, [1, 0, 1, 0], table, BiLstmConfig(hidden1=2, hidden2=2, epochs=2), seed=0)


def test_svm_round_trip_bit_exact(tmp_path):
    model = _svm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, SvmModel)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.lam == model.lam


def test_mlp_round_trip_bit_exact(tmp_path):
    model = _mlp_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, MlpModel)
    assert set(loaded.params) == set(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])


def test_bilstm_round_trip_bit_exact(tmp_path):
    model = _bilstm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, BiLstmModel)
    assert set(loaded.params) == set(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])


def _header(path) -> dict:
    import json

    blob = path.read_bytes()
    version, length = struct.unpack("<II", blob[8:16])
    return {"version": version, **json.loads(blob[16 : 16 + length])}


@pytest.mark.parametrize("make", [_mlp_model, _bilstm_model])
def test_mlp_and_bilstm_files_hold_no_metadata(tmp_path, make):
    path = tmp_path / "m.bin"
    save_model(make(), path)
    header = _header(path)
    assert header["version"] == 1 and header["meta"] == {}


@pytest.mark.parametrize(
    "make,kind,meta",
    [
        (_mlp_model, "mlp", {"hidden_size": 4}),
        (_bilstm_model, "bilstm", {"hidden1": 2, "hidden2": 2, "embed_trainable": False}),
    ],
)
def test_files_with_the_older_layer_metadata_still_load_bit_exactly(tmp_path, make, kind, meta):
    # earlier versions wrote the layer widths (and the bilstm's embedding flag) as metadata
    model = make()
    path = tmp_path / "m.bin"
    path.write_bytes(_pack(kind, meta, model.params))
    assert _header(path)["meta"] == meta
    loaded = load_model(path)
    assert type(loaded) is type(model) and set(loaded.params) == set(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])


def test_save_rejects_unknown_objects(tmp_path):
    with pytest.raises(ValueError, match="serialize"):
        save_model({"not": "a model"}, tmp_path / "m.bin")


def test_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    save_model(_svm_model(), path)

    def write_half_then_fail(self, data):
        with open(self, "wb") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="No space"):
        save_model(_mlp_model(), path)
    assert isinstance(load_model(path), SvmModel)
    assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_load_rejects_unsupported_version(tmp_path):
    model = _svm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version 99"):
        load_model(path)


def test_load_rejects_truncated_payload(tmp_path):
    model = _svm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)


@pytest.mark.parametrize("make", [_svm_model, _mlp_model, _bilstm_model])
def test_every_truncation_raises_value_error(tmp_path, make):
    path = tmp_path / "m.bin"
    save_model(make(), path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for end in range(len(blob)):
        cut.write_bytes(blob[:end])
        with pytest.raises(ValueError):
            load_model(cut)


def test_load_rejects_trailing_bytes(tmp_path):
    model = _svm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ValueError, match="trailing"):
        load_model(path)


def test_load_rejects_unknown_kind(tmp_path):
    import json

    header = json.dumps({"kind": "tree", "meta": {}, "arrays": []}).encode()
    path = tmp_path / "m.bin"
    path.write_bytes(MAGIC + struct.pack("<II", 1, len(header)) + header)
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(path)


def test_loaded_bilstm_predicts_identically(tmp_path):
    from morbench.models.lstm import bilstm_forward

    model = _bilstm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    batch = np.array([[1, 2, 3], [4, 0, 0]])
    np.testing.assert_array_equal(bilstm_forward(batch, model), bilstm_forward(batch, loaded))


def _write_header(path, header):
    import json

    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<II", 1, len(blob)) + blob)


def test_load_rejects_header_without_arrays(tmp_path):
    path = tmp_path / "m.bin"
    _write_header(path, {"kind": "svm"})
    with pytest.raises(ValueError, match="'kind', 'meta', 'arrays'"):
        load_model(path)


def test_load_rejects_header_that_is_not_an_object(tmp_path):
    path = tmp_path / "m.bin"
    _write_header(path, [])
    with pytest.raises(ValueError, match="'kind', 'meta', 'arrays'"):
        load_model(path)


def test_load_rejects_svm_header_without_bias(tmp_path):
    path = tmp_path / "m.bin"
    _write_header(path, {"kind": "svm", "meta": {"lam": 0.01}, "arrays": [["weights", [2]]]})
    path.write_bytes(path.read_bytes() + np.zeros(2).tobytes())
    with pytest.raises(ValueError, match="svm model header lacks bias"):
        load_model(path)


@pytest.mark.parametrize("make,dropped", [(_mlp_model, "W2"), (_bilstm_model, "l2b.U")])
def test_load_rejects_model_without_a_parameter(tmp_path, make, dropped):
    model = make()
    del model.params[dropped]
    path = tmp_path / "m.bin"
    save_model(model, path)
    with pytest.raises(ValueError, match=f"model header lacks {dropped}"):
        load_model(path)


def _assert_shape_is_rejected(tmp_path, kind, params, name, shape, meta=None):
    path = tmp_path / "m.bin"
    path.write_bytes(_pack(kind, meta or {}, {**params, name: np.zeros(shape)}))
    match = rf"{re.escape(str(path))}: {kind} array {re.escape(name)} has shape"
    with pytest.raises(ValueError, match=match):
        load_model(path)


@pytest.mark.parametrize(
    "name, shape",
    [
        ("W2", (5, 1)),  # W1 is (2, 4), so W2 must be (4, 1)
        ("b1", (3,)),
        ("b2", (1, 1)),
        ("W1", (8,)),
        ("W1", ()),
        ("W1", (2, 4, 1)),
        ("W1", (2, 0)),
    ],
)
def test_load_rejects_mlp_arrays_of_inconsistent_shape(tmp_path, name, shape):
    _assert_shape_is_rejected(tmp_path, "mlp", _mlp_model().params, name, shape)


@pytest.mark.parametrize(
    "name, shape",
    [
        ("l1f.W", (4, 8)),  # the embedding has 3 columns
        ("l2b.U", (3, 8)),  # l2f.U gives hidden2 = 2
        ("l2f.W", (2, 8)),  # layer 2 reads 2 * hidden1 = 4 inputs
        ("l1b.b", (9,)),
        ("dense.W", (4,)),
        ("embedding", (18,)),
        ("embedding", (6, 0)),
        ("l1f.U", (8,)),
        ("l2f.U", (0, 0)),
    ],
)
def test_load_rejects_bilstm_arrays_of_inconsistent_shape(tmp_path, name, shape):
    _assert_shape_is_rejected(tmp_path, "bilstm", _bilstm_model().params, name, shape)


def _svm_file_parts():
    model = _svm_model()
    return {"weights": model.weights, "bias": np.array([model.bias])}, {"lam": model.lam}


@pytest.mark.parametrize(
    "name, shape",
    [("weights", (3, 2)), ("weights", ()), ("bias", (1, 1)), ("bias", (2,)), ("bias", ())],
)
def test_load_rejects_svm_arrays_of_inconsistent_shape(tmp_path, name, shape):
    params, meta = _svm_file_parts()
    _assert_shape_is_rejected(tmp_path, "svm", params, name, shape, meta)


@pytest.mark.parametrize("lam", ["x", True, None, 0, -0.5, float("inf"), float("nan"), [1.0]])
def test_load_rejects_svm_lam_that_is_not_a_finite_number_above_zero(tmp_path, lam):
    params, _ = _svm_file_parts()
    path = tmp_path / "m.bin"
    path.write_bytes(_pack("svm", {"lam": lam}, params))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: svm meta lam "):
        load_model(path)


def test_load_takes_an_embedding_of_any_vocabulary_size(tmp_path):
    params = {**_bilstm_model().params, "embedding": np.zeros((40, 3))}
    path = tmp_path / "m.bin"
    path.write_bytes(_pack("bilstm", {}, params))
    assert load_model(path).params["embedding"].shape == (40, 3)
