"""Round-trip and corruption tests for the binary model format."""

import struct
from pathlib import Path

import numpy as np
import pytest

from morbench.embeddings import random_table
from morbench.models.lstm import BiLstmConfig, BiLstmModel, bilstm_train
from morbench.models.mlp import MlpModel, mlp_train
from morbench.models.serialize import MAGIC, load_model, save_model
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
    assert loaded.hidden_size == model.hidden_size
    assert set(loaded.params) == set(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])


def test_bilstm_round_trip_bit_exact(tmp_path):
    model = _bilstm_model()
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, BiLstmModel)
    assert (loaded.hidden1, loaded.hidden2) == (model.hidden1, model.hidden2)
    assert loaded.embed_trainable == model.embed_trainable
    assert set(loaded.params) == set(model.params)
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
