"""Binary model files: magic + version + JSON header + raw float64 arrays.

Layout (all integers little-endian):

    bytes 0..7   magic b"MORBMODL"
    uint32       format version (currently 1)
    uint32       JSON header length in bytes
    ...          JSON header: {"kind", "meta", "arrays": [[name, shape], ...]}
    ...          array payloads, concatenated in header order, each C-order <f8

Round-trips are bit-exact: float64 payloads are written raw and scalar
metadata goes through JSON repr, which is lossless for finite doubles. Only
svm files hold metadata (``lam``); an mlp or bilstm model is its arrays, whose
shapes give the layer widths and must all fit them.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from morbench.files import replace_atomically
from morbench.models.lstm import BiLstmModel
from morbench.models.lstm import init_params as lstm_init_params
from morbench.models.mlp import MlpModel
from morbench.models.mlp import init_params as mlp_init_params
from morbench.models.svm import SvmModel

MAGIC = b"MORBMODL"
VERSION = 1

def _pack(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    names = sorted(arrays)
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [[name, list(arrays[name].shape)] for name in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(header_bytes)), header_bytes]
    for name in names:
        chunks.append(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return b"".join(chunks)


def save_model(model, path: str | Path) -> None:
    """Write the model file atomically: a failed save leaves any earlier file as it was."""
    if isinstance(model, SvmModel):
        blob = _pack(
            "svm",
            {"lam": model.lam},
            {"weights": model.weights, "bias": np.array([model.bias])},
        )
    elif isinstance(model, (MlpModel, BiLstmModel)):
        blob = _pack("mlp" if isinstance(model, MlpModel) else "bilstm", {}, model.params)
    else:
        raise ValueError(f"cannot serialize object of type {type(model).__name__}")
    replace_atomically(path, lambda tmp: tmp.write_bytes(blob))


def _check_header(path, header) -> None:
    """Raise ValueError unless a decoded header has the shape load_model reads."""
    if not (
        isinstance(header, dict)
        and isinstance(header.get("meta"), dict)
        and isinstance(header.get("arrays"), list)
    ):
        raise ValueError(f"{path}: model header needs an object with 'kind', 'meta', 'arrays'")
    for entry in header["arrays"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], list)
            and all(type(d) is int and d >= 0 for d in entry[1])
        ):
            raise ValueError(f"{path}: bad array entry {entry!r} in model header")


def _build_model(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]):
    """The model a checked header describes; a missing array or meta key raises KeyError."""
    if kind == "svm":
        weights, bias, lam = arrays["weights"], arrays["bias"], meta["lam"]
        if weights.ndim != 1:
            raise ValueError(f"{path}: svm array weights has shape {weights.shape}, not (n,)")
        if bias.shape != (1,):
            raise ValueError(f"{path}: svm array bias has shape {bias.shape}, not (1,)")
        if type(lam) not in (int, float) or not 0 < lam < math.inf:
            raise ValueError(f"{path}: svm meta lam {lam!r} is not a finite number > 0")
        return SvmModel(weights=weights, bias=float(bias[0]), lam=lam)

    def side(name: str, axis: int) -> int:
        """A layer width: one side of the array name, which must be a matrix with columns."""
        shape = arrays[name].shape
        if len(shape) != 2 or not shape[1]:
            raise ValueError(f"{path}: {kind} array {name} has shape {shape}, not (n, m >= 1)")
        return shape[axis]

    # mlp and bilstm models are their arrays, named and shaped as the model module's own
    # initializer makes them at the file's widths; meta keys older files hold are ignored
    if kind == "mlp":
        model, expected = MlpModel(arrays), mlp_init_params(side("W1", 0), side("W1", 1), 0)
    elif kind == "bilstm":
        model, dim = BiLstmModel(arrays), side("embedding", 1)
        expected = lstm_init_params(np.zeros((0, dim)), side("l1f.U", 0), side("l2f.U", 0), 0)
        expected["embedding"] = arrays["embedding"]  # a vocabulary of any size
    else:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    for name, param in sorted(expected.items()):
        if (shape := arrays[name].shape) != param.shape:
            raise ValueError(f"{path}: {kind} array {name} has shape {shape}, not {param.shape}")
    return model


def load_model(path: str | Path):
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    if len(blob) < 16:
        raise ValueError(f"{path}: truncated model file")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported model format version {version}")
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    _check_header(path, header)

    arrays: dict[str, np.ndarray] = {}
    offset = 16 + header_len
    for name, shape in header["arrays"]:
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(blob):
            raise ValueError(f"{path}: truncated model file")
        arrays[name] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after model payload")

    kind = header.get("kind")
    try:
        return _build_model(path, kind, header["meta"], arrays)
    except KeyError as exc:
        raise ValueError(f"{path}: {kind} model header lacks {exc.args[0]}") from None
