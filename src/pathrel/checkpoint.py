"""Versioned checkpoints mapping parameter names to shaped float64 arrays.

Version 3, the one written, is a JSON header and one raw payload, the
layout idea of safetensors:

    8 bytes   MAGIC, b"\\x93PATHREL"
    8 bytes   the header's length in bytes, little-endian unsigned
    header    compact sorted-key UTF-8 JSON, space-padded so the payload
              starts at a multiple of 8:
              {"format": "pathrel-checkpoint", "meta": {...},
               "tensors": {"name": {"data_offsets": [begin, end], "shape": [2, 3]}},
               "version": 3}
    payload   every tensor's little-endian float64 values, in sorted-name order

data_offsets are byte offsets into the payload, and the tensors tile it
exactly in sorted-name order.  That is the order of the ParamStore arena,
so the payload of a model is its store.data.  Identical parameters and
meta always serialize to identical bytes (the determinism contract).
Each LSTM cell is one packed `<cell>/w` of shape (4H, X+H) and one
`<cell>/b` of length 4H.

Version 2, one JSON document {"format", "version": 2, "meta", "tensors":
{"name": {"shape", "data": [flat floats...]}}}, is still read; any other
version is refused.  Both versions go through one per-tensor check (a
shape of non-negative JSON integers, a size that matches the data, only
finite values), and every error is a CheckpointError whose message starts
with the file name.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .atomic import atomic_open

FORMAT_NAME = "pathrel-checkpoint"
FORMAT_VERSION = 3
JSON_VERSION = 2  # the older all-JSON layout, still read
MAGIC = b"\x93PATHREL"
PREAMBLE = len(MAGIC) + 8  # the magic and the header length
F8 = np.dtype("<f8")


class CheckpointError(ValueError):
    pass


def checkpoint_bytes(tensors: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """The whole version-3 file for (name -> array, meta)."""
    arrays = {name: np.asarray(tensors[name], F8) for name in sorted(tensors)}
    specs, end = {}, 0
    for name, arr in arrays.items():
        specs[name] = {"data_offsets": [end, end + arr.nbytes], "shape": list(arr.shape)}
        end += arr.nbytes
    doc = {"format": FORMAT_NAME, "meta": meta or {}, "tensors": specs, "version": FORMAT_VERSION}
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    return b"".join([MAGIC, struct.pack("<Q", len(header)), header,
                     *(arr.tobytes() for arr in arrays.values())])


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(checkpoint_bytes(tensors, meta))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into (name -> array, meta).

    A version-3 file's arrays are read-only views into one buffer.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(MAGIC) or (raw and MAGIC.startswith(raw)):
        return _read_binary(path, raw)
    doc = _header(path, raw, JSON_VERSION)
    tensors = {}
    for name, spec in doc["tensors"].items():
        _require_fields(path, name, spec, "data")
        try:
            values = np.asarray(spec["data"], dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: tensor {name!r}: {err}") from None
        tensors[name] = _tensor(path, name, spec["shape"], values)
    return tensors, doc["meta"]


def _read_binary(path, raw: bytes) -> tuple[dict[str, np.ndarray], dict]:
    if len(raw) < PREAMBLE:
        raise CheckpointError(f"{path}: {len(raw)} bytes, shorter than the {PREAMBLE}-byte "
                              "magic and header length")
    (length,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = PREAMBLE + length
    if start > len(raw):
        raise CheckpointError(f"{path}: header length {length} runs past the end of the file "
                              f"({len(raw)} bytes)")
    doc = _header(path, raw[PREAMBLE:start], FORMAT_VERSION)
    spans, pos = {}, 0
    for name in sorted(doc["tensors"]):
        spec = doc["tensors"][name]
        _require_fields(path, name, spec, "data_offsets")
        offsets = spec["data_offsets"]
        if not (isinstance(offsets, list) and len(offsets) == 2
                and all(type(o) is int and o >= 0 and o % 8 == 0 for o in offsets)
                and offsets[0] <= offsets[1]):
            raise CheckpointError(f"{path}: tensor {name!r}: data_offsets must be [begin, end], "
                                  f"multiples of 8 with 0 <= begin <= end, got {json.dumps(offsets)}")
        begin, end = offsets
        if begin != pos:
            fault = "a gap" if begin > pos else "an overlap"
            raise CheckpointError(f"{path}: tensor {name!r} starts at byte {begin} of the payload, "
                                  f"not {pos}: {fault} in sorted-name order")
        spans[name], pos = (begin // 8, end // 8), end
    size = len(raw) - start
    if size != pos:
        fault = "truncated" if size < pos else f"followed by {size - pos} trailing bytes"
        raise CheckpointError(f"{path}: payload of {size} bytes, header describes {pos}: {fault}")
    payload = np.frombuffer(raw, F8, offset=start)
    tensors = {name: _tensor(path, name, doc["tensors"][name]["shape"], payload[lo:hi])
               for name, (lo, hi) in spans.items()}
    return tensors, doc["meta"]


def _header(path, raw: bytes, version: int) -> dict:
    """The checked JSON document: the header of version 3, the whole file of version 2."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: not UTF-8 JSON ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != version:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')!r}")
    if not isinstance(doc.get("tensors"), dict):
        raise CheckpointError(f"{path}: no tensors object")
    doc.setdefault("meta", {})
    if not isinstance(doc["meta"], dict):
        raise CheckpointError(f"{path}: meta is not an object")
    return doc


def _require_fields(path, name: str, spec, data: str) -> None:
    if not isinstance(spec, dict) or "shape" not in spec or data not in spec:
        raise CheckpointError(f"{path}: tensor {name!r} needs a shape and {data}")


def _tensor(path, name: str, shape, values: np.ndarray) -> np.ndarray:
    """values as an array of shape, which must be a list of non-negative JSON integers
    holding exactly values.size finite numbers."""
    # JSON integers only: bool is an int subclass, and int() would take floats and digit strings
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise CheckpointError(
            f"{path}: tensor {name!r}: shape must be non-negative integers, got {json.dumps(shape)}"
        )
    shape = tuple(shape)
    if values.size != math.prod(shape):
        raise CheckpointError(f"{path}: tensor {name!r} data length {values.size} != shape {shape}")
    if not np.isfinite(values).all():
        raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")
    return values.reshape(shape)
