"""Versioned JSON checkpoints mapping parameter names to shaped arrays.

The on-disk layout is deliberately plain:

    {"format": "pathrel-checkpoint", "version": 2,
     "meta": {...},
     "tensors": {"name": {"shape": [2, 3], "data": [flat floats...]}}}

Keys are sorted and floats use Python repr, so identical parameters
always serialize to identical bytes (the determinism contract).  Each
LSTM cell is one packed `<cell>/w` of shape (4H, X+H) and one `<cell>/b`
of length 4H.  Only version 2 is read; the reader refuses anything else,
and any NaN or infinite value, naming the file.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .atomic import atomic_open

FORMAT_NAME = "pathrel-checkpoint"
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def checkpoint_bytes(tensors: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": np.asarray(arr, np.float64).ravel().tolist()}
            for name, arr in sorted(tensors.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(checkpoint_bytes(tensors, meta))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into (name -> array, meta)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: not UTF-8 JSON ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version!r}")
    if not isinstance(doc.get("tensors"), dict):
        raise CheckpointError(f"{path}: no tensors object")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is not an object")
    tensors = {}
    for name, spec in doc["tensors"].items():
        if not isinstance(spec, dict) or "shape" not in spec or "data" not in spec:
            raise CheckpointError(f"{path}: tensor {name!r} needs a shape and data")
        shape = spec["shape"]
        # JSON integers only: bool is an int subclass, and int() would take floats and digit strings
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(
                f"{path}: tensor {name!r}: shape must be non-negative integers, got {json.dumps(shape)}"
            )
        shape = tuple(shape)
        try:
            arr = np.asarray(spec["data"], dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: tensor {name!r}: {err}") from None
        if arr.size != math.prod(shape):
            raise CheckpointError(f"{path}: tensor {name!r} data length {arr.size} != shape {shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")
        tensors[name] = arr.reshape(shape)
    return tensors, meta
