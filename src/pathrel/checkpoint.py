"""Versioned JSON checkpoints mapping parameter names to shaped arrays.

The on-disk layout is deliberately plain:

    {"format": "pathrel-checkpoint", "version": 2,
     "meta": {...},
     "tensors": {"name": {"shape": [2, 3], "data": [flat floats...]}}}

Keys are sorted and floats use Python repr, so identical parameters
always serialize to identical bytes (the determinism contract).

Version 1 stored each LSTM cell as per-gate tensors (`<cell>/w_gx`,
`<cell>/w_gh`, `<cell>/b_g`, ... for gates g, i, f, o); version 2 packs
them into `<cell>/w` of shape (4H, X+H) and `<cell>/b` of length 4H.
Version-1 files still load: their gate tensors are concatenated on read.
"""

from __future__ import annotations

import json

import numpy as np

FORMAT_NAME = "pathrel-checkpoint"
FORMAT_VERSION = 2
V1_GATES = ("g", "i", "f", "o")


class CheckpointError(ValueError):
    pass


def checkpoint_bytes(tensors: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}
            for name, arr in sorted(tensors.items())
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(tensors, meta))


def _pack_v1_cells(path, tensors: dict[str, np.ndarray]) -> None:
    """Replace each version-1 cell's gate tensors by the packed w and b."""
    cells = sorted(name[: -len("/w_gx")] for name in tensors if name.endswith("/w_gx"))
    for cell in cells:
        try:
            w = np.vstack([
                np.hstack([tensors.pop(f"{cell}/w_{gate}x"), tensors.pop(f"{cell}/w_{gate}h")])
                for gate in V1_GATES
            ])
            b = np.concatenate([tensors.pop(f"{cell}/b_{gate}") for gate in V1_GATES])
        except (KeyError, ValueError) as err:
            raise CheckpointError(
                f"{path}: version-1 cell {cell!r} is incomplete or misshapen ({err})"
            ) from None
        tensors[f"{cell}/w"] = w
        tensors[f"{cell}/b"] = b


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into (name -> array, meta), in the version-2 layout."""
    with open(path, "rb") as fh:
        doc = json.loads(fh.read().decode("utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
    version = doc.get("version")
    if version not in (1, FORMAT_VERSION):
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
        try:
            arr = np.asarray(spec["data"], dtype=np.float64)
            shape = tuple(int(d) for d in spec["shape"])
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: tensor {name!r}: {err}") from None
        if arr.size != int(np.prod(shape)):
            raise CheckpointError(f"{path}: tensor {name!r} data length {arr.size} != shape {shape}")
        tensors[name] = arr.reshape(shape)
    if version == 1:
        _pack_v1_cells(path, tensors)
    return tensors, meta
