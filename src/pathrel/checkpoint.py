"""Versioned checkpoints mapping parameter names to shaped float64 arrays.

Version 3, the only one read, is a JSON header and one raw payload, the
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
so the payload of a model is its store.data, and a load reads it into
the array that becomes the loaded model's arena.  Identical parameters
and meta always serialize to identical bytes (the determinism contract).
Each LSTM cell is one packed `<cell>/w` of shape (4H, X+H) and one
`<cell>/b` of length 4H.

A file without the magic, such as the all-JSON version 2, is refused; its
JSON is parsed only to name the fault.  Every error is a CheckpointError
whose message starts with the file name.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .atomic import atomic_open

FORMAT_NAME = "pathrel-checkpoint"
FORMAT_VERSION = 3
MAGIC = b"\x93PATHREL"
PREAMBLE = len(MAGIC) + 8  # the magic and the header length
F8 = np.dtype("<f8")
CHUNK = 1 << 15  # payload values (256 kB) read and checked at a time, while in cache


class CheckpointError(ValueError):
    pass


def checkpoint_bytes(tensors: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """The whole version-3 file for (name -> array, meta), built with one join."""
    arrays = {name: np.asarray(tensors[name], F8) for name in sorted(tensors)}
    specs, end = {}, 0
    for name, arr in arrays.items():
        specs[name] = {"data_offsets": [end, end + arr.nbytes], "shape": list(arr.shape)}
        end += arr.nbytes
    doc = {"format": FORMAT_NAME, "meta": meta or {}, "tensors": specs, "version": FORMAT_VERSION}
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    # each array's own buffer, flat: a (0, 0) array's memoryview cannot be cast
    payload = (memoryview(np.ascontiguousarray(arr).reshape(-1)).cast("B") for arr in arrays.values())
    return b"".join([MAGIC, struct.pack("<Q", len(header)), header, *payload])


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write checkpoint_bytes(tensors, meta) to path, whole or not at all (atomic_open).

    The file's full size is reserved (posix_fallocate) before the write, so
    replacing an old file starts no writeback of delayed-allocation pages.
    There is no fsync: a power failure can leave a zero-filled file, which
    load_checkpoint refuses by its magic; it never loads silently.
    """
    raw = checkpoint_bytes(tensors, meta)
    with atomic_open(path, "wb") as fh:
        # absent on some platforms; special files such as /dev/null refuse it
        with contextlib.suppress(AttributeError, OSError):
            os.posix_fallocate(fh.fileno(), 0, len(raw))
        fh.write(raw)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into (name -> array, meta).

    The arrays are views, in sorted-name order, into the one writable
    float64 array that the payload is read into.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pre = fh.read(PREAMBLE)
        if not (pre.startswith(MAGIC) or (pre and MAGIC.startswith(pre))):
            _header(path, pre + fh.read(), binary=False)  # raises, naming the fault
        if len(pre) < PREAMBLE:
            raise CheckpointError(f"{path}: {len(pre)} bytes, shorter than the {PREAMBLE}-byte "
                                  "magic and header length")
        (length,) = struct.unpack_from("<Q", pre, len(MAGIC))
        start = PREAMBLE + length
        if start > size:
            raise CheckpointError(f"{path}: header length {length} runs past the end of the file "
                                  f"({size} bytes)")
        doc = _header(path, fh.read(length), binary=True)
        spans = _spans(path, doc["tensors"], size - start)
        arena = np.empty((size - start) // 8, F8)
        for at in range(0, arena.size, CHUNK):
            chunk = arena[at:at + CHUNK]
            if fh.readinto(chunk) != chunk.nbytes:
                raise CheckpointError(f"{path}: the file ended while its payload was read")
            finite = np.isfinite(chunk)
            if not finite.all():
                name = next(n for n, (lo, hi, _) in spans.items() if lo <= at + finite.argmin() < hi)
                raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or infinite value")
    return {name: arena[lo:hi].reshape(shape) for name, (lo, hi, shape) in spans.items()}, doc["meta"]


def _header(path, raw: bytes, binary: bool) -> dict:
    """The checked JSON header; a file without the magic (not binary) is refused here."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: not UTF-8 JSON ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
    if not binary or doc.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {doc.get('version')!r}")
    if not isinstance(doc.get("tensors"), dict):
        raise CheckpointError(f"{path}: no tensors object")
    doc.setdefault("meta", {})
    if not isinstance(doc["meta"], dict):
        raise CheckpointError(f"{path}: meta is not an object")
    return doc


def _spans(path, specs: dict, size: int) -> dict[str, tuple[int, int, tuple]]:
    """name -> (first, end, shape) in payload values, checked against its size in bytes."""
    spans, pos = {}, 0
    for name in sorted(specs):
        spec = specs[name]
        if not isinstance(spec, dict) or "shape" not in spec or "data_offsets" not in spec:
            raise CheckpointError(f"{path}: tensor {name!r} needs a shape and data_offsets")
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
    if size != pos:
        fault = "truncated" if size < pos else f"followed by {size - pos} trailing bytes"
        raise CheckpointError(f"{path}: payload of {size} bytes, header describes {pos}: {fault}")
    return {name: (lo, hi, _shape(path, name, specs[name]["shape"], hi - lo))
            for name, (lo, hi) in spans.items()}


def _shape(path, name: str, shape, count: int) -> tuple:
    """shape as a tuple; it must be a list of non-negative JSON integers whose product is count."""
    # JSON integers only: bool is an int subclass, and int() would take floats and digit strings
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise CheckpointError(
            f"{path}: tensor {name!r}: shape must be non-negative integers, got {json.dumps(shape)}"
        )
    shape = tuple(shape)
    if count != math.prod(shape):
        raise CheckpointError(f"{path}: tensor {name!r} data length {count} != shape {shape}")
    return shape
