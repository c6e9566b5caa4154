import errno
import json
import os
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import join_checkpoint, json_checkpoint_bytes, split_checkpoint
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pathrel.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MAGIC,
    PREAMBLE,
    CheckpointError,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)

TENSORS = {
    "emb/word": np.arange(6, dtype=np.float64).reshape(2, 3),
    "fwd/conv/b": np.array([0.5, -1.25]),
    "scalar": np.array(3.0),
}

# -0.0, the smallest normal, subnormals, and an integer a float64 cannot hold exactly
UGLY = [0.1, 1 / 3, -0.0, 1e-308, 2.2250738585072014e-308, 5e-324, 1.5e-310, 2**53 + 1.0,
        1.7976931348623157e308]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory for property tests, whose examples cannot take a function-scoped tmp_path."""
    return tmp_path_factory.mktemp("checkpoint")


def assert_bit_identical(loaded: dict, tensors: dict) -> None:
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        want = np.asarray(arr, np.float64)
        assert loaded[name].shape == want.shape, name
        assert loaded[name].tobytes() == want.tobytes(), name


class TestRoundTrip:
    def test_values_and_shapes_survive(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, TENSORS, meta={"note": "x"})
        loaded, meta = load_checkpoint(p)
        assert_bit_identical(loaded, TENSORS)
        assert meta == {"note": "x"}

    def test_meta_defaults_to_empty(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, TENSORS)
        _, meta = load_checkpoint(p)
        assert meta == {}

    def test_float_values_exact(self, tmp_path):
        ugly = {"w": np.array(UGLY)}
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ugly)
        loaded, _ = load_checkpoint(p)
        assert loaded["w"].tobytes() == ugly["w"].tobytes()

    def test_arrays_are_writable_views_tiling_one_array(self, tmp_path):
        """The payload is read into one float64 array, and the tensors are its consecutive
        views in sorted-name order, as a ParamStore arena lays them out."""
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, TENSORS)
        loaded, _ = load_checkpoint(p)
        arena = loaded["emb/word"].base
        assert isinstance(arena, np.ndarray) and arena.dtype == np.float64 and arena.shape == (9,)
        at = arena.ctypes.data
        for name in sorted(loaded):
            arr = loaded[name]
            assert arr.base is arena and arr.flags.writeable and arr.flags.c_contiguous, name
            assert arr.ctypes.data == at, name
            at += arr.nbytes

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(
        st.text(alphabet="abc/_é", min_size=1, max_size=6),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                      st.sampled_from(UGLY))),
        max_size=5,
    ), st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4), max_size=3))
    def test_round_trip_property(self, scratch, tensors, meta):
        """Random shapes (0-size arrays and scalars too) and ugly values load bit for bit,
        and equal inputs give equal bytes whatever their order."""
        raw = checkpoint_bytes(tensors, meta)
        assert raw == checkpoint_bytes(dict(reversed(list(tensors.items()))),
                                       dict(reversed(list(meta.items()))))
        assert raw == checkpoint_bytes({k: v.copy() for k, v in tensors.items()}, dict(meta))
        path = scratch / "m.ckpt"
        path.write_bytes(raw)
        loaded, got_meta = load_checkpoint(path)
        assert_bit_identical(loaded, tensors)
        assert got_meta == meta

    def test_header_length_with_low_byte_of_a_brace_still_loads(self, tmp_path):
        """A bare length prefix of 0x..7B would start with '{', as a JSON file does; the
        magic in front of it keeps the file binary.  The writer pads to multiples of 8,
        so this header (0x17B bytes) is padded by hand."""
        header, payload = split_checkpoint(checkpoint_bytes(TENSORS, {"note": "x"}))
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        text += b" " * (0x17B - len(text))
        raw = MAGIC + struct.pack("<Q", len(text)) + text + payload
        assert raw[len(MAGIC)] == ord("{")
        p = tmp_path / "m.ckpt"
        p.write_bytes(raw)
        loaded, meta = load_checkpoint(p)
        assert_bit_identical(loaded, TENSORS)
        assert meta == {"note": "x"}


class TestDeterminism:
    def test_equal_tensors_equal_bytes(self):
        a = checkpoint_bytes(TENSORS, meta={"b": 1, "a": 2})
        b = checkpoint_bytes(dict(reversed(list(TENSORS.items()))), meta={"a": 2, "b": 1})
        assert a == b

    def test_keys_sorted_in_output(self):
        header, _ = split_checkpoint(checkpoint_bytes(TENSORS))
        assert list(header["tensors"]) == sorted(TENSORS)
        assert list(header) == sorted(header)

    def test_value_change_changes_bytes(self):
        other = {k: v.copy() for k, v in TENSORS.items()}
        other["scalar"] = np.array(3.0000000001)
        assert checkpoint_bytes(TENSORS) != checkpoint_bytes(other)

    def test_payload_is_every_tensor_in_sorted_name_order(self):
        raw = checkpoint_bytes(TENSORS)
        header, payload = split_checkpoint(raw)
        assert payload == b"".join(TENSORS[n].astype("<f8").tobytes() for n in sorted(TENSORS))
        assert [s["data_offsets"] for s in header["tensors"].values()] == [[0, 48], [48, 64], [64, 72]]
        assert (len(raw) - len(payload)) % 8 == 0


class TestValidation:
    def test_header_fields(self):
        raw = checkpoint_bytes({})
        assert raw.startswith(MAGIC) and len(MAGIC) == 8
        header, payload = split_checkpoint(raw)
        assert header["format"] == FORMAT_NAME
        assert header["version"] == FORMAT_VERSION == 3
        assert payload == b""

    def test_wrong_format_name(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "other", "version": 1, "tensors": {}}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(p)

    def test_wrong_version(self, tmp_path):
        header, payload = split_checkpoint(checkpoint_bytes(TENSORS))
        header["version"] = 99
        p = tmp_path / "bad.ckpt"
        p.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_non_object_payload(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_data_shape_mismatch(self, tmp_path):
        header, payload = split_checkpoint(checkpoint_bytes(TENSORS))
        header["tensors"]["emb/word"]["shape"] = [3, 3]
        p = tmp_path / "bad.ckpt"
        p.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(CheckpointError, match="emb/word"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(checkpoint_bytes(TENSORS)[:-20])
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: .*truncated"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.json")

    def test_error_is_value_error(self):
        assert issubclass(CheckpointError, ValueError)


def _header_edit(edit):
    def damage(raw):
        header, payload = split_checkpoint(raw)
        edit(header)
        return join_checkpoint(header, payload)
    return damage


def _set(name, field, value):
    return _header_edit(lambda h: h["tensors"][name].__setitem__(field, value))


def _poke(index, value):
    """Overwrite payload value number index (sorted-name order) with value."""
    def damage(raw):
        header, payload = split_checkpoint(raw)
        at = len(raw) - len(payload) + 8 * index
        return raw[:at] + np.array([value], "<f8").tobytes() + raw[at + 8:]
    return damage


def _length(delta):
    def damage(raw):
        (length,) = struct.unpack_from("<Q", raw, len(MAGIC))
        return raw[:len(MAGIC)] + struct.pack("<Q", length + delta) + raw[PREAMBLE:]
    return damage


def _raw_header(text: bytes):
    def damage(raw):
        _, payload = split_checkpoint(raw)
        return MAGIC + struct.pack("<Q", len(text)) + text + payload
    return damage


# every damage to a version-3 file of TENSORS, and what its error names after the file name;
# the offsets are emb/word [0, 48], fwd/conv/b [48, 64], scalar [64, 72]
V3_DAMAGE = {
    "empty-after-magic": (lambda raw: raw[:8], "8 bytes, shorter than the 16-byte"),
    "magic-prefix": (lambda raw: raw[:5], "5 bytes, shorter than the 16-byte"),
    "length-cut": (lambda raw: raw[:15], "15 bytes, shorter than the 16-byte"),
    "length-past-end": (lambda raw: _length(len(raw))(raw), "runs past the end of the file"),
    "header-cut": (lambda raw: raw[:40], "runs past the end of the file"),
    "header-not-utf8": (_raw_header(b"\xff" * 16), "not UTF-8 JSON"),
    "header-not-json": (_raw_header(b'{"format":     '), "not UTF-8 JSON"),
    "header-short-by-8": (_length(-8), "not UTF-8 JSON"),
    "header-array": (_raw_header(b"[1, 2, 3]       "), "not a pathrel-checkpoint file"),
    "format": (_header_edit(lambda h: h.__setitem__("format", "other")), "not a pathrel-checkpoint"),
    "version-2-header": (_header_edit(lambda h: h.__setitem__("version", 2)),
                         "unsupported version 2"),
    "version-missing": (_header_edit(lambda h: h.pop("version")), "unsupported version None"),
    "no-tensors": (_header_edit(lambda h: h.pop("tensors")), "no tensors object"),
    "meta-list": (_header_edit(lambda h: h.__setitem__("meta", [])), "meta is not an object"),
    "no-offsets": (_header_edit(lambda h: h["tensors"]["scalar"].pop("data_offsets")),
                   "'scalar' needs a shape and data_offsets"),
    "no-shape": (_header_edit(lambda h: h["tensors"]["scalar"].pop("shape")),
                 "'scalar' needs a shape and data_offsets"),
    "spec-list": (_header_edit(lambda h: h["tensors"].__setitem__("scalar", [])),
                  "'scalar' needs a shape"),
    "gap": (_set("fwd/conv/b", "data_offsets", [56, 72]), "'fwd/conv/b' starts at byte 56 of the "
            "payload, not 48: a gap"),
    "overlap": (_set("fwd/conv/b", "data_offsets", [40, 56]), "'fwd/conv/b' starts at byte 40 of "
                "the payload, not 48: an overlap"),
    "unsorted": (_header_edit(lambda h: (h["tensors"]["scalar"].__setitem__("data_offsets", [0, 8]),
                                         h["tensors"]["emb/word"].__setitem__("data_offsets", [8, 56]))),
                 "'emb/word' starts at byte 8 of the payload, not 0: a gap"),
    "offset-negative": (_set("emb/word", "data_offsets", [-8, 48]), "'emb/word': data_offsets must"),
    "offset-reversed": (_set("emb/word", "data_offsets", [48, 0]), "'emb/word': data_offsets must"),
    "offset-unaligned": (_set("emb/word", "data_offsets", [0, 47]), "'emb/word': data_offsets must"),
    "offset-float": (_set("emb/word", "data_offsets", [0.0, 48]), "'emb/word': data_offsets must"),
    "offset-bool": (_set("emb/word", "data_offsets", [False, 48]), "'emb/word': data_offsets must"),
    "offset-one": (_set("emb/word", "data_offsets", [0]), "'emb/word': data_offsets must"),
    "offset-string": (_set("emb/word", "data_offsets", "0:48"), "'emb/word': data_offsets must"),
    "out-of-range": (_set("scalar", "data_offsets", [64, 80]), "payload of 72 bytes, header "
                     "describes 80: truncated"),
    "truncated": (lambda raw: raw[:-8], "payload of 64 bytes, header describes 72: truncated"),
    "truncated-mid-value": (lambda raw: raw[:-3], "payload of 69 bytes, header describes 72: "
                            "truncated"),
    "trailing": (lambda raw: raw + b"\0" * 8, "header describes 72: followed by 8 trailing bytes"),
    "trailing-odd": (lambda raw: raw + b"x", "followed by 1 trailing bytes"),
    "size-mismatch": (_set("emb/word", "shape", [2, 2]), "'emb/word' data length 6 != shape (2, 2)"),
    "scalar-as-vector": (_set("scalar", "shape", [2]), "'scalar' data length 1 != shape (2,)"),
    "shape-float": (_set("emb/word", "shape", [2.0, 3]), "'emb/word': shape must be non-negative"),
    "shape-negative": (_set("emb/word", "shape", [-2, -3]), "'emb/word': shape must be non-negative"),
    "nan": (_poke(7, np.nan), "'fwd/conv/b' holds a NaN or infinite value"),
    "inf": (_poke(8, np.inf), "'scalar' holds a NaN or infinite value"),
    "minus-inf": (_poke(0, -np.inf), "'emb/word' holds a NaN or infinite value"),
}


class TestSave:
    @pytest.mark.parametrize("fallocate", ["present", "missing", "unsupported"])
    def test_bytes_do_not_depend_on_posix_fallocate(self, tmp_path, monkeypatch, fallocate):
        """The whole file's size is reserved when the call exists and the file system takes
        it; without it the same bytes are written."""
        raw = checkpoint_bytes(TENSORS, {"note": "x"})
        reserved = []
        if fallocate == "present":
            real = os.posix_fallocate

            def record(fd, offset, length):
                reserved.append((offset, length))
                real(fd, offset, length)

            monkeypatch.setattr(os, "posix_fallocate", record)
        elif fallocate == "missing":
            monkeypatch.delattr(os, "posix_fallocate", raising=False)
        else:
            def refuse(fd, offset, length):
                raise OSError(errno.EOPNOTSUPP, os.strerror(errno.EOPNOTSUPP))

            monkeypatch.setattr(os, "posix_fallocate", refuse)
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"an older, longer file" * 100)
        save_checkpoint(p, TENSORS, {"note": "x"})
        assert p.read_bytes() == raw
        assert reserved == ([(0, len(raw))] if fallocate == "present" else [])
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_special_file_takes_the_bytes_without_a_reservation(self):
        save_checkpoint(os.devnull, TENSORS, {"note": "x"})


class TestVersion3Errors:
    @pytest.mark.parametrize("case", V3_DAMAGE)
    def test_damage_names_the_file_and_the_fault(self, tmp_path, case):
        damage, message = V3_DAMAGE[case]
        p = tmp_path / "bad.ckpt"
        p.write_bytes(damage(checkpoint_bytes(TENSORS)))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value).startswith(f"{p}: ")
        assert message in str(err.value)

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        """The size checked before the read is not trusted to hold during it."""
        raw = checkpoint_bytes(TENSORS)
        p = tmp_path / "m.ckpt"
        p.write_bytes(raw[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: the file ended while"):
            load_checkpoint(p)

    def test_undamaged_file_loads(self, tmp_path):
        # the damage table's offsets and payload indices describe this file
        p = tmp_path / "m.ckpt"
        p.write_bytes(checkpoint_bytes(TENSORS))
        loaded, _ = load_checkpoint(p)
        assert_bit_identical(loaded, TENSORS)


class TestVersion2:
    """The all-JSON layout of version 2, written before version 3, is refused, as is
    version 1's envelope: a file without the magic is parsed only to name its fault."""

    @pytest.mark.parametrize("edit, damage", [
        (lambda doc: None, "unsupported version 2"),
        (lambda doc: doc.__setitem__("version", 1), "unsupported version 1"),
        (lambda doc: doc.__setitem__("version", 3), "unsupported version 3"),
        # tensor damage, in the words of the version-2 reader that named it
        (lambda doc: doc["tensors"]["emb/word"].__setitem__("shape", [3, 3]),
         "'emb/word' data length 6 != shape (3, 3)"),
        (lambda doc: doc["tensors"]["emb/word"].__setitem__("shape", [True, 6]),
         "'emb/word': shape must be non-negative"),
        (lambda doc: doc["tensors"]["scalar"].pop("data"), "'scalar' needs a shape and data"),
        (lambda doc: doc["tensors"]["scalar"].__setitem__("data", ["x"]), "'scalar': could not"),
        (lambda doc: doc["tensors"]["scalar"].__setitem__("data", ["NaN"]),
         "'scalar' holds a NaN or infinite value"),
    ])
    def test_errors(self, tmp_path, edit, damage):
        """Refused by the version, before any tensor is read: the tensor damage goes unnamed."""
        doc = json.loads(json_checkpoint_bytes(TENSORS))
        edit(doc)
        p = tmp_path / "v2.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == f"{p}: unsupported version {doc['version']}"
        assert (damage in str(err.value)) == damage.startswith("unsupported version")

    @pytest.mark.parametrize("raw", [
        b"", b"\xff\xfe{}", b'{"format": "pathrel-checkpoint"',
        # what a power failure after save_checkpoint's posix_fallocate can leave
        pytest.param(bytes(96), id="zero-filled"),
    ])
    def test_not_json(self, tmp_path, raw):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: not UTF-8 JSON"):
            load_checkpoint(p)
