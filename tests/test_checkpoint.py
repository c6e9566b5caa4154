import json

import numpy as np
import pytest

from pathrel.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
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


class TestRoundTrip:
    def test_values_and_shapes_survive(self, tmp_path):
        p = tmp_path / "m.json"
        save_checkpoint(p, TENSORS, meta={"note": "x"})
        loaded, meta = load_checkpoint(p)
        assert set(loaded) == set(TENSORS)
        for name, arr in TENSORS.items():
            assert loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr)
        assert meta == {"note": "x"}

    def test_meta_defaults_to_empty(self, tmp_path):
        p = tmp_path / "m.json"
        save_checkpoint(p, TENSORS)
        _, meta = load_checkpoint(p)
        assert meta == {}

    def test_float_values_exact(self, tmp_path):
        # repr round-trip must preserve every bit, including ugly values
        ugly = {"w": np.array([0.1, 1 / 3, 1e-308, -0.0, 2**53 + 1.0])}
        p = tmp_path / "m.json"
        save_checkpoint(p, ugly)
        loaded, _ = load_checkpoint(p)
        assert loaded["w"].tobytes() == ugly["w"].tobytes()


class TestDeterminism:
    def test_equal_tensors_equal_bytes(self):
        a = checkpoint_bytes(TENSORS, meta={"b": 1, "a": 2})
        b = checkpoint_bytes(dict(reversed(list(TENSORS.items()))), meta={"a": 2, "b": 1})
        assert a == b

    def test_keys_sorted_in_output(self):
        doc = json.loads(checkpoint_bytes(TENSORS))
        assert list(doc["tensors"]) == sorted(TENSORS)
        assert list(doc) == sorted(doc)

    def test_value_change_changes_bytes(self):
        other = {k: v.copy() for k, v in TENSORS.items()}
        other["scalar"] = np.array(3.0000000001)
        assert checkpoint_bytes(TENSORS) != checkpoint_bytes(other)


class TestValidation:
    def test_header_fields(self):
        doc = json.loads(checkpoint_bytes({}))
        assert doc["format"] == FORMAT_NAME
        assert doc["version"] == FORMAT_VERSION

    def test_wrong_format_name(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "other", "version": 1, "tensors": {}}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(p)

    def test_wrong_version(self, tmp_path):
        doc = json.loads(checkpoint_bytes(TENSORS))
        doc["version"] = 99
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_non_object_payload(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_data_shape_mismatch(self, tmp_path):
        doc = json.loads(checkpoint_bytes(TENSORS))
        doc["tensors"]["emb/word"]["shape"] = [3, 3]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="emb/word"):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(checkpoint_bytes(TENSORS)[:-20])
        with pytest.raises(CheckpointError, match=rf"{p.name}: not UTF-8 JSON"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "nope.json")

    def test_error_is_value_error(self):
        assert issubclass(CheckpointError, ValueError)
