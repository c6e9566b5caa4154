import os

import numpy as np
import pytest

from pathrel.atomic import atomic_open
from pathrel.checkpoint import load_checkpoint, save_checkpoint
from pathrel.data import save_dataset
from pathrel.synth import SynthConfig, generate

OLD = b"the previous artifact\n"


class Interrupted(Exception):
    pass


def failing_after_one(items):
    """Yield the first item, then fail as an interrupted writer would."""
    yield items[0]
    raise Interrupted("stopped partway")


def _write_then_fail(path):
    with atomic_open(path, "wb") as fh:
        fh.write(b"half of a new")
        raise Interrupted("stopped partway")


WRITERS = {
    "atomic_open": _write_then_fail,
    "save_dataset": lambda path: save_dataset(
        path, failing_after_one(generate(SynthConfig(n=3, k_types=2, seed=1)))
    ),
    "save_checkpoint": lambda path: save_checkpoint(path, {"w": np.ones(3)}, {"bad": Interrupted()}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temporary(tmp_path, writer):
    target = tmp_path / "artifact"
    target.write_bytes(OLD)
    with pytest.raises((Interrupted, TypeError)):
        WRITERS[writer](target)
    assert target.read_bytes() == OLD
    assert os.listdir(tmp_path) == ["artifact"]


def test_failed_first_write_creates_nothing(tmp_path):
    with pytest.raises(Interrupted):
        _write_then_fail(tmp_path / "new")
    assert os.listdir(tmp_path) == []


def test_missing_directory_error_names_the_target(tmp_path):
    target = tmp_path / "no-such-dir" / "m.ckpt"
    with pytest.raises(FileNotFoundError) as info:
        save_checkpoint(target, {"w": np.ones(2)})
    assert info.value.filename == str(target)


def test_successful_write_replaces_whole_file(tmp_path):
    target = tmp_path / "m.ckpt"
    target.write_bytes(OLD * 1000)
    save_checkpoint(target, {"w": np.arange(3.0)}, {"k": 1})
    tensors, meta = load_checkpoint(target)
    assert np.array_equal(tensors["w"], [0.0, 1.0, 2.0]) and meta == {"k": 1}
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_symlink_target_is_written_through(tmp_path):
    real = tmp_path / "real.txt"
    real.write_bytes(OLD)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    with atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and real.read_text() == "new\n"


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_non_regular_file_is_written_directly():
    with atomic_open(os.devnull) as fh:
        fh.write("discarded\n")
