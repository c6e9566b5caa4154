"""Files written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """open(path, mode) for writing, through a temporary file beside path.

    The temporary file replaces path (os.replace) only when the block ends
    without an error; otherwise it is removed and an existing path keeps
    its bytes.  There is no fsync: an interrupted run leaves no truncated
    file, but the data may still be lost on a power failure.  A path that
    exists and is not a regular file, such as /dev/null, is written
    directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as err:  # name the file asked for, not the temporary one
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
