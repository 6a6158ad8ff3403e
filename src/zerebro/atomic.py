"""Crash-safe file replacement: a file is either its old bytes or its new ones.

Snapshots, ledgers and run manifests are written through `write_atomic`,
so a crash or a failed write mid-way never loses the previous file.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Replace path's contents with data.

    The bytes go to a temp file in the same directory, which is flushed,
    fsynced, then moved over path with os.replace. On any failure up to the
    rename the temp file is removed, path is left as it was, and the error
    propagates. The directory is then fsynced, so the rename itself survives
    a power loss; an error there propagates with path already replaced.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
