"""Crash-safe file replacement: a file is either its old bytes or its new ones.

`staged` is the one commit path for every file a command leaves: `write_atomic`
writes a whole file through it, and the event log streams its lines into it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import IoFailureError


@contextmanager
def staged(path):
    """Yield a binary file that replaces path's contents on a clean exit.

    path's directory is made first, with any missing parents. The file is a
    temp file beside path. On a clean exit it is fsynced and moved over path
    with os.replace. The directory is then fsynced, so the rename too
    survives a power loss, and so is the parent of each directory made here,
    so a new directory survives with the file in it. An exception up to the
    rename removes the temp file, and each directory made here that is left
    empty, and leaves path as it was. Any OSError raises IoFailureError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        made = [parent for parent in path.parents if not parent.exists()]  # deepest first
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            for parent in made:  # one that holds a file, or was never made, stays
                with suppress(OSError):
                    parent.rmdir()
            raise
        for synced in [path.parent, *(new.parent for new in made)]:
            directory = os.open(synced, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def write_atomic(path, data: bytes | str) -> None:
    """Replace path's contents with data, text encoded as UTF-8, through `staged`."""
    with staged(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
