"""Crash-safe file replacement: a file is either its old bytes or its new ones.

`write_atomic` is the one writer of whole files; only the event log,
streamed a line at a time, is written otherwise.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import IoFailureError


def write_atomic(path, data: bytes | str) -> None:
    """Replace path's contents with data, text encoded as UTF-8.

    The bytes go to a temp file beside path, which is fsynced and moved over
    path with os.replace; the directory is then fsynced, so the rename too
    survives a power loss. A failure up to the rename removes the temp file
    and leaves path as it was. Any OSError raises IoFailureError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
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
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
