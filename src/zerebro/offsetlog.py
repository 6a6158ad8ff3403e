"""The dense-offset line log: the one file format behind replay.

Both the agent's event log and the ledger are files of lines
    <offset>\\t<kind>\\t<timestamp>\\t<json body, sorted keys>\\n
with offsets dense from 0, so line i carries offset i. This module is the
only code that writes, parses or resumes that format.
"""

from __future__ import annotations

import json
from typing import Collection, Iterator

from .errors import CorruptLogError, IoFailureError


def encode(offset: int, kind: str, timestamp: int, body: dict) -> str:
    """One log line, newline included."""
    return f"{offset}\t{kind}\t{timestamp}\t{json.dumps(body, sort_keys=True)}\n"


def read(path, kinds: Collection[str]) -> Iterator[tuple[int, str, int, dict]]:
    """Yield (offset, kind, timestamp, body) for each line of a log file.

    Raises IoFailureError when the file cannot be opened and CorruptLogError
    on a malformed line, a kind outside `kinds`, or an offset gap. The file
    is read line by line and rows are yielded as they are parsed, so a
    caller that folds them holds one line and one parsed body at a time.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    with fh:
        for expected, line in enumerate(fh):
            parts = line.removesuffix("\n").split("\t", 3)
            if len(parts) != 4:
                raise CorruptLogError(f"{path}: malformed line at offset {expected}")
            try:
                offset, timestamp, body = int(parts[0]), int(parts[2]), json.loads(parts[3])
            except ValueError as exc:
                raise CorruptLogError(
                    f"{path}: unparseable line at offset {expected}: {exc}"
                ) from exc
            if offset != expected:
                raise CorruptLogError(f"{path}: offset gap, expected {expected} found {offset}")
            if parts[1] not in kinds:
                raise CorruptLogError(f"{path}: unknown kind {parts[1]!r} at offset {offset}")
            if not isinstance(body, dict):
                raise CorruptLogError(f"{path}: body at offset {offset} is not a JSON object")
            yield offset, parts[1], timestamp, body


def resume(path) -> int:
    """The offset the next appended line gets: 0 for a missing or empty file,
    else its line count.

    A non-empty file that does not end in a newline has a torn last line,
    and appending would glue the next line onto it, so that raises
    CorruptLogError. Other OSErrors propagate to the caller.
    """
    lines, last = 0, b"\n"
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                lines += chunk.count(b"\n")
                last = chunk[-1:]
    except FileNotFoundError:
        return 0
    if last != b"\n":
        raise CorruptLogError(
            f"{path}: line at offset {lines} is torn (no trailing newline); "
            "truncate it before appending"
        )
    return lines
