"""The dense-offset line log: the one file format behind replay.

Both the agent's event log and the ledger are files of lines
    <offset>\\t<kind>\\t<timestamp>\\t<json body, sorted keys>\\n
with offsets dense from 0, so line i carries offset i. This module is the
only code that writes, parses or resumes that format. `encode` writes a
line from a body dict; `encode_text` frames a body its caller has already
written as canonical JSON, as the ledger does with the text it also hashes.
"""

from __future__ import annotations

import json
from typing import Collection, Iterator

from .errors import CorruptLogError, IoFailureError


# The one canonical JSON, for log bodies and the ledger's content hashes:
# json.dumps(value, sort_keys=True), from one C encoder built at import
# (JSONEncoder.encode builds a new one per call). It is given no marker dict,
# so calls share no state, even after one raised; a self-referencing value
# raises RecursionError, where json.dumps raises ValueError.
_DEFAULTS = json.JSONEncoder(sort_keys=True)
_encode = json.encoder.c_make_encoder(
    None, _DEFAULTS.default, json.encoder.encode_basestring_ascii, None,  # no markers, no indent
    _DEFAULTS.key_separator, _DEFAULTS.item_separator,
    True, False, True,  # sort_keys, skipkeys, allow_nan
)


def canonical_json(value) -> str:
    """json.dumps(value, sort_keys=True)."""
    return "".join(_encode(value, 0))


def encode(offset: int, kind: str, timestamp: int, body: dict) -> str:
    """One log line, newline included."""
    return encode_text(offset, kind, timestamp, canonical_json(body))


def encode_text(offset: int, kind: str, timestamp: int, body_json: str) -> str:
    """One log line, newline included, around a body given as its canonical JSON."""
    return f"{offset}\t{kind}\t{timestamp}\t{body_json}\n"


def read(path, kinds: Collection[str]) -> Iterator[tuple[int, str, int, dict]]:
    """Yield (offset, kind, timestamp, body) for each line of a log file.

    Raises IoFailureError when the file cannot be opened and CorruptLogError
    on a line that is not UTF-8 or is malformed, a kind outside `kinds`, or
    an offset gap. The file is read line by line and rows are yielded as
    they are parsed, so a caller that folds them holds one line and one
    parsed body at a time.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    with fh:
        for expected, raw in enumerate(fh):
            try:
                parts = raw.decode("utf-8").removesuffix("\n").split("\t", 3)
            except UnicodeDecodeError as exc:
                raise CorruptLogError(f"{path}: line at offset {expected} is not UTF-8") from exc
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
