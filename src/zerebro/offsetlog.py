"""The dense-offset line log: the one format of every log and snapshot zerebro reads back.

The agent's event log, the ledger and the memory snapshot are files of lines
    <offset>\\t<kind>\\t<timestamp>\\t<json body, sorted keys>\\n
with offsets dense from 0, so line i carries offset i. This module is the
only code that writes or parses that format. `encode` writes a line from
a body dict; `encode_text` frames a body its caller has already written as
canonical JSON, as the ledger does with the text it also hashes. `parse`
reads lines already read, as the snapshot's loader does; `read`, a file.

Nothing appends to an existing file: each log is committed whole by `atomic.staged`,
so a new log starts at offset 0 and a torn last line is never built on.
"""

from __future__ import annotations

import json
from typing import Collection, Iterable, Iterator

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
    """`parse` over a file, read a line at a time, so a caller folding the rows
    holds one line and one body at a time; IoFailureError if it cannot be opened."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from exc
    with fh:
        yield from parse(fh, kinds, path)


def parse(lines: Iterable[bytes], kinds: Collection[str], path) -> Iterator[tuple]:
    """Yield (offset, kind, timestamp, body) for each line, as it is parsed.

    Raises CorruptLogError, naming path and the offset, on a line that is not
    UTF-8 or is malformed, an offset or timestamp column that is not its
    integer's own str (so "+1", " 1" and "1_000", which int() takes, are
    refused), a kind outside `kinds`, or a body that is not a JSON object.
    """
    for offset, raw in enumerate(lines):
        try:
            parts = raw.decode("utf-8").removesuffix("\n").split("\t", 3)
        except UnicodeDecodeError as exc:
            raise CorruptLogError(f"{path}: line at offset {offset} is not UTF-8") from exc
        if len(parts) != 4:
            raise CorruptLogError(f"{path}: malformed line at offset {offset}")
        if parts[0] != str(offset):
            raise CorruptLogError(f"{path}: line at offset {offset} has offset {parts[0]!r}")
        try:
            timestamp, body = int(parts[2]), json.loads(parts[3])
        except ValueError as exc:
            raise CorruptLogError(f"{path}: unparseable line at offset {offset}: {exc}") from exc
        if str(timestamp) != parts[2]:
            raise CorruptLogError(f"{path}: line at offset {offset} has timestamp {parts[2]!r}")
        if parts[1] not in kinds:
            raise CorruptLogError(f"{path}: unknown kind {parts[1]!r} at offset {offset}")
        if not isinstance(body, dict):
            raise CorruptLogError(f"{path}: body at offset {offset} is not a JSON object")
        yield offset, parts[1], timestamp, body
