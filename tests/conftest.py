import hashlib
import json
import sys
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _rechecksum(path, edit) -> None:
    """Rewrite the memory snapshot at path through edit, then re-checksum it.

    edit changes, in place, the lines before the checksum line, given as
    [offset, kind, timestamp, body] lists: the columns as str, so a test may
    write any text there, and the body as a dict, written back with sorted
    keys. The new checksum line is encoded here, not by zerebro.
    """
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines()[:-1]:
        offset, kind, timestamp, body = line.split("\t", 3)
        rows.append([offset, kind, timestamp, json.loads(body)])
    edit(rows)
    body = "".join(f"{o}\t{k}\t{t}\t{json.dumps(b, sort_keys=True)}\n" for o, k, t, b in rows)
    digest = json.dumps({"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()})
    Path(path).write_text(f"{body}{len(rows)}\tchecksum\t0\t{digest}\n", encoding="utf-8")


@pytest.fixture
def rechecksum():
    """_rechecksum, for the snapshot corruption tests of every test file."""
    return _rechecksum
