"""Content-keyed random streams.

Every stream seeded by content (a turn's plan, a generated text, procedural
art, a remote-stub vector, a post's engagement) is derived the same way:
the 8-byte BLAKE2b digest of its parts, optionally keyed, read as a
little-endian integer and handed to numpy's default generator. Hashing the
joined parts equals feeding them to the hash one `update` at a time.
"""

from __future__ import annotations

import hashlib

import numpy as np


def u64(n: int) -> bytes:
    """n as 8 little-endian unsigned bytes."""
    return n.to_bytes(8, "little", signed=False)


def stream(*parts: bytes, key: bytes = b"") -> np.random.Generator:
    """The generator seeded by BLAKE2b-64 of the concatenated parts."""
    digest = hashlib.blake2b(b"".join(parts), digest_size=8, key=key).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))
