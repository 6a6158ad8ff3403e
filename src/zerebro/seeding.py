"""Seeded random draws.

A draw seeded by content (a plan, a text, art, a post's engagement)
takes as its seed the 8-byte BLAKE2b digest of its parts, optionally
keyed, read as a little-endian integer (`seed`); a run's own draws
(backrooms' coin and corpus pick, the agent command's observations) take
the run's seed. `Draws(seed)` hands it to numpy's PCG64 through its
SeedSequence, as `np.random.default_rng(seed)` does.

`Draws` computes from PCG64's raw 64-bit words exactly what
`np.random.default_rng(seed)` returns for the same sequence of calls to
`random()`, `integers(n)` and `uniform(low, high, size)`, with numpy's own
algorithms: a double is the top 53 bits of a word, and a bounded integer
is Lemire's multiply-and-reject (Lemire, "Fast Random Integer Generation
in an Interval", ACM TOMACS 2019), on 32-bit halves below 2**32 with the
unused high half kept for the next 32-bit draw, as PCG64's own `next32`
keeps it. What this saves is numpy's per-call dispatch, several
microseconds a scalar draw, which dominated text generation and planning.

Words are pulled 32 at a time. Pulling ahead is safe because a `Draws` is
private to one caller: nothing else reads its bit generator after it, so
the words past the last one used are never seen. Reading the bit
generator's words ties the bytes zerebro writes to the PCG64 stream,
which NumPy's NEP 19 policy keeps fixed across releases, rather than to
`Generator` methods, whose algorithms it lets change.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import numpy as np

# words pulled from the bit generator at a time
_BATCH = 32
_LOW32 = 0xFFFFFFFF
_LOW64 = 0xFFFFFFFFFFFFFFFF
# (word >> 11) * 2**-53: the 53-bit double of a 64-bit word, exactly
_DOUBLE_UNIT = 2.0**-53


def u64(n: int) -> bytes:
    """n as 8 little-endian unsigned bytes."""
    return n.to_bytes(8, "little", signed=False)


def seed(*parts: bytes, key: bytes = b"") -> int:
    """BLAKE2b-64 of the concatenated parts, keyed, as a little-endian integer."""
    digest = hashlib.blake2b(b"".join(parts), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


class Draws:
    """The draws of `np.random.default_rng(seed)`, computed from PCG64's raw
    words; private to one caller (see the module docstring)."""

    __slots__ = ("_bit_generator", "_words", "_next", "_half")

    def __init__(self, seed: int):
        self._bit_generator = np.random.PCG64(seed)
        self._words = iter(())  # the pulled words not yet used
        self._next = self._words.__next__
        self._half = -1  # the buffered high half of a word, or -1 for none

    def _refill(self) -> int:
        """Pull the next batch of words; return the first."""
        self._words = iter(self._bit_generator.random_raw(_BATCH).tolist())
        self._next = self._words.__next__
        return self._next()

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            return self._refill()

    def _word32(self) -> int:
        """PCG64's next32: the low half of a fresh word, then its high half."""
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._word()
        self._half = word >> 32
        return word & _LOW32

    def random(self) -> float:
        """A double in [0, 1): `Generator.random()`."""
        try:
            word = self._next()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _DOUBLE_UNIT

    def integers(self, n: int) -> int:
        """An int in [0, n): `Generator.integers(n)`, for 1 <= n <= 2**64."""
        if n <= 0x100000000:
            if n < 2:
                if n < 1:
                    raise ValueError(f"integers needs n >= 1, got {n}")
                return 0  # numpy draws nothing for a one-value range
            # _word32 inlined: text generation makes most of its draws here
            half = self._half
            if half >= 0:
                self._half = -1
            else:
                try:
                    word = self._next()
                except StopIteration:
                    word = self._refill()
                self._half = word >> 32
                half = word & _LOW32
            if n == 0x100000000:
                return half
            m = half * n
            if m & _LOW32 < n:
                threshold = (0x100000000 - n) % n
                while m & _LOW32 < threshold:
                    m = self._word32() * n
            return m >> 32
        if n > 0x10000000000000000:
            raise ValueError(f"integers needs n <= 2**64, got {n}")
        word = self._word()
        if n == 0x10000000000000000:
            return word
        m = word * n
        if m & _LOW64 < n:
            threshold = (0x10000000000000000 - n) % n
            while m & _LOW64 < threshold:
                m = self._word() * n
        return m >> 64

    def uniform(self, low, high, size=None) -> np.ndarray:
        """`Generator.uniform(low, high, size)`: low + (high - low) * u, with
        u drawn in C order over size, or over the bounds' broadcast shape."""
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        u = np.empty(np.broadcast(low, high).shape if size is None else size)
        # the pulled words first, then the rest straight from the bit generator
        held = list(islice(self._words, u.size))
        words = self._bit_generator.random_raw(u.size - len(held))
        if held:
            words = np.concatenate((np.array(held, dtype=np.uint64), words))
        u.flat = (words >> 11) * _DOUBLE_UNIT
        return low + (high - low) * u
