"""Deterministic text embeddings via signed character n-gram hashing.

Every n-gram of the utf-8 byte stream, for the fixed range of n from
NGRAM_MIN = 3 to NGRAM_MAX = 5 (a shorter text is one whole-text gram), is
hashed in one rolling pass, finalized with every other window in one
salted mixing pass, and lands in one of D buckets, where it contributes +1
or -1 (second hash bit); then the bucket vector is L2-normalized. The
result is a unit vector that is bit-reproducible for a given (text,
config) pair, with no model files and no network.

Vectors are plain float64 numpy arrays of shape (dimension,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, DimensionMismatchError, EmptyTextError

DEFAULT_DIMENSION = 768
NGRAM_MIN, NGRAM_MAX = 3, 5

# splitmix64 constants; keep the hash family stable across releases,
# persisted snapshots depend on it.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_POLY = np.uint64(0x100000001B3)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Hash-family parameters. Same config + same text = same vector."""

    dimension: int = DEFAULT_DIMENSION
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 2:
            raise BadConfigError(f"dimension must be >= 2, got {self.dimension}")
        if not 0 <= self.seed < 2**64:
            raise BadConfigError("seed must fit in 64 unsigned bits")


def _mix(h: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, salted element by element."""
    z = (h ^ salt) + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def embed(text: str, config: EmbeddingConfig = EmbeddingConfig()) -> np.ndarray:
    """Embed text as a unit-norm vector of config.dimension.

    One rolling pass extends each window's polynomial hash by a byte per n.
    Every n from min(NGRAM_MIN, len) to NGRAM_MAX that fits is hashed, salted
    with the seed and n: a text shorter than NGRAM_MIN bytes is one whole-text
    gram, so any non-blank text embeds. The windows of every n are mixed in
    one pass, each with its own n's salt. Raises EmptyTextError for empty or
    whitespace-only text.
    """
    if not text or not text.strip():
        raise EmptyTextError("cannot embed empty or whitespace-only text")

    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    first = min(NGRAM_MIN, len(data))
    h = np.zeros(len(data) + 1, dtype=np.uint64)  # the empty window at each start
    windows, salts = [], []
    for n in range(1, min(NGRAM_MAX, len(data)) + 1):
        h = h[:-1] * _POLY + data[n - 1 :]
        if n >= first:
            windows.append(h)
            salts.append((config.seed ^ (n * 0x9E3779B97F4A7C15)) % 2**64)
    h = _mix(
        np.concatenate(windows),
        np.repeat(np.array(salts, dtype=np.uint64), [len(w) for w in windows]),
    )

    buckets = (h % np.uint64(config.dimension)).astype(np.intp)
    signs = np.where((h >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
    vec = np.bincount(buckets, weights=signs, minlength=config.dimension)

    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # Reachable only through exact sign cancellation across every bucket.
        raise EmptyTextError(f"text hashed to the zero vector: {text!r}")
    return vec / norm


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    s = float(np.dot(a, b)) / (na * nb)
    return max(-1.0, min(1.0, s))


class HashedEngine:
    """The memory store's engine: the pure-function embed() bound to one config."""

    def __init__(self, config: EmbeddingConfig = EmbeddingConfig()):
        self.config = config

    def embed_text(self, text: str) -> np.ndarray:
        return embed(text, self.config)
