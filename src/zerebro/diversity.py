"""Corpus- and distribution-level diversity metrics.

Four independent measurements cover token-level variety (entropy,
distinct-n), semantic spread (embedding dispersion), and how much of the
origin distribution's tails survive (tail mass). The collapse lab, the
memory store, and the backrooms experiment all report through these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyHistogramError,
    EmptySamplesError,
    NoNgramsError,
    TooFewVectorsError,
)


def shannon_entropy(histogram: Mapping[object, int]) -> float:
    """Entropy in bits of the empirical distribution count/total.

    Zero-count bins are ignored; negative counts are invalid.
    """
    counts = [c for c in histogram.values() if c != 0]
    if any(c < 0 for c in counts):
        raise ValueError("histogram counts must be non-negative")
    total = sum(counts)
    if total < 1:
        raise EmptyHistogramError("histogram has no mass")
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return max(0.0, h)


def _tokens(sequence) -> list[str]:
    if isinstance(sequence, str):
        return sequence.split()
    return list(sequence)


def distinct_n(corpus: Iterable, n: int) -> float:
    """Distinct n-grams / total n-grams, n-grams taken within each sequence.

    Sequences may be whitespace-tokenized strings or pre-split token lists.
    Raises NoNgramsError when no sequence yields a single n-gram.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    seen: set[tuple[str, ...]] = set()
    total = 0
    for sequence in corpus:
        toks = _tokens(sequence)
        for i in range(len(toks) - n + 1):
            seen.add(tuple(toks[i : i + n]))
            total += 1
    if total == 0:
        raise NoNgramsError(f"no sequence contains an n-gram of size {n}")
    return len(seen) / total


def embedding_dispersion(vectors: Sequence[np.ndarray]) -> float:
    """Mean over unordered vector pairs of (1 - cosine similarity)."""
    if len(vectors) < 2:
        raise TooFewVectorsError("dispersion needs at least two vectors")
    dim = vectors[0].shape
    for v in vectors[1:]:
        if v.shape != dim:
            raise DimensionMismatchError(f"mixed dimensions: {dim} vs {v.shape}")
    mat = np.array(vectors, dtype=np.float64)  # np.stack(vectors), as float64
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("dispersion is undefined for zero-norm vectors")
    unit = mat / norms[:, None]
    gram = np.clip(unit @ unit.T, -1.0, 1.0)
    # the pairs i < j, in np.triu_indices(n, k=1)'s row-major order
    return float(np.mean(1.0 - gram[~np.tri(len(vectors), dtype=bool)]))


def tail_mass(samples: Sequence[float], mu0: float, sigma0: float, k: float) -> float:
    """Fraction of samples strictly farther than k * sigma0 from mu0."""
    if sigma0 <= 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise EmptySamplesError("tail mass needs at least one sample")
    return float(np.mean(np.abs(arr - mu0) > k * sigma0))


@dataclass(frozen=True)
class DiversityReport:
    """One bundle of all four metrics over some window of texts."""

    shannon_entropy_bits: float
    distinct_1: float
    distinct_2: float
    embedding_dispersion: float
    tail_mass: float

    def as_text_block(self) -> str:
        return "\n".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))


__all__ = [
    "shannon_entropy",
    "distinct_n",
    "embedding_dispersion",
    "tail_mass",
    "DiversityReport",
]
