"""Corpus- and distribution-level diversity metrics.

Four independent measurements cover token-level variety (entropy,
distinct-n), semantic spread (embedding dispersion), and how much of the
origin distribution's tails survive (tail mass). The collapse lab, the
memory store, and the backrooms experiment all report through these.
Dispersion is `unit_dispersion` (one gram product) over `normalize_rows`;
the backrooms window keeps unit rows and does only the gram each turn.
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
    counts = histogram.values()
    if min(counts, default=0) < 0:
        raise ValueError("histogram counts must be non-negative")
    total = sum(counts)
    if total < 1:
        raise EmptyHistogramError("histogram has no mass")
    h = 0.0
    for c in counts:
        if c:
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
    # np.stack(vectors), as float64
    return unit_dispersion(normalize_rows(np.array(vectors, dtype=np.float64)))


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Divide each float64 row by its norm, in place, and return mat. A row's
    norm is the same alone or in a batch, so a kept unit row equals the batch's."""
    norms = np.linalg.norm(mat, axis=1)
    if (norms == 0.0).any():
        raise ValueError("dispersion is undefined for zero-norm vectors")
    mat /= norms[:, None]
    return mat


def unit_dispersion(unit: np.ndarray) -> float:
    """embedding_dispersion of rows already divided by their norms."""
    gram = unit @ unit.T
    np.clip(gram, -1.0, 1.0, out=gram)
    # the pairs i < j, in np.triu_indices(n, k=1)'s row-major order
    return float(np.mean(1.0 - gram[~np.tri(len(unit), dtype=bool)]))


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
