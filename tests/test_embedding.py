"""Embedding contracts: determinism, unit norm, dimension, locality."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerebro.embedding import EmbeddingConfig, cosine_similarity, embed
from zerebro.errors import BadConfigError, DimensionMismatchError, EmptyTextError

CFG = EmbeddingConfig()


def test_empty_text_rejected():
    with pytest.raises(EmptyTextError):
        embed("", CFG)
    with pytest.raises(EmptyTextError):
        embed("   \t\n", CFG)


def test_determinism_bit_exact():
    a = embed("abc", CFG)
    b = embed("abc", CFG)
    assert a.dtype == np.float64
    assert (a == b).all()
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-9


def test_default_dimension_is_768():
    assert CFG.dimension == 768
    assert embed("anything at all", CFG).shape == (768,)


def test_custom_dimension_respected():
    cfg = EmbeddingConfig(dimension=32)
    assert embed("anything", cfg).shape == (32,)


def test_short_text_still_embeds():
    # below NGRAM_MIN bytes, hashed as a single whole-text gram
    v = embed("a", CFG)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


def test_bad_configs_rejected():
    with pytest.raises(BadConfigError):
        EmbeddingConfig(dimension=1)
    with pytest.raises(BadConfigError):
        EmbeddingConfig(seed=2**64)


def test_seed_changes_vectors():
    a = embed("same text", EmbeddingConfig(seed=1))
    b = embed("same text", EmbeddingConfig(seed=2))
    assert not (a == b).all()


def test_cosine_identity_and_antipodal():
    v = embed("the river keeps its own ledger", CFG)
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-9)


def test_cosine_orthogonal_basis():
    e1 = np.zeros(8)
    e2 = np.zeros(8)
    e1[0] = 1.0
    e2[1] = 1.0
    assert cosine_similarity(e1, e2) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(np.ones(4), np.ones(5))


def test_cosine_symmetry_bit_exact():
    a = embed("a lantern in the window", CFG)
    b = embed("morning frost writes brief letters", CFG)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_disjoint_ngram_support_gives_exact_zero():
    # frozen collision-free pair for the default config: their nonzero
    # bucket supports are disjoint, so the dot product is exactly 0.0
    a = embed("cdcd dcdc", CFG)
    b = embed("mnmn nmnm", CFG)
    assert not (set(np.nonzero(a)[0]) & set(np.nonzero(b)[0]))
    assert cosine_similarity(a, b) == 0.0

    # and the implication holds for every disjoint-alphabet pair that
    # happens to avoid bucket collisions
    alphabet_pairs = [
        ("cdcd dcdc", "mnmn nmnm"),
        ("aba bab aab", "xyz zyx yxz"),
        ("efg gfe feg", "rst tsr str"),
    ]
    found_disjoint = 0
    for left, right in alphabet_pairs:
        va, vb = embed(left, CFG), embed(right, CFG)
        if not (set(np.nonzero(va)[0]) & set(np.nonzero(vb)[0])):
            found_disjoint += 1
            assert cosine_similarity(va, vb) == 0.0
    assert found_disjoint >= 1


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=1).filter(lambda t: t.strip()))
def test_unit_norm_property(text):
    v = embed(text, EmbeddingConfig(dimension=64))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.text(min_size=1).filter(lambda t: t.strip()), st.integers(0, 2**32))
def test_determinism_property(text, seed):
    cfg = EmbeddingConfig(dimension=64, seed=seed)
    assert (embed(text, cfg) == embed(text, cfg)).all()


def _reference_counts(text: str, dimension: int, seed: int) -> np.ndarray:
    """The per-n formula's bucket sums before normalizing: every length-n
    byte window (n from 3 to 5, or the whole text when it is shorter than 3
    bytes) hashed from its first byte."""
    u64 = np.uint64
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    hashes = []
    for n in range(3, min(5, len(data)) + 1) or [len(data)]:
        win = np.lib.stride_tricks.sliding_window_view(data, n)
        h = np.zeros(len(win), dtype=np.uint64)
        for j in range(n):
            h = h * u64(0x100000001B3) + win[:, j]
        z = (h ^ u64((seed ^ (n * 0x9E3779B97F4A7C15)) % 2**64)) + u64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
        hashes.append(z ^ (z >> u64(31)))
    h = np.concatenate(hashes)
    vec = np.zeros(dimension, dtype=np.float64)
    signs = np.where((h >> u64(32)) & u64(1), 1.0, -1.0)
    np.add.at(vec, (h % u64(dimension)).astype(np.intp), signs)
    return vec


# texts of 1 to 64 utf-8 bytes; a character cut at byte 64 is dropped
_texts = (
    st.text(min_size=1, max_size=64)
    .map(lambda t: t.encode("utf-8")[:64].decode("utf-8", "ignore"))
    .filter(lambda t: t.strip())
)


@settings(max_examples=300, deadline=None)
@given(_texts, st.sampled_from([2, 37, 768]), st.integers(0, 2**64 - 1))
@example("a", 768, 0)
@example("ab", 37, 2**64 - 1)
@example("é", 2, 1)
@example("日", 768, 12345)
@example("🙂 ok", 37, 0)
def test_embed_matches_per_window_reference(text, dimension, seed):
    config = EmbeddingConfig(dimension=dimension, seed=seed)
    counts = _reference_counts(text, dimension, seed)
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:  # every bucket cancelled, possible at small dimensions
        with pytest.raises(EmptyTextError):
            embed(text, config)
    else:
        assert np.array_equal(embed(text, config), counts / norm)
