"""Diversity metric oracles: hand-computed values, analytic references,
and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerebro.diversity import (
    DiversityReport,
    distinct_n,
    embedding_dispersion,
    normalize_rows,
    shannon_entropy,
    tail_mass,
)
from zerebro.embedding import EmbeddingConfig, embed
from zerebro.errors import (
    DimensionMismatchError,
    EmptyHistogramError,
    EmptySamplesError,
    NoNgramsError,
    TooFewVectorsError,
)


class TestShannonEntropy:
    def test_uniform_eight_symbols(self):
        assert shannon_entropy({i: 5 for i in range(8)}) == pytest.approx(3.0, abs=1e-12)

    def test_single_symbol(self):
        assert shannon_entropy({"only": 17}) == 0.0

    def test_three_to_one_split(self):
        # hand-computed: -(0.75 log2 0.75 + 0.25 log2 0.25)
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert expected == pytest.approx(0.8112781, abs=1e-7)
        assert shannon_entropy({"a": 3, "b": 1}) == pytest.approx(expected, abs=1e-12)

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogramError):
            shannon_entropy({})
        with pytest.raises(EmptyHistogramError):
            shannon_entropy({"a": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy({"a": -1, "b": 2})

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(1, 50), min_size=1, max_size=20))
    def test_entropy_bounds(self, hist):
        h = shannon_entropy(hist)
        assert 0.0 <= h <= math.log2(len(hist)) + 1e-12


class TestDistinctN:
    def test_bigram_example(self):
        # bigrams of "a b a b": (a,b), (b,a), (a,b) -> 2 distinct of 3
        assert distinct_n(["a b a b"], 2) == pytest.approx(2 / 3)

    def test_all_distinct_unigrams(self):
        assert distinct_n(["p q r s"], 1) == 1.0

    def test_repeated_token(self):
        assert distinct_n(["x x x x"], 1) == 0.25

    def test_accepts_pretokenized(self):
        assert distinct_n([["a", "b"], ["a", "b"]], 2) == 0.5

    def test_no_ngrams(self):
        with pytest.raises(NoNgramsError):
            distinct_n(["one", "two"], 2)

    def test_duplicating_unique_corpus_halves_ratio(self):
        corpus = ["alpha beta", "gamma delta"]
        assert distinct_n(corpus, 1) == 1.0
        assert distinct_n(corpus * 2, 1) == 0.5


class TestEmbeddingDispersion:
    def test_identical_vectors(self):
        v = embed("same text twice", EmbeddingConfig(dimension=64))
        assert embedding_dispersion([v, v.copy()]) == pytest.approx(0.0, abs=1e-9)

    def test_antipodal(self):
        v = np.array([1.0, 0.0, 0.0])
        assert embedding_dispersion([v, -v]) == pytest.approx(2.0, abs=1e-12)

    def test_orthonormal_triple(self):
        e = np.eye(3)
        assert embedding_dispersion([e[0], e[1], e[2]]) == pytest.approx(1.0, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewVectorsError):
            embedding_dispersion([np.ones(3)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            embedding_dispersion([np.ones(3), np.ones(4)])

    def test_permutation_invariance(self):
        cfg = EmbeddingConfig(dimension=64)
        vecs = [embed(t, cfg) for t in ("one red kite", "two slow barges", "three cold stars")]
        forward = embedding_dispersion(vecs)
        backward = embedding_dispersion(list(reversed(vecs)))
        assert forward == pytest.approx(backward, abs=1e-12)


    @pytest.mark.parametrize("n", [2, 3, 25, 64, 65, 130, 600])
    def test_array_and_rows_match_full_formula(self, n):
        rows = [embed(f"moth {i} at the lamp {i * i}", EmbeddingConfig(dimension=96))
                for i in range(n)]
        mat = np.stack(rows).astype(np.float64)
        unit = mat / np.linalg.norm(mat, axis=1)[:, None]
        gram = np.clip(unit @ unit.T, -1.0, 1.0)
        full = float(np.mean(1.0 - gram[np.triu_indices(n, k=1)]))
        assert embedding_dispersion(rows) == full
        assert embedding_dispersion(np.stack(rows)) == full


class TestUnitRows:
    """The kept window's identity: a row normalised alone, in place in a
    larger array, equals the same row normalised in a batch, by ==."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(2, 1024), n=st.integers(1, 25),
           exponents=st.lists(st.floats(-150, 150), min_size=1, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_one_row_equals_batched_row(self, dim, n, exponents, seed):
        rng = np.random.default_rng(seed)
        scales = 10.0 ** np.resize(np.array(exponents), n)
        mat = rng.standard_normal((n, dim)) * scales[:, None]
        batched = normalize_rows(mat.copy())
        rows = np.empty((n + 2, dim))
        for i in range(n):
            row = rows[i + 1 : i + 2]
            row[0] = mat[i]
            normalize_rows(row)
            assert np.array_equal(row[0], batched[i]), i

    def test_zero_row_refused(self):
        with pytest.raises(ValueError, match="zero-norm"):
            normalize_rows(np.zeros((1, 4)))


class TestTailMass:
    def test_no_outliers(self):
        assert tail_mass([5.0, 5.0, 5.0], mu0=5.0, sigma0=1.0, k=2.0) == 0.0

    def test_half_outliers(self):
        assert tail_mass([3.0, 0.0], mu0=0.0, sigma0=1.0, k=2.0) == 0.5

    def test_standard_normal_monte_carlo(self):
        # oracle: P(|Z| > 2) = erfc(2 / sqrt(2)) ~ 0.04550
        analytic = math.erfc(2.0 / math.sqrt(2.0))
        draws = np.random.default_rng(20240917).standard_normal(1_000_000)
        assert tail_mass(draws, 0.0, 1.0, 2.0) == pytest.approx(analytic, abs=1e-3)
        assert analytic == pytest.approx(0.0455, abs=1e-4)

    def test_empty_samples(self):
        with pytest.raises(EmptySamplesError):
            tail_mass([], 0.0, 1.0, 2.0)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            tail_mass([1.0], 0.0, 0.0, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=60),
        st.floats(0.5, 3.0),
        st.floats(0.1, 2.0),
    )
    def test_monotone_non_increasing_in_k(self, samples, k, dk):
        low = tail_mass(samples, 0.0, 1.0, k)
        high = tail_mass(samples, 0.0, 1.0, k + dk)
        assert high <= low


def test_report_text_block_roundtrips_keys():
    report = DiversityReport(1.0, 0.5, 0.25, 0.75, 0.1)
    block = report.as_text_block()
    for key in ("shannon_entropy_bits", "distinct_1", "distinct_2",
                "embedding_dispersion", "tail_mass"):
        assert f"{key}=" in block
