"""Collapse lab: analytic decay oracles, absorbing extinction, regimen
dominance, determinism, degenerate fits, trajectory files."""

import itertools
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zerebro.collapse import (
    SEED_CHUNK,
    CategoricalModel,
    GaussianModel,
    RecursionConfig,
    compare_regimens,
    run_recursion,
    seed_for,
    step_generation,
    uniform_categorical,
    write_trajectory,
)
from zerebro.errors import BadConfigError, DegenerateFitError

STANDARD = GaussianModel(0.0, 1.0)


def gaussian_config(m=100, G=50, rho=0.0, seed=0) -> RecursionConfig:
    return RecursionConfig("gaussian", m, G, rho, seed, STANDARD)


def mean_final_ratio(m: int, G: int, n_seeds: int, base_seed: int = 0) -> float:
    """Mean final variance ratio over seeds seed_for(base_seed, i), i < n_seeds."""
    report = compare_regimens(gaussian_config(m=m, G=G, seed=base_seed), [0.0], n_seeds)
    return float(np.mean(report.rows[0].final_variance_ratios))


class TestConfigs:
    def test_invalid_sigma2(self):
        with pytest.raises(BadConfigError):
            GaussianModel(0.0, 0.0)

    @pytest.mark.parametrize("make, field", [
        (lambda: GaussianModel(math.nan, 1.0), "mu"),
        (lambda: GaussianModel(-math.inf, 1.0), "mu"),
        (lambda: GaussianModel(0.0, math.inf), "sigma2"),
        (lambda: GaussianModel(0.0, math.nan), "sigma2"),
        (lambda: CategoricalModel({0: math.nan}), "probabilities[0]"),
        (lambda: CategoricalModel({"a": math.inf, "b": -math.inf}), "probabilities['a']"),
    ], ids=["mu-nan", "mu-inf", "sigma2-inf", "sigma2-nan", "p-nan", "p-inf"])
    def test_non_finite_parameters_name_their_field(self, make, field):
        with pytest.raises(BadConfigError, match=f"^{re.escape(field)} must be .*finite, got"):
            make()

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(BadConfigError):
            CategoricalModel({"a": 0.5, "b": 0.6})

    def test_rho_bounds(self):
        with pytest.raises(BadConfigError):
            gaussian_config(rho=1.5)

    def test_m_minimum(self):
        with pytest.raises(BadConfigError):
            gaussian_config(m=1)

    def test_kind_and_origin_must_agree(self):
        with pytest.raises(BadConfigError):
            RecursionConfig("categorical", 10, 5, 0.0, 0, STANDARD)


class TestStepGeneration:
    def test_gaussian_one_step_expectation_m100(self):
        # oracle: E[refit sigma2] = ((m-1)/m) * sigma2 under the biased MLE
        rng = np.random.default_rng(99)
        refits = [step_generation(STANDARD, STANDARD, 100, 0.0, rng)[1].sigma2
                  for _ in range(3000)]
        assert np.mean(refits) == pytest.approx(99 / 100, rel=0.01)

    def test_gaussian_one_step_expectation_m10(self):
        rng = np.random.default_rng(99)
        refits = [step_generation(STANDARD, STANDARD, 10, 0.0, rng)[1].sigma2
                  for _ in range(10000)]
        assert np.mean(refits) == pytest.approx(9 / 10, rel=0.02)

    def test_rho_one_tracks_origin(self):
        rng = np.random.default_rng(5)
        origin = GaussianModel(3.0, 4.0)
        drifted = GaussianModel(-50.0, 0.01)
        refits = [step_generation(drifted, origin, 200, 1.0, rng)[1] for _ in range(500)]
        assert np.mean([r.mu for r in refits]) == pytest.approx(3.0, abs=0.05)
        assert np.mean([r.sigma2 for r in refits]) == pytest.approx(4.0 * 199 / 200, rel=0.02)

    def test_absent_symbol_never_returns(self):
        rng = np.random.default_rng(7)
        model = CategoricalModel({"a": 0.9, "b": 0.1})
        for _ in range(200):
            samples, refit = step_generation(model, model, 10, 0.0, rng)
            model = refit
            if "b" not in refit.probabilities:
                break
        assert "b" not in model.probabilities, "extinction should occur at these odds"
        for _ in range(10):
            samples, model = step_generation(model, model, 10, 0.0, rng)
            assert "b" not in model.probabilities
            assert "b" not in samples

    def test_degenerate_fit_raises(self):
        # sigma so small that mu + sigma*z rounds to mu in float64
        rng = np.random.default_rng(1)
        tiny = GaussianModel(1.0, 1e-40)
        with pytest.raises(DegenerateFitError):
            step_generation(tiny, tiny, 50, 0.0, rng)


class TestRunRecursion:
    def test_seed_determinism(self):
        a = run_recursion(gaussian_config(G=10, seed=13))
        b = run_recursion(gaussian_config(G=10, seed=13))
        assert a == b

    def test_zero_generations(self):
        trajectory = run_recursion(gaussian_config(G=0))
        assert len(trajectory.records) == 1
        assert trajectory.records[0].variance == 1.0
        assert trajectory.status == "completed"

    def test_generation_zero_matches_origin_exactly(self):
        g = run_recursion(gaussian_config(G=3, seed=2)).records[0]
        assert g.variance == STANDARD.sigma2
        assert g.tail_mass == pytest.approx(math.erfc(2 / math.sqrt(2)), abs=1e-12)

        origin = uniform_categorical(64)
        c = run_recursion(
            RecursionConfig("categorical", 50, 3, 0.0, 2, origin)
        ).records[0]
        assert c.distinct == 64
        assert c.entropy_bits == pytest.approx(6.0, abs=1e-12)

    def test_trajectory_length(self):
        trajectory = run_recursion(gaussian_config(G=17, seed=3))
        assert len(trajectory.records) == 18
        assert [r.generation for r in trajectory.records] == list(range(18))

    def test_gaussian_decay_m100_G10(self):
        # analytic oracle (99/100)**10 over 1000 seeds
        assert mean_final_ratio(100, 10, 1000) == pytest.approx(0.99**10, rel=0.05)

    def test_gaussian_decay_m100_G50(self):
        assert mean_final_ratio(100, 50, 1000) == pytest.approx(0.99**50, rel=0.05)

    def test_gaussian_decay_m10_G10(self):
        # per-seed relative SD is ~47% at m=10, so the 5% band needs ~2e4 seeds
        assert mean_final_ratio(10, 10, 20000, base_seed=7) == pytest.approx(0.9**10, rel=0.05)

    def test_categorical_survival_after_one_generation(self):
        # oracle: E[distinct] = 1000 * (1 - 0.999**100) ~ 95.2
        expected = 1000 * (1 - (1 - 1 / 1000) ** 100)
        finals = []
        for i in range(300):
            cfg = RecursionConfig(
                "categorical", 100, 1, 0.0, seed_for(0, i), uniform_categorical(1000)
            )
            finals.append(run_recursion(cfg).records[1].distinct)
        assert np.mean(finals) == pytest.approx(expected, rel=0.10)

    def test_categorical_distinct_monotone_every_seed(self):
        for i in range(50):
            cfg = RecursionConfig(
                "categorical", 60, 8, 0.0, seed_for(3, i), uniform_categorical(200)
            )
            distincts = [r.distinct for r in run_recursion(cfg).records]
            assert all(a >= b for a, b in zip(distincts, distincts[1:]))

    def test_collapsed_status_truncates(self):
        origin = GaussianModel(1.0, 1e-40)
        trajectory = run_recursion(RecursionConfig("gaussian", 50, 5, 0.0, 0, origin))
        assert trajectory.status == "collapsed"
        assert len(trajectory.records) < 6


class TestCompareRegimens:
    def test_empty_rhos(self):
        report = compare_regimens(gaussian_config(G=5), [], n_seeds=3)
        assert report.rows == ()

    @pytest.mark.parametrize("rho", [1.5, -0.25, math.nan], ids=["above", "below", "nan"])
    def test_rho_outside_unit_interval_refused(self, rho):
        """Each listed rho meets RecursionConfig's rule and message."""
        with pytest.raises(BadConfigError, match=re.escape(f"rho must lie in [0, 1], got {rho}")):
            compare_regimens(gaussian_config(G=5), [0.5, rho], n_seeds=2)

    def test_rho_one_exceeds_rho_zero(self):
        report = compare_regimens(gaussian_config(G=10), [0.0, 1.0], n_seeds=100)
        lo, hi = report.rows
        assert hi.mean_variance_ratio > lo.mean_variance_ratio

    def test_half_rho_dominates_zero_on_matched_seeds(self):
        report = compare_regimens(gaussian_config(G=10), [0.0, 0.5], n_seeds=100)
        lo, hi = report.rows
        assert hi.mean_variance_ratio >= lo.mean_variance_ratio

    def test_overflowed_refit_raises(self):
        # samples near the float64 limit overflow the squared deviations, so
        # the first refit variance is inf, which no model may hold, as in
        # run_recursion
        base = RecursionConfig("gaussian", 10, 5, 0.0, 0, GaussianModel(0.0, 1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BadConfigError, match="finite, got inf"):
                compare_regimens(base, [0.0, 0.5], n_seeds=2)
            with pytest.raises(BadConfigError, match="finite, got inf"):
                run_recursion(base)

    def test_matched_seeds_reused_across_rhos(self):
        base = gaussian_config(G=5)
        once = compare_regimens(base, [0.25], n_seeds=10)
        twice = compare_regimens(base, [0.25, 0.25], n_seeds=10)
        assert once.rows[0].final_variance_ratios == twice.rows[1].final_variance_ratios


class TestTrajectoryFile:
    def test_gaussian_file_round(self, tmp_path):
        trajectory = run_recursion(gaussian_config(G=4, seed=9))
        path = tmp_path / "trajectory.tsv"
        write_trajectory(trajectory, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if not line.startswith("#")]
        assert any("config" in line for line in header)
        assert rows[0].startswith("generation\t")
        assert len(rows) == 1 + 5  # column header + G+1 generations

    def test_categorical_file(self, tmp_path):
        cfg = RecursionConfig("categorical", 30, 3, 0.5, 1, uniform_categorical(16))
        write_trajectory(run_recursion(cfg), tmp_path / "t.tsv")
        body = (tmp_path / "t.tsv").read_text(encoding="utf-8")
        assert "entropy_bits\tdistinct\ttail_mass" in body

    def test_file_byte_identical_across_runs(self, tmp_path):
        cfg = gaussian_config(G=6, seed=21)
        write_trajectory(run_recursion(cfg), tmp_path / "a.tsv")
        write_trajectory(run_recursion(cfg), tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


# --- the batched kernel against the one-seed refit rule ---------------------------


def reference_step(model, origin, m: int, rho: float, rng):
    """One generation by the one-seed rule, written out: the refit model, or
    None for a degenerate Gaussian fit."""
    h = min(m, int(math.floor(rho * m + 0.5)))
    if isinstance(model, GaussianModel):
        z = rng.standard_normal(m)
        x = np.empty(m, dtype=np.float64)
        x[:h] = origin.mu + math.sqrt(origin.sigma2) * z[:h]
        x[h:] = model.mu + math.sqrt(model.sigma2) * z[h:]
        variance = float(np.var(x))
        return GaussianModel(float(np.mean(x)), variance) if variance > 0.0 else None

    def draw(dist, u):
        symbols = sorted(dist.probabilities)
        cdf = np.cumsum([dist.probabilities[s] for s in symbols])
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(symbols) - 1)
        return [symbols[i] for i in idx]

    u = rng.random(m)
    samples = draw(origin, u[:h]) + draw(model, u[h:])
    return CategoricalModel({s: c / m for s, c in Counter(samples).items()})


def reference_final(config: RecursionConfig):
    """(final model, generations completed) of one seed's recursion."""
    rng = np.random.default_rng(config.seed)
    model = config.origin
    for t in range(config.generations):
        refit = reference_step(model, config.origin, config.m, config.rho, rng)
        if refit is None:
            return model, t
        model = refit
    return model, config.generations


def reference_rows(base: RecursionConfig, rhos, n_seeds: int) -> list[tuple]:
    rows = []
    for rho in rhos:
        finals = [
            reference_final(RecursionConfig(base.model_kind, base.m, base.generations, rho,
                                            seed_for(base.seed, i), base.origin))[0]
            for i in range(n_seeds)
        ]
        if base.model_kind == "gaussian":
            rows.append((rho, tuple(f.sigma2 / base.origin.sigma2 for f in finals), (), ()))
        else:
            entropies = tuple(-math.fsum(p * math.log2(p) for p in f.probabilities.values())
                              for f in finals)
            rows.append((rho, (), entropies, tuple(len(f.probabilities) for f in finals)))
    return rows


class ScriptedUniforms:
    """A stream of uniforms that cycles through values, read in order across
    calls of any size, as a Generator's `random` reads its stream."""

    def __init__(self, values):
        self.values = itertools.cycle(values)

    def random(self, size):
        n = math.prod(np.atleast_1d(size).tolist())
        return np.fromiter(itertools.islice(self.values, n), np.float64, n).reshape(size)


def batched_rows(base: RecursionConfig, rhos, n_seeds: int) -> list[tuple]:
    report = compare_regimens(base, rhos, n_seeds)
    return [(row.rho, row.final_variance_ratios, row.final_entropies, row.final_distincts)
            for row in report.rows]


GAUSSIAN_ORIGINS = [
    GaussianModel(0.0, 1.0),
    GaussianModel(-3.5, 7.25),
    GaussianModel(1.0, 1e-40),  # every fit degenerate: collapses at generation 1
    GaussianModel(1.0, 1e-32),  # spread near 1.0's ulp: collapses at a random generation
]
HARMONIC = [1 / i for i in range(1, 21)]
CATEGORICAL_ORIGINS = [
    uniform_categorical(1),
    uniform_categorical(7),
    uniform_categorical(300),
    CategoricalModel({"a": 0.1, "b": 0.2, "zz": 0.3, "c": 0.4}),
    CategoricalModel({"a": 1e-300, "b": 1.0}),  # 1e-300 cannot move the running sum
    # a skewed 1/i origin; "s10" sorts before "s2", so support order is not weight order
    CategoricalModel({f"s{i}": w / math.fsum(HARMONIC) for i, w in enumerate(HARMONIC, 1)}),
]


@st.composite
def rho_lists(draw, m: int):
    """Rhos with duplicates, 0, 1 and values on .5 rounding boundaries of rho*m."""
    boundary = st.integers(0, m - 1).map(lambda k: (k + 0.5) / m)
    one = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), boundary,
                    st.floats(0.0, 1.0, allow_nan=False))
    rhos = draw(st.lists(one, max_size=4))
    return rhos + draw(st.lists(st.sampled_from(rhos), max_size=2)) if rhos else rhos


@st.composite
def regimens(draw, kind: str, origins):
    m = draw(st.integers(2, 40))
    base = RecursionConfig(kind, m, draw(st.integers(0, 30)), 0.0,
                           draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from(origins)))
    return base, draw(rho_lists(m)), draw(st.integers(1, 40))


class TestBatchedKernel:
    """compare_regimens, run_recursion and step_generation equal the one-seed
    rule written out above, by ==, on every (rho, seed)."""

    @staticmethod
    def check(base: RecursionConfig, rhos, n_seeds: int):
        assert batched_rows(base, rhos, n_seeds) == reference_rows(base, rhos, n_seeds)
        for rho in rhos[:2]:
            config = RecursionConfig(base.model_kind, base.m, base.generations, rho,
                                     base.seed, base.origin)
            trajectory = run_recursion(config)
            model, completed = reference_final(config)
            assert trajectory.final().model == model
            assert len(trajectory.records) == completed + 1

    @settings(max_examples=40, deadline=None)
    @given(regimens("gaussian", GAUSSIAN_ORIGINS))
    # m = 2000 draws DRAW_BLOCK // m = 4 generations at a time, so G = 10 spans
    # three draw blocks
    @example((RecursionConfig("gaussian", 2000, 10, 0.0, 2**64 - 5, GAUSSIAN_ORIGINS[1]),
              [0.0, 0.5, 1.0], 3))
    # seed 8 first collapses at generation 455, in the second block of 409, and its
    # last good fit then draws refits that are positive again; seed 9 never collapses
    @example((RecursionConfig("gaussian", 20, 600, 0.0, 8, GAUSSIAN_ORIGINS[3]), [0.0], 2))
    def test_gaussian(self, case):
        self.check(*case)

    @settings(max_examples=40, deadline=None)
    @given(regimens("categorical", CATEGORICAL_ORIGINS))
    @example((RecursionConfig("categorical", 50, 15, 0.5, 5, CATEGORICAL_ORIGINS[3]),
              [0.0, 0.5, 0.5, 1.0], 3))
    # three draw blocks, as for the Gaussian kind
    @example((RecursionConfig("categorical", 2000, 10, 0.0, 11, CATEGORICAL_ORIGINS[2]),
              [0.0, 0.3, 1.0], 3))
    def test_categorical(self, case):
        self.check(*case)

    def test_overflow_past_the_first_generation(self):
        # from sigma2 = 1e307, seed 8's refits stay finite for five generations and
        # overflow at the sixth: the model is refused there, as the one-seed rule's
        # GaussianModel refuses it, with the same message
        base = RecursionConfig("gaussian", 10, 5, 0.0, 8, GaussianModel(0.0, 1e307))
        refused = "^sigma2 must be positive and finite, got inf$"
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(base, [0.0], 1)
            base = replace(base, generations=8)
            for run in (lambda: compare_regimens(base, [0.0, 0.5], 2),
                        lambda: run_recursion(base), lambda: reference_final(base)):
                with pytest.raises(BadConfigError, match=refused):
                    run()

    # m = 100 is the CLI's default; past 128 numpy's pairwise sum splits a row;
    # 1000 symbols at m = 100 is the collapse-sweep workload's shape
    @pytest.mark.parametrize("m", [6, 100, 129, 1000], ids=lambda m: f"m{m}")
    @pytest.mark.parametrize("kind, origin", [("gaussian", GAUSSIAN_ORIGINS[0]),
                                              ("gaussian", GAUSSIAN_ORIGINS[3]),
                                              ("categorical", CATEGORICAL_ORIGINS[1]),
                                              ("categorical", uniform_categorical(1000))])
    def test_past_one_seed_chunk(self, kind, origin, m):
        base = RecursionConfig(kind, m, 8, 0.0, 2**64 - 3, origin)
        self.check(base, [0.0, 0.25, 1.0], SEED_CHUNK + 3)

    def test_draw_past_the_last_cdf_step(self):
        # ten symbols at 0.1 sum to 1 - 2**-53 in the cumsum, so a uniform of
        # 1 - 2**-53 lies past it and clips to the last present symbol (9),
        # not to the last symbol of the support (11)
        class TopOfUnitInterval:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        model = CategoricalModel({i: 0.1 for i in range(10)})
        origin = uniform_categorical(12)
        samples, refit = step_generation(model, origin, 10, 0.0, TopOfUnitInterval())
        assert refit == reference_step(model, origin, 10, 0.0, TopOfUnitInterval())
        assert samples == [9] * 10

    def test_origin_draw_past_the_last_cdf_step(self):
        # as above, with the tenths as the origin that rho = 1 draws from
        model, origin = uniform_categorical(12), CategoricalModel({i: 0.1 for i in range(10)})
        samples, refit = step_generation(model, origin, 10, 1.0, ScriptedUniforms([1 - 2**-53]))
        assert refit == reference_step(model, origin, 10, 1.0, ScriptedUniforms([1 - 2**-53]))
        assert samples == [9] * 10

    def test_draws_on_cdf_steps(self, monkeypatch):
        # from four symbols at 0.25, rho = 0 draws the samples 0 0 2 2; the refit
        # model's cumsum is then 0 .5 .5 1 over the sorted samples, and a draw
        # of exactly .5 (or .25 or .75 from the origin) must pass the step to
        # the next symbol, as a search on the right side of a cdf does
        stream = [0.1, 0.2, 0.6, 0.7, 0.5, 0.25, 0.75, 0.0]
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedUniforms(stream))
        self.check(RecursionConfig("categorical", 4, 3, 0.0, 0, uniform_categorical(4)),
                   [0.0, 0.5, 0.25], 2)

    @pytest.mark.parametrize("model, origin", [
        (GaussianModel(2.0, 0.5), GaussianModel(0.0, 1.0)),
        (CategoricalModel({"a": 0.5, "zz": 0.5}), CATEGORICAL_ORIGINS[3]),
        # "q" and "zzz" are not in the origin: the model's draws and refit still
        # index the support both share
        (CategoricalModel({"a": 0.25, "q": 0.5, "zzz": 0.25}), CATEGORICAL_ORIGINS[3]),
    ])
    def test_step_generation(self, model, origin):
        for rho in (0.0, 0.3, 1.0):
            expected = reference_step(model, origin, 20, rho, np.random.default_rng(4))
            assert step_generation(model, origin, 20, rho, np.random.default_rng(4))[1] == expected
