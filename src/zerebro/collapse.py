"""Model-collapse lab: recursive maximum-likelihood refitting of toy
generative models, with a human-data fraction `rho` interpolating between
pure self-training (rho=0) and pure origin-data training (rho=1).

Two model families keep the dynamics analytically checkable:

* Gaussian: refitting with the biased MLE variance (divisor m) makes the
  expected variance ratio decay exactly ((m-1)/m)**G at rho=0. The biased
  estimator is a deliberate choice; reports carry a note about it.
* Categorical: empirical refitting drops unseen symbols, so support loss
  is absorbing and the distinct count never recovers at rho=0.

Each generation draws round(rho*m) samples from the immutable origin
("human" pool) and the rest from the current model ("synthetic" pool),
sharing one underlying random stream per generation so runs at different
rho values with the same seed are driven by common random numbers.

Tail mass is `diversity.tail_mass` of each generation's samples in the
origin frame (origin mean and std; categorical symbols at their index in
the sorted origin support, so non-numeric symbols work too). Generation 0
carries the origin's analytic tail mass; a one-symbol origin has none.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diversity import tail_mass
from .errors import BadConfigError, DegenerateFitError

MODEL_KINDS = ("gaussian", "categorical")
TAIL_K = 2.0


@dataclass(frozen=True)
class GaussianModel:
    mu: float
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise BadConfigError(f"sigma2 must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class CategoricalModel:
    """Probabilities over a finite, sortable symbol set; entries in (0, 1]."""

    probabilities: dict

    def __post_init__(self):
        if not self.probabilities:
            raise BadConfigError("categorical model needs at least one symbol")
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > 1e-12:
            raise BadConfigError(f"probabilities sum to {total!r}, not 1")
        if any(p <= 0 for p in self.probabilities.values()):
            raise BadConfigError("probabilities must be strictly positive")

    def support(self) -> list:
        return sorted(self.probabilities)

    def entropy_bits(self) -> float:
        return -math.fsum(p * math.log2(p) for p in self.probabilities.values())


def uniform_categorical(n_symbols: int) -> CategoricalModel:
    if n_symbols < 1:
        raise BadConfigError("need at least one symbol")
    p = 1.0 / n_symbols
    return CategoricalModel({i: p for i in range(n_symbols)})


@dataclass(frozen=True)
class RecursionConfig:
    model_kind: str
    m: int
    generations: int
    rho: float
    seed: int
    origin: GaussianModel | CategoricalModel

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise BadConfigError(f"model_kind must be one of {MODEL_KINDS}")
        if self.m < 2:
            raise BadConfigError(f"m must be >= 2, got {self.m}")
        if self.generations < 0:
            raise BadConfigError(f"generations must be >= 0, got {self.generations}")
        if not 0.0 <= self.rho <= 1.0:
            raise BadConfigError(f"rho must lie in [0, 1], got {self.rho}")
        expected = GaussianModel if self.model_kind == "gaussian" else CategoricalModel
        if not isinstance(self.origin, expected):
            raise BadConfigError(
                f"origin model type {type(self.origin).__name__} does not match {self.model_kind}"
            )


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    model: GaussianModel | CategoricalModel
    variance: float | None
    entropy_bits: float | None
    distinct: int | None
    tail_mass: float


@dataclass(frozen=True)
class CollapseTrajectory:
    config: RecursionConfig
    records: tuple[GenerationRecord, ...]
    status: str  # "completed" | "collapsed"

    def final(self) -> GenerationRecord:
        return self.records[-1]


def _human_count(m: int, rho: float) -> int:
    # round-half-up keeps the split predictable at .5 boundaries
    return min(m, int(math.floor(rho * m + 0.5)))


def _cdf(model: CategoricalModel) -> tuple[list, np.ndarray]:
    symbols = model.support()
    cdf = np.cumsum([model.probabilities[s] for s in symbols])
    return symbols, cdf


def _draw_categorical(symbols: list, cdf: np.ndarray, u: np.ndarray) -> list:
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(symbols) - 1)
    return [symbols[i] for i in idx]


def step_generation(model, origin, m: int, rho: float, rng: np.random.Generator):
    """One generation: sample the rho-mix, refit by maximum likelihood.

    Returns (samples, refitted model). Gaussian refits use the biased MLE
    variance (divisor m); a zero-variance fit raises DegenerateFitError.
    Categorical refits keep empirical frequencies and drop absent symbols.
    """
    h = _human_count(m, rho)

    if isinstance(model, GaussianModel):
        z = rng.standard_normal(m)
        x = np.empty(m, dtype=np.float64)
        x[:h] = origin.mu + math.sqrt(origin.sigma2) * z[:h]
        x[h:] = model.mu + math.sqrt(model.sigma2) * z[h:]
        variance = float(np.var(x))
        if variance <= 0.0:
            raise DegenerateFitError(f"all {m} samples identical at value {x[0]!r}")
        return x, GaussianModel(mu=float(np.mean(x)), sigma2=variance)

    u = rng.random(m)
    origin_symbols, origin_cdf = _cdf(origin)
    model_symbols, model_cdf = _cdf(model)
    samples = _draw_categorical(origin_symbols, origin_cdf, u[:h])
    samples += _draw_categorical(model_symbols, model_cdf, u[h:])
    probs = {s: c / m for s, c in Counter(samples).items()}
    return samples, CategoricalModel(probs)


def _origin_frame(origin) -> tuple[float, float, dict | None]:
    """The origin frame: (mu0, sigma0, symbol -> value map, or None for Gaussians)."""
    if isinstance(origin, GaussianModel):
        return origin.mu, math.sqrt(origin.sigma2), None
    symbols = origin.support()
    probs = np.array([origin.probabilities[s] for s in symbols])
    values = np.arange(len(symbols), dtype=np.float64)
    mu0 = float(probs @ values)
    sigma0 = float(math.sqrt(max(0.0, probs @ (values - mu0) ** 2)))
    return mu0, sigma0, {s: float(i) for i, s in enumerate(symbols)}


def _origin_tail(origin, mu0: float, sigma0: float, value_of: dict | None) -> float:
    """Analytic tail mass of the origin itself, for generation 0."""
    if value_of is None:
        # mass of N(mu0, sigma0**2) outside [mu0 - k s0, mu0 + k s0]; the
        # bounds keep their float rounding (a spread far below mu0's ulp
        # rounds to a zero-width window, tail 1.0), so lo is not simply -k
        phi = lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0))
        lo = (mu0 - TAIL_K * sigma0 - mu0) / sigma0
        hi = (mu0 + TAIL_K * sigma0 - mu0) / sigma0
        return 1.0 - (phi(hi) - phi(lo))
    mass = 0.0
    for s, p in origin.probabilities.items():
        if abs(value_of[s] - mu0) > TAIL_K * sigma0:
            mass += p
    return mass


def _sample_tail(samples, mu0: float, sigma0: float, value_of: dict | None) -> float:
    if sigma0 == 0.0:
        # a one-symbol origin: every sample is its only symbol, at mu0
        return 0.0
    if value_of is not None:
        samples = [value_of[s] for s in samples]
    return tail_mass(samples, mu0, sigma0, TAIL_K)


def _record(generation: int, model, tail: float) -> GenerationRecord:
    gaussian = isinstance(model, GaussianModel)
    return GenerationRecord(
        generation=generation,
        model=model,
        variance=model.sigma2 if gaussian else None,
        entropy_bits=None if gaussian else model.entropy_bits(),
        distinct=None if gaussian else len(model.probabilities),
        tail_mass=tail,
    )


def run_recursion(config: RecursionConfig) -> CollapseTrajectory:
    """Run the full recursion; deterministic for a given config."""
    rng = np.random.default_rng(config.seed)
    frame = _origin_frame(config.origin)
    records = [_record(0, config.origin, _origin_tail(config.origin, *frame))]
    model = config.origin
    status = "completed"
    for t in range(1, config.generations + 1):
        try:
            samples, model = step_generation(model, config.origin, config.m, config.rho, rng)
        except DegenerateFitError:
            status = "collapsed"
            break
        records.append(_record(t, model, _sample_tail(samples, *frame)))
    return CollapseTrajectory(config=config, records=tuple(records), status=status)


# --- regimen comparison -------------------------------------------------------


@dataclass(frozen=True)
class RegimenRow:
    rho: float
    final_variance_ratios: tuple[float, ...]
    final_entropies: tuple[float, ...]
    final_distincts: tuple[int, ...]

    @staticmethod
    def _mean(values) -> float | None:
        return float(np.mean(values)) if values else None

    @property
    def mean_variance_ratio(self) -> float | None:
        return self._mean(self.final_variance_ratios)

    @property
    def mean_entropy_bits(self) -> float | None:
        return self._mean(self.final_entropies)

    @property
    def mean_distinct(self) -> float | None:
        return self._mean(self.final_distincts)


@dataclass(frozen=True)
class RegimenReport:
    base: RecursionConfig
    n_seeds: int
    rows: tuple[RegimenRow, ...]


def seed_for(base_seed: int, index: int) -> int:
    """Per-run seed family; shared across rho values for matched comparisons."""
    return (base_seed + index) % 2**64


def compare_regimens(
    base: RecursionConfig, rhos: Sequence[float], n_seeds: int = 1
) -> RegimenReport:
    """Run the recursion for each rho over a common family of seeds.

    Seed i is identical across rho values, and each generation consumes the
    same amount of randomness regardless of rho, so comparisons are under
    common random numbers.
    """
    if n_seeds < 1:
        raise BadConfigError(f"n_seeds must be positive, got {n_seeds}")
    rows = []
    for rho in rhos:
        finals = [
            run_recursion(replace(base, rho=rho, seed=seed_for(base.seed, i))).final()
            for i in range(n_seeds)
        ]
        if base.model_kind == "gaussian":
            ratios = tuple(f.variance / base.origin.sigma2 for f in finals)
            rows.append(RegimenRow(float(rho), ratios, (), ()))
        else:
            entropies = tuple(f.entropy_bits for f in finals)
            rows.append(RegimenRow(float(rho), (), entropies, tuple(f.distinct for f in finals)))
    return RegimenReport(base=base, n_seeds=n_seeds, rows=tuple(rows))


# --- trajectory file ------------------------------------------------------------

_BIAS_NOTE = (
    "variance refits use the biased MLE (divisor m), so the rho=0 expected "
    "variance ratio decays as ((m-1)/m)**G"
)


def _config_json(config: RecursionConfig) -> str:
    if config.model_kind == "gaussian":
        origin = {"mu": config.origin.mu, "sigma2": config.origin.sigma2}
    else:
        origin = {"probabilities": {str(k): v for k, v in config.origin.probabilities.items()}}
    return json.dumps(
        {
            "model_kind": config.model_kind,
            "m": config.m,
            "G": config.generations,
            "rho": config.rho,
            "seed": config.seed,
            "origin": origin,
        },
        sort_keys=True,
    )


def write_trajectory(trajectory: CollapseTrajectory, path) -> None:
    """Header with the full config, then one TSV metrics line per generation."""
    cfg = trajectory.config
    lines = [
        "# collapse trajectory v1",
        f"# config {_config_json(cfg)}",
        f"# status {trajectory.status}",
        f"# note {_BIAS_NOTE}",
    ]
    if cfg.model_kind == "gaussian":
        lines.append("generation\tmu\tsigma2\tvariance_ratio\ttail_mass")
        for r in trajectory.records:
            ratio = r.variance / cfg.origin.sigma2
            lines.append(
                f"{r.generation}\t{r.model.mu!r}\t{r.variance!r}\t{ratio!r}\t{r.tail_mass!r}"
            )
    else:
        lines.append("generation\tentropy_bits\tdistinct\ttail_mass")
        for r in trajectory.records:
            lines.append(f"{r.generation}\t{r.entropy_bits!r}\t{r.distinct}\t{r.tail_mass!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def format_regimen_report(report: RegimenReport) -> str:
    base = report.base
    out = [
        "regimen comparison",
        f"model_kind={base.model_kind} m={base.m} G={base.generations} "
        f"base_seed={base.seed} seeds={report.n_seeds}",
        f"note: {_BIAS_NOTE}",
    ]
    for row in report.rows:
        parts = [f"rho={row.rho}"]
        if row.mean_variance_ratio is not None:
            parts.append(f"mean_final_variance_ratio={row.mean_variance_ratio:.6f}")
        if row.mean_entropy_bits is not None:
            parts.append(f"mean_final_entropy_bits={row.mean_entropy_bits:.6f}")
        if row.mean_distinct is not None:
            parts.append(f"mean_final_distinct={row.mean_distinct:.3f}")
        out.append("  ".join(parts))
    return "\n".join(out) + "\n"
