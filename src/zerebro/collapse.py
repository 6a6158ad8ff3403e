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

One kernel advances every model, a generation at a time, as an (R, S)
block: one row per rho, one column per seed. `compare_regimens` is the
batched case and keeps only the final models; `run_recursion` and
`step_generation` are the R = S = 1 case. Each model's result equals, bit
for bit, what advancing that (rho, seed) model alone would give:

* Column s draws from its own `default_rng(seed_for(base, s))`, and every
  row of the column uses those numbers. numpy fills an array from the
  stream element by element, so one (G, m) draw equals G draws of m. A
  chunk's draws land in one (S, G, m) array, read as its (G, S, m) transpose.
* A Gaussian model's samples are `sqrt(s2)*z + mu` (mu and s2 are (R, S, 1)),
  with `sd0*z + mu0`, made once per draw block, copied over them where the row
  draws from the origin: element by element the same operations as for one
  model (IEEE addition commutes, so `sqrt(s2)*z + mu` is `mu + sqrt(s2)*z` bit
  for bit). The refit runs `np.var`'s own steps once over the (R, S, m)
  samples: `mean` is the axis-1 sum divided by m, then the sum of
  `(x - mean)**2` (one correctly rounded product each) divided by m. That
  `mean` is what `np.mean` returns, so mu and sigma2 equal the one-seed
  `np.mean`/`np.var` by ==. numpy reduces each contiguous length-m row with the
  same pairwise sum as a 1-D call. A non-finite refit (an overflow) is refused,
  as GaussianModel refuses it. A model whose refit variance is not positive is
  marked collapsed and keeps its last good fit; until one is, the refits are
  the models, with no bookkeeping.
* A categorical model is the sorted support indices of the m samples it
  was fit to (the start model: its present symbols, one each), with each
  symbol's probability at its last position and 0.0 at the others. Draws
  are `searchsorted` on its cumsum over only those positions, and a draw
  past the last step clips to the last position, the last present symbol.
  These are the draws of the model's probability vector over the whole
  sorted support: adding 0.0 leaves a running sum as it was, so the cumsum
  at each symbol's last position is the float the vector's cumsum holds at
  that symbol, and the first position whose cumsum exceeds u is always a
  symbol's last, since the positions before it in its run hold the sum of
  the symbols before it. The origin is searched the same way, once per
  draw block. The refit sorts the samples, marks where each symbol's run
  ends, and gathers one `bincount` at the sorted samples: `c / m`, the same
  division as over a count vector, kept only at run ends.

Memory is bounded however many seeds a regimen runs: `compare_regimens`
advances SEED_CHUNK seeds at a time, and each seed draws at most
DRAW_BLOCK numbers (or one generation's m, if larger) at a time, so a
chunk holds its draws plus (R, SEED_CHUNK, m) samples. A Gaussian chunk holds
its draws twice, as normals and as origin samples: 2 * SEED_CHUNK * DRAW_BLOCK
floats (8 MiB) when m <= DRAW_BLOCK. A categorical chunk also holds
(R, SEED_CHUNK, m) sorted samples and probabilities (the start model's width
before the first refit), plus one transient R * SEED_CHUNK * K bincount per
generation for an origin of K symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import write_atomic
from .diversity import tail_mass
from .errors import BadConfigError, DegenerateFitError
from .offsetlog import canonical_json

MODEL_KINDS = ("gaussian", "categorical")
TAIL_K = 2.0
SEED_CHUNK = 64  # seeds advanced together by compare_regimens
DRAW_BLOCK = 8192  # random numbers drawn per seed at a time


@dataclass(frozen=True)
class GaussianModel:
    mu: float
    sigma2: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise BadConfigError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.sigma2 < math.inf:
            raise BadConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")


@dataclass(frozen=True)
class CategoricalModel:
    """Probabilities over a finite, sortable symbol set; entries in (0, 1]."""

    probabilities: dict

    def __post_init__(self):
        if not self.probabilities:
            raise BadConfigError("categorical model needs at least one symbol")
        for symbol, p in self.probabilities.items():
            if not 0.0 < p < math.inf:
                raise BadConfigError(
                    f"probabilities[{symbol!r}] must be positive and finite, got {p}")
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > 1e-12:
            raise BadConfigError(f"probabilities sum to {total!r}, not 1")

    def support(self) -> list:
        return sorted(self.probabilities)

    def entropy_bits(self) -> float:
        return _entropy_bits(self.probabilities.values())


def uniform_categorical(n_symbols: int) -> CategoricalModel:
    if n_symbols < 1:
        raise BadConfigError("need at least one symbol")
    p = 1.0 / n_symbols
    return CategoricalModel({i: p for i in range(n_symbols)})


def _check_rho(rho: float) -> None:
    """Refuse a human-data fraction outside [0, 1], NaN included."""
    if not 0.0 <= rho <= 1.0:
        raise BadConfigError(f"rho must lie in [0, 1], got {rho}")


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
        _check_rho(self.rho)
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


def _entropy_bits(probabilities) -> float:
    """Shannon entropy in bits of positive probabilities, in any order."""
    return -math.fsum(p * math.log2(p) for p in probabilities)


def _human_mask(m: int, rhos: Sequence[float]) -> np.ndarray:
    """(R, 1, m): True where row r's sample is drawn from the origin."""
    h = np.array([_human_count(m, rho) for rho in rhos], dtype=np.intp)
    return np.arange(m) < h.reshape(-1, 1, 1)


class _GaussianBlock:
    """An (R, S) block of Gaussian models: one row per rho, one column per seed."""

    @staticmethod
    def draw(rng, shape) -> np.ndarray:
        return rng.standard_normal(shape)

    def __init__(self, origin: GaussianModel, m: int, rhos, n_seeds: int, start: GaussianModel):
        shape = (len(rhos), n_seeds, 1)
        self.m = m
        self.human = _human_mask(m, rhos)
        self.mu0, self.sd0, self.sigma2_0 = origin.mu, math.sqrt(origin.sigma2), origin.sigma2
        self.mu = np.full(shape, start.mu, dtype=np.float64)
        self.s2 = np.full(shape, start.sigma2, dtype=np.float64)
        self.collapsed = np.zeros(shape, dtype=bool)
        self.any_collapsed = False  # collapsed.any(), which every generation asks

    def advance(self, z: np.ndarray, from_origin: np.ndarray) -> np.ndarray:
        """One generation from normals z (S, m) and origin samples `sd0*z + mu0`."""
        x = np.sqrt(self.s2) * z
        x += self.mu
        np.copyto(x, from_origin, where=self.human)
        # np.var's own steps, once; its mean is the refit mu
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        mean /= self.m
        d = x - mean
        d *= d
        var = np.add.reduce(d, axis=-1, keepdims=True)
        var /= self.m
        if not np.maximum.reduce(var, axis=None, initial=0.0) < np.inf:
            overflowed = var[~np.isfinite(var)][0]  # a refit that no model may hold
            raise BadConfigError(f"sigma2 must be positive and finite, got {overflowed}")
        # while every model is sound, the refit is the model; from a model's first
        # refit that is not positive, it is collapsed and keeps its last good fit
        if self.any_collapsed or not np.minimum.reduce(var, axis=None, initial=np.inf) > 0.0:
            self.any_collapsed = True
            self.collapsed |= var <= 0.0
            mean = np.where(self.collapsed, self.mu, mean)
            var = np.where(self.collapsed, self.s2, var)
        self.mu, self.s2 = mean, var
        return x

    def generations(self, draws: np.ndarray):
        """One generation per (S, m) normals of draws (G, S, m)."""
        from_origin = draws * self.sd0
        from_origin += self.mu0
        return map(self.advance, draws, from_origin)

    def model(self, r: int, s: int) -> GaussianModel:
        return GaussianModel(mu=float(self.mu[r, s, 0]), sigma2=float(self.s2[r, s, 0]))

    def finals(self) -> list[tuple]:
        """Per row: (variance ratios, entropies, distincts) of every column."""
        return [(tuple(row), (), ()) for row in (self.s2[..., 0] / self.sigma2_0).tolist()]


class _CategoricalBlock:
    """An (R, S) block of categorical models. Each model is the W sorted
    support indices it was fit to (the start model: its present symbols),
    with each symbol's probability at its last position and 0.0 elsewhere."""

    @staticmethod
    def draw(rng, shape) -> np.ndarray:
        return rng.random(shape)

    def __init__(self, origin: CategoricalModel, m: int, rhos, n_seeds: int,
                 start: CategoricalModel):
        self.m = m
        self.support = sorted(origin.probabilities.keys() | start.probabilities.keys())
        origin_p, start_p = (
            np.array([model.probabilities.get(s, 0.0) for s in self.support], dtype=np.float64)
            for model in (origin, start)
        )
        shape = (len(rhos), n_seeds)
        self.human_counts = [_human_count(m, rho) for rho in rhos]
        # rows with at least one sample from the model: at rho = 1 every one
        # is human, and such a row needs no search of its model
        self.modeled = [r for r, h in enumerate(self.human_counts) if h < m]
        self.origin_idx = np.flatnonzero(origin_p)
        self.origin_cdf = np.cumsum(origin_p[self.origin_idx])
        start_idx = np.flatnonzero(start_p)
        self.idx = np.broadcast_to(start_idx, (*shape, len(start_idx)))
        self.p = np.broadcast_to(start_p[start_idx], self.idx.shape)
        self.collapsed = np.zeros(shape, dtype=bool)  # support loss is no collapse
        # where each model's counts start in the one bincount of a generation
        self.offsets = np.arange(math.prod(shape)).reshape(*shape, 1) * len(self.support)

    def generations(self, draws: np.ndarray):
        """One generation per (S, m) uniforms of draws (G, S, m); yields each
        one's (R, S, m) sample indices into the support, in draw order."""
        top = max(self.human_counts, default=0)
        # take's clip mode maps a uniform past the last cdf step to the last position, W - 1
        found = self.origin_cdf.searchsorted(draws[..., :top], side="right")
        for u, from_origin in zip(draws, self.origin_idx.take(found, mode="clip")):
            # every row takes the origin draws; a modelled row then overwrites its own from h on
            samples = np.empty(self.p.shape[:-1] + (self.m,), dtype=np.intp)
            samples[..., :top] = from_origin
            cdf = self.p.cumsum(axis=-1)
            for r in self.modeled:
                h = self.human_counts[r]
                for c, idx, row, out in zip(cdf[r], self.idx[r], u[:, h:], samples[r, :, h:]):
                    idx.take(c.searchsorted(row, side="right"), out=out, mode="clip")
            self._refit(samples)
            yield samples

    def _refit(self, samples: np.ndarray) -> None:
        """Each model becomes its sorted samples, with c / m at each symbol's last one."""
        x = np.sort(samples, axis=-1)
        end = np.empty(x.shape, dtype=bool)
        np.not_equal(x[..., :-1], x[..., 1:], out=end[..., :-1])
        end[..., -1] = True
        at = x + self.offsets
        self.p = np.bincount(at.ravel()).take(at) / self.m
        self.p *= end
        self.idx = x

    def model(self, r: int, s: int) -> CategoricalModel:
        p = self.p[r, s]
        present = np.flatnonzero(p)
        return CategoricalModel({self.support[i]: q for i, q in
                                 zip(self.idx[r, s, present].tolist(), p[present].tolist())})

    def finals(self) -> list[tuple]:
        """Per row: (variance ratios, entropies, distincts) of every column."""
        distincts = np.count_nonzero(self.p, axis=-1).tolist()
        return [
            ((), tuple(_entropy_bits(p[p > 0].tolist()) for p in row), tuple(row_distincts))
            for row, row_distincts in zip(self.p, distincts)
        ]


def _block(origin, m: int, rhos: Sequence[float], n_seeds: int, start=None):
    start = origin if start is None else start
    kind = _GaussianBlock if isinstance(start, GaussianModel) else _CategoricalBlock
    return kind(origin, m, rhos, n_seeds, start)


def _generations(block, rngs: Sequence[np.random.Generator], generations: int, m: int):
    """Advance the block generation by generation; yield each one's samples.

    Column s draws from rngs[s], at most DRAW_BLOCK numbers (and at least one
    generation's m) at a time."""
    per_draw = max(1, DRAW_BLOCK // m)
    for first in range(0, generations, per_draw):
        shape = (min(per_draw, generations - first), m)
        draws = np.array([block.draw(rng, shape) for rng in rngs])  # (S, G, m)
        yield from block.generations(draws.swapaxes(0, 1))


def step_generation(model, origin, m: int, rho: float, rng: np.random.Generator):
    """One generation: sample the rho-mix, refit by maximum likelihood.

    Returns (samples, refitted model). Gaussian refits use the biased MLE
    variance (divisor m); a zero-variance fit raises DegenerateFitError.
    Categorical refits keep empirical frequencies and drop absent symbols.
    """
    block = _block(origin, m, [rho], 1, start=model)
    samples = next(block.generations(block.draw(rng, (1, 1, m))))[0, 0]
    if block.collapsed.any():
        raise DegenerateFitError(f"all {m} samples identical at value {samples[0]!r}")
    if isinstance(block, _CategoricalBlock):
        samples = [block.support[i] for i in samples.tolist()]
    return samples, block.model(0, 0)


def _origin_frame(origin) -> tuple[float, float]:
    """The origin frame (mu0, sigma0); categorical symbols sit at their index
    in the sorted origin support."""
    if isinstance(origin, GaussianModel):
        return origin.mu, math.sqrt(origin.sigma2)
    symbols = origin.support()
    probs = np.array([origin.probabilities[s] for s in symbols])
    values = np.arange(len(symbols), dtype=np.float64)
    mu0 = float(probs @ values)
    sigma0 = float(math.sqrt(max(0.0, probs @ (values - mu0) ** 2)))
    return mu0, sigma0


def _origin_tail(origin, mu0: float, sigma0: float) -> float:
    """Analytic tail mass of the origin itself, for generation 0."""
    if isinstance(origin, GaussianModel):
        # mass of N(mu0, sigma0**2) outside [mu0 - k s0, mu0 + k s0]; the
        # bounds keep their float rounding (a spread far below mu0's ulp
        # rounds to a zero-width window, tail 1.0), so lo is not simply -k
        phi = lambda t: 0.5 * math.erfc(-t / math.sqrt(2.0))
        lo = (mu0 - TAIL_K * sigma0 - mu0) / sigma0
        hi = (mu0 + TAIL_K * sigma0 - mu0) / sigma0
        return 1.0 - (phi(hi) - phi(lo))
    value_of = {s: float(i) for i, s in enumerate(origin.support())}
    mass = 0.0
    for s, p in origin.probabilities.items():
        if abs(value_of[s] - mu0) > TAIL_K * sigma0:
            mass += p
    return mass


def _sample_tail(samples: np.ndarray, mu0: float, sigma0: float) -> float:
    if sigma0 == 0.0:
        # a one-symbol origin: every sample is its only symbol, at mu0
        return 0.0
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
    origin = config.origin
    mu0, sigma0 = _origin_frame(origin)
    records = [_record(0, origin, _origin_tail(origin, mu0, sigma0))]
    block = _block(origin, config.m, [config.rho], 1)
    rng = np.random.default_rng(config.seed)
    status = "completed"
    for t, samples in enumerate(_generations(block, [rng], config.generations, config.m), 1):
        if block.collapsed.any():
            status = "collapsed"
            break
        records.append(_record(t, block.model(0, 0), _sample_tail(samples[0, 0], mu0, sigma0)))
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
    common random numbers. Each block of SEED_CHUNK seeds runs every rho at
    once, and only the final models are kept.
    """
    if n_seeds < 1:
        raise BadConfigError(f"n_seeds must be positive, got {n_seeds}")
    for rho in rhos:
        _check_rho(rho)
    finals = [((), (), ()) for _ in rhos]
    for first in range(0, n_seeds, SEED_CHUNK):
        indices = range(first, min(n_seeds, first + SEED_CHUNK))
        rngs = [np.random.default_rng(seed_for(base.seed, i)) for i in indices]
        block = _block(base.origin, base.m, rhos, len(rngs))
        for _ in _generations(block, rngs, base.generations, base.m):
            pass
        finals = [tuple(a + b for a, b in zip(kept, new))
                  for kept, new in zip(finals, block.finals())]
    rows = tuple(RegimenRow(float(rho), *row) for rho, row in zip(rhos, finals))
    return RegimenReport(base=base, n_seeds=n_seeds, rows=rows)


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
    return canonical_json(
        {
            "model_kind": config.model_kind,
            "m": config.m,
            "G": config.generations,
            "rho": config.rho,
            "seed": config.seed,
            "origin": origin,
        }
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
    write_atomic(path, "\n".join(lines) + "\n")


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
