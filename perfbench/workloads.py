"""The four closed-loop workloads, built from zerebro's public functions.

Each workload is a sequence of units. A unit is a fixed amount of work
(one agent session, one backrooms seed at two injection rates, one
collapse sweep, one ledger churn) whose inputs derive from the workload
seed and the unit index alone, so every unit can be checked against a
golden digest. A unit is built in two steps: `build(seed, out, size)`
does everything up to the unit's first op (store, ledger, connector and
generator construction, input generation) and returns a callable that
runs the ops, writes the unit's artifacts under `out`, checks them and
returns a `UnitResult`.

Ops record their wall-clock (start, end), and the unit calls the `tick`
it was built with between ops, so that run.py can turn them into paced
time (see pace.py).

Every library call goes through its module attribute (`agent.run_session`,
`collapse.compare_regimens`, ...) so that the traced run's wrappers, which
are installed on those attributes, see it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from zerebro import agent, backrooms, chain, collapse, platforms
from zerebro.clock import SimClock
from zerebro.corpus import human_corpus
from zerebro.embedding import EmbeddingConfig
from zerebro.errors import (
    DuplicateArtError,
    InsufficientFundsError,
    NotOwnerError,
    SymbolTakenError,
)
from zerebro.generator import MarkovGenerator
from zerebro.memory import MemoryStore


@dataclass
class UnitResult:
    ops: int
    failed: int
    # wall-clock (start, end, ops) of each op, or of each timed call that
    # loops over `ops` ops itself; one latency sample each
    samples: list[tuple[float, float, int]]
    digest: str
    # per-seed finals pooled across units for the run-level statistical checks
    pooled: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Size:
    agent_turns: int = 1000
    backrooms_turns: int = 200
    gauss_chunks: int = 20  # compare_regimens calls per unit, CHUNK_SEEDS seeds each
    cat_chunks: int = 5
    ledger_ops: int = 10_000


FULL = Size()
SMOKE = Size(agent_turns=20, backrooms_turns=12, gauss_chunks=2, cat_chunks=1, ledger_ops=300)


def unit_seed(seed: int, unit: int) -> int:
    """Inputs of unit `unit` of a run with workload seed `seed`."""
    return seed * 1000 + unit


def digest_dir(out: Path) -> str:
    """sha256 over every file's relative path and content, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# --- agent-session ------------------------------------------------------------------
# Set up as `zerebro agent` sets it up: dimension 256, default connectors,
# endowment "100", threshold 0, max_actions 3, art written as PPM files.

AGENT_DIMENSION = 256
AGENT_THRESHOLD = 0.0


def build_agent_session(seed: int, out: Path, size: Size,
                        tick: Callable[[], None]) -> Callable[[], UnitResult]:
    clock = SimClock()
    memory = MemoryStore(EmbeddingConfig(dimension=AGENT_DIMENSION, seed=seed))
    connectors = platforms.make_default_connectors(seed=seed, clock=clock)
    ledger = chain.Ledger(clock=clock)
    wallet = ledger.create_wallet(seed=seed, endowment=chain.to_nanos("100"))
    art_dir = out / "art"
    art_dir.mkdir(parents=True)
    client = chain.AgentChainClient(
        ledger, wallet,
        art_sink=lambda art_hash, art: (art_dir / f"{art_hash}.ppm").write_bytes(art),
    )
    state = agent.initial_state(seed, sentiment_threshold=AGENT_THRESHOLD)
    generator = MarkovGenerator()
    corpus = human_corpus()
    obs_rng = np.random.default_rng(seed)
    turns = size.agent_turns

    def run() -> UnitResult:
        starts: list[float] = []
        ends: list[float] = []

        def observations(_turn: int) -> str:
            # a turn runs from its observation to the next one
            ends.append(time.perf_counter())
            tick()
            starts.append(time.perf_counter())
            return corpus[int(obs_rng.integers(len(corpus)))]

        log_path = out / "agent.log"
        with platforms.EventLog(log_path, clock=clock) as log:
            final, live_hash = agent.run_session(
                state, memory, connectors, client, generator, observations, turns,
                log=log, clock=clock, eta=agent.DEFAULT_ETA,
                max_actions=agent.DEFAULT_MAX_ACTIONS,
            )
        ends.append(time.perf_counter())
        ledger.save(out / "ledger.log")
        (out / "state_hash.txt").write_text(live_hash + "\n", encoding="utf-8")

        bad_turns, post_counts = _agent_bad_turns(log_path, memory)
        unit_ok = (
            final.turn_counter == turns
            and all(connectors[name].post_count == n for name, n in post_counts.items())
            and platforms.replay_log(log_path, persona_seed=seed) == live_hash
            and ledger.verify().ok
        )
        return UnitResult(
            ops=turns,
            failed=len(bad_turns) if unit_ok else turns,
            samples=[(a, b, 1) for a, b in zip(starts, ends[1:])],
            digest=digest_dir(out),
        )

    return run


def _agent_bad_turns(log_path: Path, memory: MemoryStore) -> tuple[set[int], dict[str, int]]:
    """Turns that break gate soundness, provenance or dense post ids, and
    the number of posts the log records per platform."""
    bad: set[int] = set()
    seen: set[str] = set()
    pending_obs = None
    next_post: dict[str, int] = {}
    for entry in platforms.read_log(log_path):
        p = entry.payload
        turn = p["turn"]
        if entry.kind == "observation":
            pending_obs = p["id"]
        elif entry.kind == "plan":
            # provenance may name only records stored before this turn's plan
            if any(not set(r["provenance"]) <= seen for r in p["requests"]):
                bad.add(turn)
            if pending_obs is not None:
                seen.add(pending_obs)
                pending_obs = None
        elif entry.kind == "gate":
            for g in p["results"]:
                if g["kind"] == "post_text" and g["passed"] != (g["score"] >= AGENT_THRESHOLD):
                    bad.add(turn)
        elif entry.kind == "receipt" and p["kind"] == "post_text":
            seen.add(p["memory_id"])
            record = memory.get(p["memory_id"])
            expected = next_post.get(p["target"], 0)
            next_post[p["target"]] = expected + 1
            if (record is None or p["post_id"] != expected
                    or agent.sentiment_score(record.text) < AGENT_THRESHOLD):
                bad.add(turn)
    return bad, next_post


# --- backrooms ----------------------------------------------------------------------
# As `zerebro backrooms` runs it: EmbeddingConfig() (dimension 768), hashed
# backend, the default opening prompt, injected sentences not stored.

BACKROOMS_RATES = (0.0, 0.5)


class _PacedGenerator(MarkovGenerator):
    """A MarkovGenerator that ticks between the retrieve and the generation
    of each dialogue turn, since run_backrooms loops over its turns itself;
    it generates exactly what its parent does."""

    def __init__(self, tick: Callable[[], None]):
        super().__init__()
        self._tick = tick

    def generate(self, *args, **kwargs):
        self._tick()
        return super().generate(*args, **kwargs)


def build_backrooms(seed: int, out: Path, size: Size,
                    tick: Callable[[], None]) -> Callable[[], UnitResult]:
    out.mkdir(parents=True)
    generator = _PacedGenerator(tick)
    dimension = EmbeddingConfig().dimension
    dialogues = [
        (
            backrooms.BackroomsConfig(turns=size.backrooms_turns, seed=seed, injection_rate=rate),
            MemoryStore(EmbeddingConfig(dimension=dimension, seed=seed), backend="hashed"),
        )
        for rate in BACKROOMS_RATES
    ]

    def run() -> UnitResult:
        samples: list[tuple[float, float, int]] = []
        failed = 0
        for cfg, memory in dialogues:
            start = time.perf_counter()
            transcript = backrooms.run_backrooms(cfg, memory=memory, generator=generator)
            # the dialogue loops over its turns itself: one sample per call
            samples.append((start, time.perf_counter(), cfg.turns))
            backrooms.write_transcript(
                transcript, out / f"transcript-rate{cfg.injection_rate}.txt"
            )
            failed += _backrooms_bad_turns(cfg, transcript, memory)
        return UnitResult(
            ops=len(dialogues) * size.backrooms_turns,
            failed=failed,
            samples=samples,
            digest=digest_dir(out),
        )

    return run


def _backrooms_bad_turns(cfg, transcript, memory: MemoryStore) -> int:
    ids = [f"br-{t:05d}" for t in range(cfg.turns)]
    if (len(transcript.turns) != cfg.turns or len(memory) != cfg.turns
            or memory.ids() != ids):
        return cfg.turns
    bad = 0
    for t, expected_id in zip(transcript.turns, ids):
        r = t.report
        values = (r.shannon_entropy_bits, r.distinct_1, r.distinct_2,
                  r.embedding_dispersion, r.tail_mass)
        ok = (
            t.memory_ids == (expected_id,)
            and all(math.isfinite(v) for v in values)
            and r.shannon_entropy_bits >= 0.0
            and all(0.0 <= v <= 1.0 for v in (r.distinct_1, r.distinct_2, r.tail_mass))
            and 0.0 <= r.embedding_dispersion <= 2.0
        )
        bad += not ok
    return bad


# --- collapse-sweep -----------------------------------------------------------------
# Gaussian and categorical with `zerebro collapse` defaults (m=100, G=50,
# mu=0, sigma2=1, 1000 symbols). compare_regimens is called over consecutive
# blocks of the seed family: seed_for(base, i) = base + i, so the rows joined
# in order equal one call over all the seeds.

RHOS = (0.0, 0.25, 0.5, 1.0)
CHUNK_SEEDS = {"gaussian": 5, "categorical": 1}
COLLAPSE_M = 100
COLLAPSE_G = 50
COLLAPSE_SYMBOLS = 1000
SEED_STRIDE = 10**6  # seeds per unit; each unit's seed family is disjoint


def _collapse_bases(seed: int):
    first = seed * SEED_STRIDE
    return (
        collapse.RecursionConfig("gaussian", COLLAPSE_M, COLLAPSE_G, 0.0, first,
                                 collapse.GaussianModel(mu=0.0, sigma2=1.0)),
        collapse.RecursionConfig("categorical", COLLAPSE_M, COLLAPSE_G, 0.0, first,
                                 collapse.uniform_categorical(COLLAPSE_SYMBOLS)),
    )


def build_collapse_sweep(seed: int, out: Path, size: Size,
                         tick: Callable[[], None]) -> Callable[[], UnitResult]:
    out.mkdir(parents=True)
    bases = _collapse_bases(seed)
    chunks = {"gaussian": size.gauss_chunks, "categorical": size.cat_chunks}

    def run() -> UnitResult:
        ops = failed = 0
        samples: list[tuple[float, float, int]] = []
        pooled = {}
        for base in bases:
            kind = base.model_kind
            per_call = CHUNK_SEEDS[kind] * len(RHOS) * base.generations
            columns: list[list] = [[] for _ in RHOS]
            for c in range(chunks[kind]):
                block = replace(base, seed=base.seed + c * CHUNK_SEEDS[kind])
                tick()
                start = time.perf_counter()
                report = collapse.compare_regimens(block, RHOS, n_seeds=CHUNK_SEEDS[kind])
                samples.append((start, time.perf_counter(), per_call))
                ops += per_call
                if not _regimen_rows_ok(report, kind):
                    failed += per_call
                for column, row in zip(columns, report.rows):
                    column.append(row)
            rows = tuple(
                collapse.RegimenRow(
                    rho=float(rho),
                    final_variance_ratios=sum((r.final_variance_ratios for r in col), ()),
                    final_entropies=sum((r.final_entropies for r in col), ()),
                    final_distincts=sum((r.final_distincts for r in col), ()),
                )
                for rho, col in zip(RHOS, columns)
            )
            n_seeds = CHUNK_SEEDS[kind] * chunks[kind]
            _write_regimen_report(
                collapse.RegimenReport(base=base, n_seeds=n_seeds, rows=rows),
                out / f"collapse_report-{kind}.txt",
            )
            pooled[kind] = [
                r.final_variance_ratios if kind == "gaussian" else r.final_entropies
                for r in rows
            ]

        trajectory = collapse.run_recursion(bases[0])
        collapse.write_trajectory(trajectory, out / "trajectory.tsv")
        ops += bases[0].generations
        if trajectory.status != "completed" or len(trajectory.records) != bases[0].generations + 1:
            failed += bases[0].generations
        return UnitResult(ops=ops, failed=failed, samples=samples,
                          digest=digest_dir(out), pooled=pooled)

    return run


def _write_regimen_report(report, path: Path) -> None:
    """The regimen report file as `zerebro collapse` writes it."""
    lines = [collapse.format_regimen_report(report).rstrip("\n")]
    base = report.base
    if base.model_kind == "gaussian":
        analytic = ((base.m - 1) / base.m) ** base.generations
        lines.append(f"analytic_rho0_variance_ratio={analytic!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _regimen_rows_ok(report, kind: str) -> bool:
    n = report.n_seeds
    if [row.rho for row in report.rows] != list(RHOS):
        return False
    for row in report.rows:
        if kind == "gaussian":
            if len(row.final_variance_ratios) != n or not all(
                math.isfinite(v) and v > 0.0 for v in row.final_variance_ratios
            ):
                return False
        elif (len(row.final_entropies) != n or len(row.final_distincts) != n
              or not all(0.0 <= h <= math.log2(COLLAPSE_SYMBOLS) + 1e-9
                         for h in row.final_entropies)
              or not all(1 <= d <= COLLAPSE_SYMBOLS for d in row.final_distincts)):
            return False
    return True


def collapse_run_ok(results: list[UnitResult]) -> bool:
    """Rho dominance and the analytic rho=0 decay, pooled over the run's units.

    Both hold in expectation; on a finite seed family each is tested to four
    standard errors. Dominance compares paired seeds (common random numbers),
    and the decay tolerance is the larger of 5% and four analytic standard
    errors of the mean final variance ratio.
    """
    for kind in ("gaussian", "categorical"):
        columns = [np.concatenate([r.pooled[kind][i] for r in results]) for i in range(len(RHOS))]
        for lower, upper in zip(columns, columns[1:]):
            diff = upper - lower
            if len(diff) >= 2:
                slack = 4.0 * diff.std(ddof=1) / math.sqrt(len(diff))
            else:
                slack = 0.0
            if diff.mean() < -slack:
                return False
    ratios = np.concatenate([r.pooled["gaussian"][0] for r in results])
    m, g = COLLAPSE_M, COLLAPSE_G
    target = ((m - 1) / m) ** g
    # relative variance of one final ratio: E[X^2]^G / E[X]^(2G) - 1, X ~ chi2(m-1)/m
    rel_sd = math.sqrt(((m + 1) / (m - 1)) ** g - 1.0)
    tolerance = max(0.05, 4.0 * rel_sd / math.sqrt(len(ratios)))
    return abs(ratios.mean() - target) <= tolerance * target


# --- ledger-churn -------------------------------------------------------------------
# Criterion 7's shape: random transfer / mint_nft / execute_sale /
# deploy_token calls over 8 wallets endowed with 100 each, default fees.
# Every PROBE_EVERY ops a serialize+sha256 snapshot is taken around a
# typed-error probe that must leave it unchanged.

LEDGER_WALLETS = 8
PROBE_EVERY = 100


def build_ledger_churn(seed: int, out: Path, size: Size,
                       tick: Callable[[], None]) -> Callable[[], UnitResult]:
    out.mkdir(parents=True)
    ledger = chain.Ledger(fees=chain.ChainFees())
    addresses = [
        ledger.create_wallet(seed=seed * LEDGER_WALLETS + i, endowment=chain.to_nanos(100)).address
        for i in range(LEDGER_WALLETS)
    ]
    endowed = LEDGER_WALLETS * chain.to_nanos(100)
    rng = np.random.default_rng(seed)
    # one row of uniforms per attempted call; a call skipped for lack of
    # funds, NFTs or tokens consumes its row, as in criterion 7
    rows = iter(rng.random((3 * size.ledger_ops, 7)).tolist())
    art_base = seed * SEED_STRIDE

    def run() -> UnitResult:
        samples: list[tuple[float, float, int]] = []
        failed = 0
        minted: list[int] = []
        symbols: list[str] = []
        snapshots: list[str] = []
        art_count = 0

        def pick(u: float, seq):
            return seq[int(u * len(seq))]

        def snapshot() -> str:
            return hashlib.sha256(ledger.serialize().encode("utf-8")).hexdigest()

        def conserved() -> bool:
            return sum(ledger.balance(a) for a in addresses) + ledger.fees_collected() == endowed

        def timed(call, *args):
            """(result, None), or (None, the exception) for a call that raised."""
            tick()
            start = time.perf_counter()
            try:
                return call(*args), None
            except Exception as exc:  # a failed op, or a probe's expected error
                return None, exc
            finally:
                samples.append((start, time.perf_counter(), 1))

        def probe(expected, call, *args) -> bool:
            before = snapshot()
            snapshots.append(before)
            return isinstance(timed(call, *args)[1], expected) and snapshot() == before

        def mint(address: str, art_seed: int):
            return ledger.mint_nft(address, chain.generate_art(art_seed, "fuzz", 4, 4))

        done = 0
        while done < size.ledger_ops:
            u = next(rows)
            op, a, b = int(u[0] * 5), pick(u[1], addresses), pick(u[2], addresses)
            if op == 0:
                call = (ledger.transfer, a, b, int(u[3] * (ledger.balance(a) + 1)))
            elif op == 1:
                if ledger.balance(a) < ledger.fees.mint:
                    continue
                art_count += 1
                call = (mint, a, art_base + art_count)
            elif op == 2:
                if not minted:
                    continue
                token_id = pick(u[4], minted)
                price = int(u[3] * (ledger.balance(b) + 1))
                call = (ledger.execute_sale, token_id, ledger.nft_owner(token_id), b, price)
            elif op == 3:
                if ledger.balance(a) < ledger.fees.deploy:
                    continue
                symbol = "FZ" + "".join(chr(ord("A") + int(d)) for d in f"{len(symbols):04d}")
                call = (ledger.deploy_token, a, f"fuzz token {len(symbols)}", symbol, 10_000)
            else:
                if not symbols:
                    continue
                symbol = pick(u[4], symbols)
                holders = [x for x in addresses if ledger.token_balance(symbol, x) > 0]
                if not holders:
                    continue
                seller = pick(u[5], holders)
                units = 1 + int(u[6] * ledger.token_balance(symbol, seller))
                price = int(u[3] * (ledger.balance(b) + 1))
                call = (ledger.execute_sale, (symbol, units), seller, b, price)

            result, error = timed(*call)
            done += 1
            if error is None:
                if op == 1:
                    minted.append(result.token_id)
                elif op == 3:
                    symbols.append(result.symbol)
            if error is not None or not conserved():
                failed += 1

            if done % PROBE_EVERY == 0:
                v = next(rows)
                broke, a = pick(v[0], addresses), pick(v[3], addresses)
                attempt = int(v[1] * 3)
                if attempt == 1 and minted:
                    token_id = pick(v[2], minted)
                    outsider = next(x for x in addresses if x != ledger.nft_owner(token_id))
                    ok = probe(NotOwnerError, ledger.execute_sale, token_id, outsider, a, 0)
                elif attempt == 2 and symbols and ledger.balance(a) >= ledger.fees.deploy:
                    ok = probe(SymbolTakenError, ledger.deploy_token, a, "dup", symbols[0], 5)
                else:
                    ok = probe(InsufficientFundsError, ledger.transfer,
                               broke, a, ledger.balance(broke) + 1)
                failed += not (ok and conserved())

        if art_count:
            rich = max(addresses, key=ledger.balance)
            failed += not probe(DuplicateArtError, mint, rich, art_base + 1)
        ops = len(samples)

        (out / "snapshots.txt").write_text("".join(s + "\n" for s in snapshots), encoding="utf-8")
        ledger_path = out / "ledger.log"
        ledger.save(ledger_path)
        hashes = [m.art_hash for m in ledger.mints()]
        unit_ok = (
            ledger.verify().ok
            and len(hashes) == len(set(hashes))
            and chain.Ledger.load(ledger_path).serialize() == ledger.serialize()
        )
        return UnitResult(
            ops=ops,
            failed=failed if unit_ok else ops,
            samples=samples,
            digest=digest_dir(out),
        )

    return run


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path, Size, Callable[[], None]], Callable[[], UnitResult]]
    trace_units: int  # units the traced run measures, untraced then traced
    run_ok: Callable[[list[UnitResult]], bool] = lambda results: True


WORKLOADS = {
    "agent-session": Workload(build_agent_session, trace_units=1),
    "backrooms": Workload(build_backrooms, trace_units=4),
    "collapse-sweep": Workload(build_collapse_sweep, trace_units=4, run_ok=collapse_run_ok),
    "ledger-churn": Workload(build_ledger_churn, trace_units=1),
}
