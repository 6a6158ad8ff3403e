"""Single entry-point CLI: experiments, memory inspection, agent runs,
chain operations, and report generation.

Every command resolves its configuration (config file overridden by
flags), runs under simulated clocks and writes its artifacts beneath
--out. `main` then writes manifest.json: the command, every resolved
value (each flag plus each config-file value the command read) and the
artifact names, enough to reproduce the run byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error (including a bad
flag or config value).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import backrooms as backrooms_mod
from . import chain as chain_mod
from . import collapse as collapse_mod
from .atomic import write_atomic
from .clock import SimClock
from .corpus import human_corpus
from .embedding import EmbeddingConfig
from .errors import ZerebroError
from .generator import MarkovGenerator
from .memory import DEFAULT_TOP_K, MemoryStore
from .offsetlog import canonical_json
from .platforms import EventLog, load_connector_config, make_default_connectors

OUT_ENV = "ZEREBRO_OUT"


def parse_config_file(path: str | None) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment."""
    if not path:
        return {}
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ZerebroError(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _resolve(args, config: dict[str, str], dest: str, key: str, cast, default) -> None:
    """Set args.<dest> from its flag, else the config key, else the default."""
    if getattr(args, dest, None) is None:
        setattr(args, dest, cast(config[key]) if key in config else default)


# --- collapse --------------------------------------------------------------------


def cmd_collapse(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    _resolve(args, config, "seed", "collapse.seed", int, 0)
    if args.model == "gaussian":
        origin = collapse_mod.GaussianModel(mu=args.mu, sigma2=args.sigma2)
    else:
        origin = collapse_mod.uniform_categorical(args.symbols)
    base = collapse_mod.RecursionConfig(
        model_kind=args.model, m=args.m, generations=args.G,
        rho=args.rho, seed=args.seed, origin=origin,
    )

    # both computed before either is written, so a refused run leaves --out as it was
    trajectory = collapse_mod.run_recursion(base)
    report = collapse_mod.compare_regimens(base, [args.rho], n_seeds=args.seeds)
    traj_path = out / "trajectory.tsv"
    collapse_mod.write_trajectory(trajectory, traj_path)
    report_path = out / "collapse_report.txt"
    row = report.rows[0]
    lines = [collapse_mod.format_regimen_report(report).rstrip("\n")]
    if base.model_kind == "gaussian":
        analytic = ((base.m - 1) / base.m) ** base.generations
        lines.append(f"analytic_rho0_variance_ratio={analytic!r}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    mean = row.mean_variance_ratio if row.mean_variance_ratio is not None else row.mean_entropy_bits
    print(f"collapse: wrote {traj_path} and {report_path} (final metric mean {mean:.6f})")
    return 0, [traj_path.name, report_path.name]


# --- backrooms -------------------------------------------------------------------


def cmd_backrooms(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    _resolve(args, config, "seed", "backrooms.seed", int, 0)
    _resolve(args, config, "dimension", "embedding.dimension", int, EmbeddingConfig().dimension)
    _resolve(args, config, "backend", "embedding.backend", str, "hashed")
    cfg = backrooms_mod.BackroomsConfig(
        turns=args.turns, seed=args.seed, injection_rate=args.injection_rate,
        opening_prompt=args.prompt, store_injected=args.store_injected,
    )
    memory = MemoryStore(
        EmbeddingConfig(dimension=args.dimension, seed=args.seed), backend=args.backend
    )
    transcript = backrooms_mod.run_backrooms(cfg, memory=memory, generator=MarkovGenerator())
    transcript_path = out / "transcript.txt"
    backrooms_mod.write_transcript(transcript, transcript_path)

    final = transcript.final_report()
    print(
        f"backrooms: {args.turns} turns, final distinct_2={final.distinct_2:.4f} "
        f"dispersion={final.embedding_dispersion:.4f} -> {transcript_path}"
    )
    return 0, [transcript_path.name]


# --- agent -----------------------------------------------------------------------


def cmd_agent(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    _resolve(args, config, "seed", "agent.seed", int, 0)
    _resolve(args, config, "threshold", "agent.sentiment_threshold", float, 0.0)
    _resolve(args, config, "max_actions", "agent.max_actions_per_turn", int,
             agent_mod.DEFAULT_MAX_ACTIONS)
    _resolve(args, config, "eta", "agent.eta", float, agent_mod.DEFAULT_ETA)
    _resolve(args, config, "dimension", "embedding.dimension", int, 256)
    # before any artifact is written
    agent_mod.check_session_args(args.eta, args.max_actions)
    seed = args.seed

    clock = SimClock()
    memory = MemoryStore(EmbeddingConfig(dimension=args.dimension, seed=seed))
    if args.connectors:
        connectors = load_connector_config(args.connectors, clock=clock)
    else:
        connectors = make_default_connectors(seed=seed, clock=clock)
    ledger = chain_mod.Ledger(clock=clock)
    wallet = ledger.create_wallet(seed=seed, endowment=chain_mod.to_nanos(args.endowment))
    art_dir = out / "art"
    art_dir.mkdir(exist_ok=True)
    client = chain_mod.AgentChainClient(
        ledger, wallet,
        art_sink=lambda art_hash, art: (art_dir / f"{art_hash}.ppm").write_bytes(art),
    )
    state = agent_mod.initial_state(seed, sentiment_threshold=args.threshold)

    corpus = human_corpus()
    obs_rng = np.random.default_rng(seed)

    def observations(_turn: int) -> str:
        return corpus[int(obs_rng.integers(len(corpus)))]

    log_path = out / "agent.log"
    if log_path.exists():
        log_path.unlink()
    with EventLog(log_path, clock=clock) as log:
        final, state_digest = agent_mod.run_session(
            state, memory, connectors, client, MarkovGenerator(), observations,
            args.turns, log=log, clock=clock, eta=args.eta, max_actions=args.max_actions,
        )
    ledger_path = out / "ledger.log"
    ledger.save(ledger_path)
    hash_path = out / "state_hash.txt"
    hash_path.write_text(state_digest + "\n", encoding="utf-8")

    print(
        f"agent: {final.turn_counter} turns, memory {len(memory)} records, "
        f"state hash {state_digest[:16]}... -> {out}"
    )
    return 0, [log_path.name, ledger_path.name, hash_path.name]


# --- memory ----------------------------------------------------------------------


def cmd_memory(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    store_path = Path(args.store) if args.store else out / "memory.snapshot"
    # only upsert may start a store; query and stats report on one that exists
    if args.op != "upsert" or store_path.exists():
        store = MemoryStore.load(store_path)
    else:
        _resolve(args, config, "dimension", "embedding.dimension", int,
                 EmbeddingConfig().dimension)
        _resolve(args, config, "embedding_seed", "embedding.seed", int, 0)
        _resolve(args, config, "backend", "embedding.backend", str, "hashed")
        store = MemoryStore(
            EmbeddingConfig(dimension=args.dimension, seed=args.embedding_seed),
            backend=args.backend,
        )

    if args.op == "upsert":
        store.add_text(args.id, args.text, source=args.source, timestamp=SimClock()())
        store.persist(store_path)
        print(f"memory: upserted {args.id!r}, store now holds {len(store)} records")
    elif args.op == "query":
        results = store.retrieve(args.text, args.k)
        for r in results:
            print(f"{r.similarity:+.6f}  {r.record.id}  {r.record.text}")
        if not results:
            print("memory: store is empty")
    else:
        stats = store.stats()
        print(
            f"count={stats.count} dispersion={stats.dispersion:.6f} "
            f"histogram={canonical_json(stats.source_histogram)}"
        )
    return 0, [store_path.name]


# --- chain -----------------------------------------------------------------------


def cmd_chain(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    ledger_path = Path(args.ledger) if args.ledger else out / "ledger.log"
    artifacts = [ledger_path.name]
    if args.op == "verify":
        # the entries as read, since Ledger.load refuses a ledger that fails verification
        entries = chain_mod.read_entries(ledger_path)
        report = chain_mod.verify_entries(entries)
        if report.ok:
            print("ok")
        else:
            for violation in report.violations:
                print(f"violation: {violation}")
        return (0 if report.ok else 1), artifacts

    ledger = chain_mod.Ledger.load(ledger_path) if ledger_path.exists() else chain_mod.Ledger()
    wallet = ledger.create_wallet(seed=args.seed, endowment=chain_mod.to_nanos(args.endowment))
    if args.op == "mint":
        art = chain_mod.generate_art(args.art_seed, args.theme)
        record = ledger.mint_nft(wallet, art)
        art_path = out / f"{record.art_hash}.ppm"
        art_path.write_bytes(art)
        artifacts.append(art_path.name)
        done = f"minted token {record.token_id} (art {record.art_hash[:16]}...)"
    else:
        record = ledger.deploy_token(wallet, args.name, args.symbol, args.supply)
        done = f"deployed {record.symbol} supply {record.total_supply}"
    ledger.save(ledger_path)
    print(f"chain: {done}")
    return 0, artifacts


# --- report ----------------------------------------------------------------------


def _report_input(path: str) -> str:
    """The text of a file to merge, trailing newlines stripped; a file that
    is empty or not UTF-8 is a runtime error."""
    try:
        text = Path(path).read_bytes().decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise ZerebroError(f"report: {path} is not UTF-8 text ({exc})") from None
    if not text.strip():
        raise ZerebroError(f"report: {path} is empty")
    return text


def _collapse_section(path: str) -> str:
    text = _report_input(path)
    if not text.startswith("# collapse trajectory v1"):
        return text  # already a regimen report
    lines = text.splitlines()
    config_line = next((line[2:] for line in lines if line.startswith("# config")), None)
    columns = next((line for line in lines if line.startswith("generation")), None)
    rows = [line for line in lines if line and not line.startswith(("#", "generation"))]
    if config_line is None or columns is None or not rows:
        raise ZerebroError(
            f"report: {path} is a collapse trajectory without its config, column or data lines"
        )
    return "\n".join([config_line, f"generations={len(rows) - 1}",
                      f"final [{columns}]: {rows[-1]}"])


def cmd_report(args, config: dict[str, str], out: Path) -> tuple[int, list[str]]:
    sections = []
    if args.collapse:
        sections.append("== collapse ==")
        sections.append(_collapse_section(args.collapse))
    if args.backrooms:
        text = _report_input(args.backrooms)
        summary = [line for line in text.splitlines() if line.startswith("summary ")]
        sections.append("== backrooms ==")
        sections.append(summary[0] if summary else text.splitlines()[0])
    if not sections:
        raise ZerebroError("report: nothing to merge (pass --collapse and/or --backrooms)")
    merged = "\n".join(sections) + "\n"
    report_path = out / "report.txt"
    report_path.write_text(merged, encoding="utf-8")
    print(merged, end="")
    return 0, [report_path.name]


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerebro",
        description="autonomous memetic agent experiments, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_ENV})")

    p = sub.add_parser("collapse", help="recursive refitting experiment")
    p.add_argument("--model", choices=["gaussian", "categorical"], required=True)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--G", type=int, default=50)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--symbols", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("backrooms", help="recursive self-dialogue experiment")
    p.add_argument("--turns", type=int, default=200)
    p.add_argument("--injection-rate", dest="injection_rate", type=float, default=0.0)
    p.add_argument("--prompt", default=backrooms_mod.DEFAULT_OPENING_PROMPT)
    p.add_argument("--store-injected", dest="store_injected", action="store_true")
    common(p)
    p.set_defaults(func=cmd_backrooms)

    p = sub.add_parser("agent", help="autonomous posting session")
    p.add_argument("--turns", type=int, default=50)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--max-actions", dest="max_actions", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--endowment", default="100")
    p.add_argument("--connectors", default=None,
                   help="connector config file (limits, seeds, outage schedule)")
    common(p)
    p.set_defaults(func=cmd_agent)

    def group(name, help_text, func, shared, ops, **defaults):
        """A command with one subparser per op: the op's flags, then the
        flags every op shares, then the common ones."""
        op_sub = sub.add_parser(name, help=help_text).add_subparsers(dest="op", required=True)
        for op, flags in ops.items():
            op_parser = op_sub.add_parser(op)
            for flag, options in {**flags, **shared}.items():
                op_parser.add_argument(flag, **options)
            common(op_parser)
            op_parser.set_defaults(func=func, **defaults)

    required, endowment = {"required": True}, {"default": "1"}
    group("memory", "inspect or edit a memory snapshot", cmd_memory,
          shared={"--store": {"default": None}}, ops={
              "upsert": {"--id": required, "--text": required, "--source": {"default": "human"}},
              "query": {"--text": required, "--k": {"type": int, "default": DEFAULT_TOP_K}},
              "stats": {},
          })
    group("chain", "simulated ledger operations", cmd_chain, seed=0,
          shared={"--ledger": {"default": None}}, ops={
              "mint": {"--art-seed": {"type": int, "default": 1},
                       "--theme": {"default": "corridor"}, "--endowment": endowment},
              "deploy": {"--name": required, "--symbol": required,
                         "--supply": {"type": int, "default": 10**9}, "--endowment": endowment},
              "verify": {},
          })

    p = sub.add_parser("report", help="merge experiment outputs into one summary")
    p.add_argument("--collapse", default=None, help="collapse report file")
    p.add_argument("--backrooms", default=None, help="backrooms transcript file")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config_file(args.config)
        out = Path(args.out or os.environ.get(OUT_ENV) or "zerebro-out")
        out.mkdir(parents=True, exist_ok=True)
        code, artifacts = args.func(args, config, out)
        resolved = {k: v for k, v in vars(args).items() if k not in ("func", "config", "out")}
        manifest = {"command": args.command, "config": resolved, "artifacts": artifacts}
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write_atomic(out / "manifest.json", text.encode("utf-8"))
        return code
    except ZerebroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
