"""Single entry-point CLI: experiments, memory inspection, agent runs,
chain operations, and report generation.

Every command resolves its configuration (config file overridden by
flags), runs under simulated clocks, writes its artifacts beneath --out,
and records a run manifest sufficient to reproduce the run byte for byte.

Exit codes: 0 success, 1 runtime failure, 2 usage error (including a bad
flag or config value).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import backrooms as backrooms_mod
from . import chain as chain_mod
from . import collapse as collapse_mod
from .clock import SimClock
from .corpus import human_corpus
from .embedding import EmbeddingConfig
from .errors import ZerebroError
from .generator import MarkovGenerator
from .memory import MemoryStore
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


def _resolve(flag_value, config: dict[str, str], key: str, cast, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return cast(config[key])
    return default


def _write_manifest(out: Path, command: str, resolved: dict, artifacts: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": resolved,
        "seed": resolved.get("seed"),
        "artifacts": artifacts,
        "duration_s": round(time.perf_counter() - t0, 3),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get(OUT_ENV) or "zerebro-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- collapse --------------------------------------------------------------------


def cmd_collapse(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    seed = _resolve(args.seed, config, "collapse.seed", int, 0)
    if args.model == "gaussian":
        origin = collapse_mod.GaussianModel(mu=args.mu, sigma2=args.sigma2)
    else:
        origin = collapse_mod.uniform_categorical(args.symbols)
    base = collapse_mod.RecursionConfig(
        model_kind=args.model, m=args.m, generations=args.G,
        rho=args.rho, seed=seed, origin=origin,
    )

    trajectory = collapse_mod.run_recursion(base)
    traj_path = out / "trajectory.tsv"
    collapse_mod.write_trajectory(trajectory, traj_path)

    report = collapse_mod.compare_regimens(base, [args.rho], n_seeds=args.seeds)
    report_path = out / "collapse_report.txt"
    row = report.rows[0]
    lines = [collapse_mod.format_regimen_report(report).rstrip("\n")]
    if base.model_kind == "gaussian":
        analytic = ((base.m - 1) / base.m) ** base.generations
        lines.append(f"analytic_rho0_variance_ratio={analytic!r}")
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    resolved = {
        "model": args.model, "m": args.m, "G": args.G, "rho": args.rho,
        "seeds": args.seeds, "seed": seed, "mu": args.mu, "sigma2": args.sigma2,
        "symbols": args.symbols,
    }
    _write_manifest(out, "collapse", resolved, [traj_path.name, report_path.name], t0)
    mean = row.mean_variance_ratio if row.mean_variance_ratio is not None else row.mean_entropy_bits
    print(f"collapse: wrote {traj_path} and {report_path} (final metric mean {mean:.6f})")
    return 0


# --- backrooms -------------------------------------------------------------------


def cmd_backrooms(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    seed = _resolve(args.seed, config, "backrooms.seed", int, 0)
    dimension = int(config.get("embedding.dimension", EmbeddingConfig().dimension))
    cfg = backrooms_mod.BackroomsConfig(
        turns=args.turns, seed=seed, injection_rate=args.injection_rate,
        opening_prompt=args.prompt, store_injected=args.store_injected,
    )
    memory = MemoryStore(
        EmbeddingConfig(dimension=dimension, seed=seed),
        backend=config.get("embedding.backend", "hashed"),
    )
    transcript = backrooms_mod.run_backrooms(cfg, memory=memory, generator=MarkovGenerator())
    transcript_path = out / "transcript.txt"
    backrooms_mod.write_transcript(transcript, transcript_path)

    resolved = {
        "turns": args.turns, "seed": seed, "injection_rate": args.injection_rate,
        "prompt": args.prompt, "store_injected": args.store_injected,
        "dimension": dimension,
    }
    _write_manifest(out, "backrooms", resolved, [transcript_path.name], t0)
    final = transcript.final_report()
    print(
        f"backrooms: {args.turns} turns, final distinct_2={final.distinct_2:.4f} "
        f"dispersion={final.embedding_dispersion:.4f} -> {transcript_path}"
    )
    return 0


# --- agent -----------------------------------------------------------------------


def cmd_agent(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    seed = _resolve(args.seed, config, "agent.seed", int, 0)
    threshold = _resolve(args.threshold, config, "agent.sentiment_threshold", float, 0.0)
    max_actions = _resolve(args.max_actions, config, "agent.max_actions_per_turn", int, 3)
    eta = _resolve(args.eta, config, "agent.eta", float, agent_mod.DEFAULT_ETA)
    dimension = int(config.get("embedding.dimension", 256))

    clock = SimClock()
    memory = MemoryStore(EmbeddingConfig(dimension=dimension, seed=seed))
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
    state = agent_mod.initial_state(seed, sentiment_threshold=threshold)

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
            args.turns, log=log, clock=clock, eta=eta, max_actions=max_actions,
        )
    ledger_path = out / "ledger.log"
    ledger.save(ledger_path)
    hash_path = out / "state_hash.txt"
    hash_path.write_text(state_digest + "\n", encoding="utf-8")

    resolved = {
        "turns": args.turns, "seed": seed, "threshold": threshold,
        "max_actions": max_actions, "eta": eta, "endowment": args.endowment,
        "dimension": dimension, "connectors": args.connectors,
    }
    _write_manifest(
        out, "agent", resolved, [log_path.name, ledger_path.name, hash_path.name], t0
    )
    print(
        f"agent: {final.turn_counter} turns, memory {len(memory)} records, "
        f"state hash {state_digest[:16]}... -> {out}"
    )
    return 0


# --- memory ----------------------------------------------------------------------


def _open_store(path: Path, config: dict[str, str]) -> MemoryStore:
    if path.exists():
        return MemoryStore.load(path)
    dimension = int(config.get("embedding.dimension", EmbeddingConfig().dimension))
    cfg = EmbeddingConfig(dimension=dimension, seed=int(config.get("embedding.seed", 0)))
    return MemoryStore(cfg, backend=config.get("embedding.backend", "hashed"))


def cmd_memory(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    store_path = Path(args.store) if args.store else out / "memory.snapshot"
    store = _open_store(store_path, config)

    if args.memory_op == "upsert":
        record = store.make_record(
            args.id, args.text, source=args.source, timestamp=SimClock()()
        )
        store.upsert(record)
        store.persist(store_path)
        print(f"memory: upserted {args.id!r}, store now holds {len(store)} records")
    elif args.memory_op == "query":
        results = store.retrieve(args.text, args.k)
        for r in results:
            print(f"{r.similarity:+.6f}  {r.record.id}  {r.record.text}")
        if not results:
            print("memory: store is empty")
    else:
        stats = store.stats()
        print(
            f"count={stats.count} dispersion={stats.dispersion:.6f} "
            f"histogram={json.dumps(stats.source_histogram, sort_keys=True)}"
        )

    resolved = {
        "op": args.memory_op, "store": str(store_path), "seed": args.seed,
        "id": getattr(args, "id", None), "k": getattr(args, "k", None),
    }
    _write_manifest(out, "memory", resolved, [store_path.name], t0)
    return 0


# --- chain -----------------------------------------------------------------------


def cmd_chain(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    ledger_path = Path(args.ledger) if args.ledger else out / "ledger.log"
    ledger = chain_mod.Ledger.load(ledger_path) if ledger_path.exists() else chain_mod.Ledger()
    seed = args.seed if args.seed is not None else 0

    artifacts = [ledger_path.name]
    if args.chain_op == "mint":
        wallet = ledger.create_wallet(seed=seed, endowment=chain_mod.to_nanos(args.endowment))
        art = chain_mod.generate_art(args.art_seed, args.theme)
        record = ledger.mint_nft(wallet, art)
        art_path = out / f"{record.art_hash}.ppm"
        art_path.write_bytes(art)
        artifacts.append(art_path.name)
        ledger.save(ledger_path)
        print(f"chain: minted token {record.token_id} (art {record.art_hash[:16]}...)")
    elif args.chain_op == "deploy":
        wallet = ledger.create_wallet(seed=seed, endowment=chain_mod.to_nanos(args.endowment))
        record = ledger.deploy_token(wallet, args.name, args.symbol, args.supply)
        ledger.save(ledger_path)
        print(f"chain: deployed {record.symbol} supply {record.total_supply}")
    else:
        report = ledger.verify()
        if report.ok:
            print("ok")
        else:
            for violation in report.violations:
                print(f"violation: {violation}")
        resolved = {"op": "verify", "ledger": str(ledger_path), "seed": seed}
        _write_manifest(out, "chain", resolved, artifacts, t0)
        return 0 if report.ok else 1

    resolved = {"op": args.chain_op, "ledger": str(ledger_path), "seed": seed}
    _write_manifest(out, "chain", resolved, artifacts, t0)
    return 0


# --- report ----------------------------------------------------------------------


def _collapse_section(path: Path) -> str:
    text = path.read_text(encoding="utf-8").rstrip("\n")
    if not text.startswith("# collapse trajectory v1"):
        return text  # already a regimen report
    lines = text.splitlines()
    config_line = next(line[2:] for line in lines if line.startswith("# config"))
    rows = [line for line in lines if line and not line.startswith(("#", "generation"))]
    columns = next(line for line in lines if line.startswith("generation"))
    return "\n".join([config_line, f"generations={len(rows) - 1}",
                      f"final [{columns}]: {rows[-1]}"])


def cmd_report(args, config: dict[str, str]) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    sections = []
    if args.collapse:
        sections.append("== collapse ==")
        sections.append(_collapse_section(Path(args.collapse)))
    if args.backrooms:
        text = Path(args.backrooms).read_text(encoding="utf-8").rstrip("\n")
        summary = [line for line in text.splitlines() if line.startswith("summary ")]
        sections.append("== backrooms ==")
        sections.append(summary[0] if summary else text.splitlines()[0])
    if not sections:
        print("report: nothing to merge (pass --collapse and/or --backrooms)", file=sys.stderr)
        return 1
    merged = "\n".join(sections) + "\n"
    report_path = out / "report.txt"
    report_path.write_text(merged, encoding="utf-8")
    print(merged, end="")
    resolved = {"collapse": args.collapse, "backrooms": args.backrooms, "seed": args.seed}
    _write_manifest(out, "report", resolved, [report_path.name], t0)
    return 0


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

    p = sub.add_parser("memory", help="inspect or edit a memory snapshot")
    mem_sub = p.add_subparsers(dest="memory_op", required=True)
    mp = mem_sub.add_parser("upsert")
    mp.add_argument("--id", required=True)
    mp.add_argument("--text", required=True)
    mp.add_argument("--source", default="human")
    mp.add_argument("--store", default=None)
    common(mp)
    mp.set_defaults(func=cmd_memory)
    mp = mem_sub.add_parser("query")
    mp.add_argument("--text", required=True)
    mp.add_argument("--k", type=int, default=5)
    mp.add_argument("--store", default=None)
    common(mp)
    mp.set_defaults(func=cmd_memory)
    mp = mem_sub.add_parser("stats")
    mp.add_argument("--store", default=None)
    common(mp)
    mp.set_defaults(func=cmd_memory)

    p = sub.add_parser("chain", help="simulated ledger operations")
    chain_sub = p.add_subparsers(dest="chain_op", required=True)
    cp = chain_sub.add_parser("mint")
    cp.add_argument("--art-seed", dest="art_seed", type=int, default=1)
    cp.add_argument("--theme", default="corridor")
    cp.add_argument("--endowment", default="1")
    cp.add_argument("--ledger", default=None)
    common(cp)
    cp.set_defaults(func=cmd_chain)
    cp = chain_sub.add_parser("deploy")
    cp.add_argument("--name", required=True)
    cp.add_argument("--symbol", required=True)
    cp.add_argument("--supply", type=int, default=10**9)
    cp.add_argument("--endowment", default="1")
    cp.add_argument("--ledger", default=None)
    common(cp)
    cp.set_defaults(func=cmd_chain)
    cp = chain_sub.add_parser("verify")
    cp.add_argument("--ledger", default=None)
    common(cp)
    cp.set_defaults(func=cmd_chain)

    p = sub.add_parser("report", help="merge experiment outputs into one summary")
    p.add_argument("--collapse", default=None, help="collapse report file")
    p.add_argument("--backrooms", default=None, help="backrooms transcript file")
    common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    try:
        config = parse_config_file(args.config)
        return args.func(args, config)
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
