"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads agent-session,ledger-churn --seeds 1-10
    python3 perfbench/sweep.py --seeds 0-9 --record perfbench/baseline.json --label "seed commit"

Runs go one after another, each in its own process, as BENCHMARK.json's
command. For every workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound. With --record, the summary is appended to a
JSON list of entries, together with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="JSON file to append the summary to")
    parser.add_argument("--label", default="", help="what was measured, for --record")
    args = parser.parse_args(argv)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    entry = {"label": args.label, "trace": args.trace, "seeds": args.seeds,
             "run_seconds": bench["run_seconds"], "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
             "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result, env = run_once(bench, workload, seed, args.trace)
            entry.setdefault("env", env)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {"correct": all(r["correct"] for r in runs),
                   "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            stats = summarize(values) if len(values) > 1 else {"median": values[0], "values": values}
            summary["metrics"][m["name"]] = stats
            if "spread" in stats:
                bound = bounds[m["name"]]
                mark = "" if bound is None else f" bound={bound} {'ok' if stats['spread'] <= bound / 3 else 'WIDE'}"
                print(f"  {m['name']:<34} median={stats['median']:.6g} q1={stats['q1']:.6g} "
                      f"q3={stats['q3']:.6g} spread={stats['spread']:.3f}{mark}", flush=True)
                print("    " + " ".join(f"{v:.4g}" for v in values), flush=True)
        entry["workloads"][workload] = summary

    if args.record:
        path = Path(args.record)
        entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        entries.append(entry)
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
