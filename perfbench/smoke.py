"""Smoke run: every workload at minimal size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0, that its last line has exactly the keys
correct/attempted/failed/metrics with every declared metric and unit, that
every metric name is printed on a line of its own, and that no op failed.
Then checks that the benchmark refuses to run, without a result, from a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    command = bench["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                  "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        problems.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
        if not any(line.split()[1:2] == [m["name"]] for line in lines[:-1]):
            problems.append(f"{m['name']} not printed")
    return problems


def check_bare_directory(bench: dict) -> list[str]:
    bare = ROOT / ".perfbench-out" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    name = bench["workloads"][0]["name"]
    done = subprocess.run(bench["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                                              "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(bench, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
    problems = check_bare_directory(bench)
    failures += bool(problems)
    print(f"bare directory refused: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
