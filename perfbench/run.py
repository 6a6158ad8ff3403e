"""Run one zerebro workload and print its metrics.

    python3 perfbench/run.py --workload agent-session --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
Every line but the last is for people: the environment, then one line per
metric with its unit and sample count. The last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are its per-layer metrics, from a separate run that
measures the workload's first units untraced and then traced.

The end-to-end times are paced (see pace.py): wall time corrected by a
reference kernel run between ops for the speed of the shared machine at
that moment. The raw wall-clock figures are printed beside them.

The load is closed loop: one client in one process, each op waiting for
the one before. BLAS runs on one thread. Artifacts go to `.perfbench-out/`
in the checkout.
"""

from __future__ import annotations

import os

# before numpy is first imported, here or in a set-up probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
# fresh processes whose set-up is timed before and again after the timed
# phase; with this process's own, setup_s is the median of nine samples
SETUP_PROBES = 4


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal unit sizes; checks run, golden digests do not")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the first unit, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit_dir(out: Path, unit: int) -> Path:
    path = out / f"unit-{unit}"
    if path.exists():
        shutil.rmtree(path)
    return path


def run_units(spec, seed, size, out, tick, first=None, count=None, seconds=None):
    """Run units 0, 1, ... until `count` units are done or `seconds` have
    passed, always finishing the unit in progress. `first` is unit 0,
    already built; `tick` runs between ops and units (see pace.py).
    Returns the UnitResults (None for a unit that raised) and the
    wall-clock start and end."""
    from workloads import unit_seed

    results = []
    tick()
    start = time.perf_counter()
    while True:
        r = len(results)
        try:
            run = first if r == 0 and first is not None else spec.build(
                unit_seed(seed, r), unit_dir(out, r), size, tick)
            results.append(run())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results.append(None)
        if count is not None and len(results) >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        tick()
    return results, start, time.perf_counter()


def tally(spec, results, golden):
    """(ops attempted, ops failed, golden status) for one phase."""
    ops = sum(r.ops for r in results if r is not None)
    failed = sum(r.failed for r in results if r is not None)
    checked = [(r.digest, want) for r, want in zip(results, golden) if r is not None]
    status = "skipped" if not golden else (
        "match" if all(d == w for d, w in checked) else "mismatch")
    if None in results or status == "mismatch" or not spec.run_ok(results):
        # a unit that raised, a golden mismatch or a failed run-level check
        # fails every op of the run
        ops = max(ops, 1)
        failed = ops
    return ops, failed, status


def upper_percentile(samples: list[float]) -> tuple[float, float]:
    """The p99, or the highest percentile with at least ten samples beyond
    it when there are fewer than 1000; returns (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(0.99 * n), n - 10)
    rank = rank if rank >= 1 else n
    return ordered[rank - 1], 100.0 * rank / n


def environment(load_at_start) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg_at_start": load_at_start,
        "load_generators": "1 process, 1 thread, closed loop",
    }


def blas_threads():
    """OpenBLAS's own thread count when the loaded library reports it."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes, so that imports are counted."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    if not (SRC / "zerebro" / "__init__.py").is_file():
        print(f"error: no zerebro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    bench = load_spec()
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    sys.path.insert(0, str(SRC))
    out = OUT / ("setup-probe" if args.setup_probe else "runs") / args.workload
    if out.exists():
        shutil.rmtree(out)
    load_at_start = os.getloadavg()

    # set-up: from here to the first op of unit 0
    t0 = time.perf_counter()
    import pace
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    size = workloads.SMOKE if args.smoke else workloads.FULL
    # the traced run is not paced
    pacer = None if args.trace else pace.Pacer()
    tick = pace.no_tick if pacer is None else pacer.tick
    first = spec.build(workloads.unit_seed(args.seed, 0), unit_dir(out, 0), size, tick)
    setup_s = pace.paced_now(time.perf_counter() - t0)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    golden = []
    if args.seed == DEFAULT_SEED and not args.smoke:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"].get(args.workload, [])

    print("env " + json.dumps(environment(load_at_start), sort_keys=True))

    if args.trace:
        lines, metrics, attempted, failed, status = traced_run(
            args, spec, size, out, first, golden, bench)
    else:
        lines, metrics, attempted, failed, status = untraced_run(
            args, spec, size, out, first, golden, bench, setup_s, pacer)

    print(f"{args.workload} seed={args.seed} trace={args.trace} golden={status} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6g}")
    for line in lines:
        print(f"{args.workload} {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def untraced_run(args, spec, size, out, first, golden, bench, setup_s, pacer):
    import pace

    # samples taken apart in time, so that one slow moment moves only some
    setups = [setup_s] + setup_probes(args)
    results, start, end = run_units(spec, args.seed, size, out, pacer.tick, first=first,
                                    seconds=args.seconds)
    setups += setup_probes(args)
    attempted, failed, status = tally(spec, results, golden)
    samples = [x for r in results if r is not None for x in r.samples]
    latencies = [pacer.paced(a, b) / ops for a, b, ops in samples]
    raw = [(b - a) / ops for a, b, ops in samples]
    p_hi, level = upper_percentile(latencies)
    n, units = len(latencies), len(results)
    paced_wall, wall = pacer.paced(start, end), end - start
    kernel = pacer.kernel_times()
    print(f"{args.workload} pace: {len(kernel)} reference-kernel runs, "
          f"median {1e3 * statistics.median(kernel):.4g} ms against {1e3 * pace.REFERENCE_S:.4g} ms; "
          f"{paced_wall:.3f} paced s in {wall:.3f} wall s, {pacer.kernel_wall():.3f} s of it in the kernel")
    values = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "ops_per_s": (attempted / paced_wall, f"{attempted} ops in {paced_wall:.3f} paced s, "
                      f"{units} units; wall clock {attempted / wall:.6g} 1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies),
                      f"n={n}; wall clock {1e3 * statistics.median(raw):.6g} ms"),
        "op_p99_ms": (1e3 * p_hi, f"p{level:.4g}, n={n}; wall clock "
                      f"{1e3 * upper_percentile(raw)[0]:.6g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"),
    }
    return report(bench["end_to_end"], values) + (attempted, failed, status)


def traced_run(args, spec, size, out, first, golden, bench):
    import pace
    import tracer as tracer_mod

    count = spec.trace_units
    untraced, start, end = run_units(spec, args.seed, size, out, pace.no_tick, first=first,
                                     count=count)
    wall_a = end - start
    trace = tracer_mod.Tracer()
    uninstall = tracer_mod.install(trace)
    try:
        traced, start, end = run_units(spec, args.seed, size, out, pace.no_tick, count=count)
    finally:
        uninstall()
    wall_b = end - start
    trace.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.tsv")

    ops_a, failed_a, status_a = tally(spec, untraced, golden)
    ops_b, failed_b, status_b = tally(spec, traced, golden)
    summary = trace.summary()
    summary.update(tracer_mod.derived(summary))
    summary["trace.ops_per_s"] = ops_b / wall_b
    summary["trace.untraced_ops_per_s"] = ops_a / wall_a
    summary["trace.overhead_ops_per_s"] = ops_a / wall_a - ops_b / wall_b
    values = {name: (summary[name], f"{count} units traced") for name in
              (m["name"] for m in bench["per_layer"])}
    status = status_a if status_a == status_b else f"{status_a}/{status_b}"
    return report(bench["per_layer"], values) + (ops_a + ops_b, failed_a + failed_b, status)


def report(declared, values):
    """Human lines and the JSON metrics, in BENCHMARK.json's order."""
    lines, metrics = [], {}
    for m in declared:
        value, detail = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']} {value:.6g} {m['unit']} ({detail})")
    return lines, metrics


if __name__ == "__main__":
    sys.exit(main())
