"""Record the golden artifact digests of the default seed.

    python3 perfbench/record_golden.py

Runs the first units of every workload at the default seed and writes
their digests to perfbench/golden.json. Later runs at that seed compare
each unit's digest with the recorded one, so record only at a commit whose
outputs are the reference: a mismatch afterwards fails every op of the run.
"""

from __future__ import annotations

import json
import sys
import time

import run

# units recorded per workload: several times what a 20 s run completes at the commit
# that recorded them, so that a faster program is still checked
UNITS = {"agent-session": 6, "backrooms": 60, "collapse-sweep": 60, "ledger-churn": 10}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pace
    import workloads

    digests = {}
    for name, count in UNITS.items():
        spec = workloads.WORKLOADS[name]
        start = time.perf_counter()
        results, _, _ = run.run_units(spec, run.DEFAULT_SEED, workloads.FULL,
                                      run.OUT / "golden" / name, pace.no_tick, count=count)
        ops, failed, _ = run.tally(spec, results, [])
        if failed:
            print(f"{name}: {failed} of {ops} ops failed; nothing recorded", file=sys.stderr)
            return 1
        digests[name] = [r.digest for r in results]
        print(f"{name}: {count} units in {time.perf_counter() - start:.1f} s", flush=True)
    run.GOLDEN.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}, indent=1)
                          + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
