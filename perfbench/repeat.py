"""Check that the traced work counters repeat, and how much they vary by seed.

    python3 perfbench/repeat.py --workload recursion --seeds 1,1,2,3

Runs ``run.py --trace 1`` once per listed seed, from the root of a checkout.
Counters (every per-layer metric that is not a time) of two runs with the
same seed must be identical; the script exits 1 if any differs.  For other
seeds it prints each counter's largest relative difference from the first
seed, which shows how much the seed changes the work.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed checks\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma separated, e.g. 1,1,2")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = [(seed, traced_counters(args.workload, seed)) for seed in seeds]

    status = 0
    first_seed, first = runs[0]
    spread = {name: 0.0 for name in first}
    for i, (seed, counters) in enumerate(runs):
        for seed_b, counters_b in runs[i + 1:]:
            if seed_b == seed:
                for name, value in counters.items():
                    if counters_b[name] != value:
                        print(f"seed {seed}: {name} {value} != {counters_b[name]}")
                        status = 1
        if seed != first_seed:
            for name, value in counters.items():
                base = first[name]
                if base:
                    spread[name] = max(spread[name], abs(value - base) / abs(base))
    same = sorted({s for s in seeds if seeds.count(s) > 1})
    print(f"{args.workload}: counters of repeated seeds {same} "
          f"{'identical' if status == 0 else 'DIFFER'}")
    if len(set(seeds)) > 1:
        for name, rel in spread.items():
            print(f"  {name:28s} {first[name]:>14.6g}  max change across seeds {rel:7.2%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
