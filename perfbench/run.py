"""tropgw benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The benchmark measures the package from
outside: every batch runs in a fresh process (``worker.py``), one at a
time, so the loop is closed with a single client.  With ``--trace 0`` it
repeats set-up and the batch for ``--seconds`` seconds, times the
workload's CLI invocations, and reports medians.  With ``--trace 1`` it runs
one plain and one traced batch and reports the per-layer metrics of the
traced one; end-to-end numbers never come from a traced run.

Every result is checked outside the timed region (``checks.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary of each metric with its sample count
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402
import workloads  # noqa: E402

MIN_BATCHES = 3
SETUPS_PER_ROUND = 3
WORKER_TIMEOUT_S = 120
HARD_LIMIT_S = 120

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class Run:
    def __init__(self, root: str, workload: str, seed: int):
        from checks import Checker  # imports tropgw, which main put on sys.path

        self.workload, self.seed = workload, seed
        self.env = procs.child_env(root)
        self.items = workloads.make_inputs(workload, seed)
        self.checker = Checker()
        self.setups: list[float] = []
        self.batches: list[dict] = []
        self.latencies: list[float] = []

    def _worker(self, mode: str, trace: bool = False) -> dict | None:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            cmd.append("--trace")
        spawned = time.perf_counter()
        code, stdout, stderr = procs.run(cmd, WORKER_TIMEOUT_S, self.env)
        try:
            report = json.loads(stdout.strip().splitlines()[-1]) if code == 0 else None
        except (ValueError, IndexError):
            report = None
        if report is None:
            print(f"worker {mode} failed with exit {code}: {stderr.strip()[-500:]}",
                  file=sys.stderr)
            return None
        self.setups.append(report["ready"] - spawned)
        return report

    def setup_probe(self) -> None:
        self._worker("setup")

    def batch(self, trace: bool = False) -> dict | None:
        report = self._worker("batch", trace)
        if report is None:
            self.checker.attempted += len(self.items)
            self.checker.failed += len(self.items)
            return None
        self.checker.check_batch(self.items, report["results"])
        self.latencies.extend(report.get("latencies_s", ()))
        if not trace:
            self.batches.append(report)
        return report

    def cli_probes(self, probes: list[dict]) -> None:
        for item in probes:
            start = time.perf_counter()
            code, stdout, stderr = procs.run(
                [sys.executable, "-m", "tropgw.cli", *item["argv"]], WORKER_TIMEOUT_S, self.env)
            self.latencies.append(time.perf_counter() - start)
            self.checker.check(item, procs.cli_result(code, stdout, stderr))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run, seconds: float) -> dict:
    """Rounds of one batch, a share of the CLI invocations and three set-ups."""
    start = time.perf_counter()
    probes = workloads.cli_probes(run.workload, run.seed)
    chunks = [probes[i::MIN_BATCHES] for i in range(MIN_BATCHES)] if probes else []
    attempts = 0
    while True:
        before = time.perf_counter()
        run.batch()
        attempts += 1
        last = time.perf_counter() - before
        if chunks:
            run.cli_probes(chunks.pop())
        for _ in range(SETUPS_PER_ROUND):
            run.setup_probe()
        now = time.perf_counter()
        if attempts >= MIN_BATCHES and not chunks and now + last > start + seconds:
            break
        if now - start > HARD_LIMIT_S:
            break
    if not run.batches or not run.latencies:
        return {}
    p_tail, pct = tail(run.latencies)
    summary = (f"{len(run.batches)} batches, {len(run.setups)} set-ups, "
               f"{len(run.latencies)} CLI invocations (tail = p{pct:.0f})")
    print(summary, file=sys.stderr)
    return {
        "wall_s": statistics.median(b["wall_s"] for b in run.batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in run.batches),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mib": statistics.median(b["rss_kib"] for b in run.batches) / 1024,
        "cli_p50_ms": 1000 * statistics.median(run.latencies),
        "cli_tail_ms": 1000 * p_tail,
    }


def per_layer(run: Run) -> dict:
    plain = run.batch()
    traced = run.batch(trace=True)
    if plain is None or traced is None:
        return {}
    counters = dict(traced["counters"])
    calls = counters.get("floors.marking_calls", 0)
    counters["floors.marking_yield"] = counters.get("floors.marking_nonzero", 0) / calls if calls else 0.0
    counters["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tropgw", "__init__.py")):
        print("error: src/tropgw not found; run from the root of a tropgw checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    with open(SPEC) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run = Run(root, args.workload, args.seed)
    measured = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    for message in run.checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if not measured:
        print("error: no batch completed", file=sys.stderr)
        return 1
    metrics = {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
