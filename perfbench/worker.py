"""One fresh workload process: set up, run one batch, print one JSON line.

Modes:

* ``setup``: import tropgw and generate the inputs, then report when it was
  ready (a ``time.perf_counter`` reading, which is system-wide on Linux, so
  the parent can subtract its own spawn time).
* ``batch``: set up, then run the workload's batch once and report wall
  time, CPU time, peak RSS and every result.  ``--trace`` installs the
  per-layer tracer first and adds its counters.
* ``cli``: run ``tropgw.cli.main`` under the tracer and write the counters
  to ``--trace-out`` (the traced stand-in for ``python -m tropgw.cli``).

Run from the root of a checkout with ``src`` on ``PYTHONPATH``; ``run.py``
starts it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import tropgw.cli  # noqa: E402  (imports every layer: part of set-up)
from tropgw import ch, floors, paths, templates  # noqa: E402
from tropgw.lattice import Polygon  # noqa: E402


def _terms(value) -> list[list[int]]:
    return [list(t) for t in value.terms]


def run_item(item: dict):
    """Run one in-process count; the result is JSON-serialisable."""
    kind = item["kind"]
    if kind == "path":
        polygon = Polygon.from_vertices([tuple(v) for v in item["vertices"]])
        return _terms(paths.count_lattice_path(polygon, item["g"], tie_break=item["tie"]))
    if kind == "ch":
        return _terms(ch.ch_count(item["d"], item["g"], item["alpha"], item["beta"]))
    if kind == "ray":
        return _terms(floors.hirzebruch_count(
            item["k"], item["a"], item["g"], item["w_left"], item["w_right"]))
    if kind == "severi":
        return _terms(floors.severi_count(item["d"], item["delta"]))
    if kind == "nodepoly":
        fit = templates.fit_node_polynomial(item["delta"])
        return {
            "hyperbolic": [str(c) for c in fit.hyperbolic_coeffs],
            "unit": [str(c) for c in fit.unit_coeffs],
            "values": [list(v) for v in fit.values],
        }
    raise ValueError(f"unknown item kind {kind!r}")


def run_in_process(items: list[dict]) -> dict:
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for item in items:
        try:
            results.append({"value": run_item(item)})
        except Exception as exc:  # a failed count is a result, not a crash
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": wall, "cpu_s": cpu, "rss_kib": rss_kib, "results": results}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli_sequence(items: list[dict], traced: bool) -> dict:
    """Run the CLI invocations one after another on one cache file."""
    root = os.getcwd()
    os.makedirs(os.path.join(root, ".bench_run"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, ".bench_run"))
    cache = os.path.join(workdir, "cache.json")
    with open(cache, "w") as handle:
        handle.write("{}")
    results, latencies, counters = [], [], []
    try:
        cpu0, wall0 = _children_cpu(), time.perf_counter()
        for n, item in enumerate(items):
            argv = ["--cache", cache, *item["argv"]]
            if traced:
                out = os.path.join(workdir, f"trace{n}.json")
                cmd = [sys.executable, os.path.abspath(__file__), "--mode", "cli",
                       "--trace-out", out, "--", *argv]
            else:
                cmd = [sys.executable, "-m", "tropgw.cli", *argv]
            start = time.perf_counter()
            code, stdout, stderr = procs.run(cmd, timeout=120)
            latencies.append(time.perf_counter() - start)
            results.append(procs.cli_result(code, stdout, stderr))
            if traced and code == 0:
                with open(out) as handle:
                    counters.append(json.load(handle))
        wall = time.perf_counter() - wall0
        cpu = _children_cpu() - cpu0
        with open(cache) as handle:
            entries = len(json.load(handle))
        cache_bytes = os.path.getsize(cache)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"wall_s": wall, "cpu_s": cpu, "rss_kib": rss_kib, "results": results,
           "latencies_s": latencies}
    if traced:
        out["counters"] = merge_counters(counters)
        out["counters"].update({"cli.cache_bytes": cache_bytes, "cli.cache_entries": entries})
    return out


def merge_counters(per_process: list[dict]) -> dict:
    """Sum the counters of several traced processes; memo size is a maximum."""
    merged: dict = {}
    for counters in per_process:
        for name, value in counters.items():
            if name == "ch.memo_entries":
                merged[name] = max(merged.get(name, 0), value)
            else:
                merged[name] = merged.get(name, 0) + value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "batch", "cli"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "cli":
        tracer = Tracer()
        tracer.install()
        cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
        code = tropgw.cli.main(cli_argv)
        with open(args.trace_out, "w") as handle:
            json.dump(tracer.counters(), handle)
        return code

    items = workloads.make_inputs(args.workload, args.seed)
    ready = time.perf_counter()
    report = {"ready": ready}
    if args.mode == "batch":
        if args.workload == "cli-cache":
            report.update(run_cli_sequence(items, traced=args.trace))
        elif args.trace:
            tracer = Tracer()
            tracer.install()
            report.update(run_in_process(items))
            report["counters"] = tracer.counters()
        else:
            report.update(run_in_process(items))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
