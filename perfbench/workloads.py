"""Workload inputs, generated from a seed.

Each workload draws its inputs and their order from a fixed family at a
fixed size, so every seed asks for the same amount of work:

* ``paths``: lattice path counts of Δ4 and Δ5 at several genera, each with
  both tie-breaks.  The seed places every triangle by a unimodular shear
  ``(x, y) -> (x + tx, y + k*x + ty)``.  A shear keeps the path order, the
  cross products, lattice lengths and areas, so it changes the input but not
  the work or the count.
* ``recursion``: every absolute Caporaso-Harris count with d <= 9 and
  -1 <= g <= max genus, plus relative counts N^{alpha,beta}(d, g) drawn from
  d <= 8, all in seeded order in one process, so the memo starts cold.
* ``floors``: points on the three criterion-9 Hirzebruch rays (end weights
  in seeded order), node counts by floor diagrams, and one node-polynomial
  fit by templates.
* ``cli-cache``: ``tropgw count --method ch`` processes sharing one cache
  file that starts empty: a cold fill, then warm queries of mixed degree
  drawn by the seed, and two queries that add entries.

The in-process workloads also have a fixed multiset of single-query CLI
invocations of their own kind (``cli_probes``), timed for the CLI latency
metrics.
"""

from __future__ import annotations

import random

WORKLOADS = ("paths", "recursion", "floors", "cli-cache")

# Hirzebruch rays of acceptance criterion 9: (k, a, g, weights(t), t values)
RAYS = (
    (1, 2, 0, lambda t: ((2 * t + 3, 1), (2 * t + 1, 1)), range(2, 12)),
    (0, 2, 1, lambda t: ((2 * t + 3, 2 * t + 1), (2 * t + 3, 2 * t + 1)), range(2, 12)),
    (2, 3, 0, lambda t: ((2 * t + 5, 2 * t + 1, 1), (4 * t + 1,)), range(3, 9)),
)

# cli-cache: the cold fill, then warm queries.  After the fill every query in
# CLI_HITS is answered from the cache; each of CLI_ADDERS (at a fixed place,
# so that every seed writes the same cache) adds a few hundred entries.
CLI_FILL = (9, 0)
CLI_HITS = tuple(
    (d, g) for d, gmax in ((3, 1), (4, 3), (5, 3), (6, 3), (7, 2), (8, 1))
    for g in range(-1, gmax + 1)
)
CLI_ADDERS = ((2, (8, 2)), (5, (9, -1)))
CLI_WARM_QUERIES = 7


# The input families are built here, not with tropgw's own helpers, so that
# every commit under comparison receives exactly the same inputs.


def max_genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def weighted_partitions(total: int, max_part: int | None = None):
    """Sequences (n_1, n_2, ...) with sum_i i*n_i = total, trailing zeros dropped."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for part in range(min(total, max_part), 0, -1):
        for count in range(total // part, 0, -1):
            for rest in weighted_partitions(total - part * count, part - 1):
                seq = list(rest) + [0] * (part - len(rest))
                seq[part - 1] = count
                yield tuple(seq)


def _sheared_triangle(rng: random.Random, d: int) -> list[list[int]]:
    # Coordinates stay in 0..60, inside CPython's small-int cache, so that
    # the path memo takes the same memory for every seed.
    k = rng.randint(-3, 3)
    tx, ty = rng.randint(0, 20), rng.randint(15, 40)
    return [[tx, ty], [tx + d, ty + k * d], [tx, ty + d]]


def _paths(rng: random.Random) -> list[dict]:
    items = []
    for d, genera in ((4, range(-2, 4)), (5, range(1, 7))):
        for g in genera:
            for tie in ("ydesc", "yasc"):
                items.append({
                    "kind": "path", "d": d, "g": g, "tie": tie,
                    "vertices": _sheared_triangle(rng, d),
                })
    rng.shuffle(items)
    return items


def _relative_family() -> list[tuple[int, int, tuple, tuple]]:
    family = []
    for d in range(3, 9):
        for ia in range(1, d + 1):
            for alpha in weighted_partitions(ia):
                for beta in weighted_partitions(d - ia):
                    for g in range(-1, max_genus(d) + 1):
                        family.append((d, g, alpha, beta))
    return family


def _recursion(rng: random.Random) -> list[dict]:
    items = [
        {"kind": "ch", "d": d, "g": g, "alpha": [], "beta": None}
        for d in range(1, 10)
        for g in range(-1, max_genus(d) + 1)
    ]
    for d, g, alpha, beta in rng.sample(_relative_family(), 24):
        items.append({"kind": "ch", "d": d, "g": g, "alpha": list(alpha), "beta": list(beta)})
    rng.shuffle(items)
    return items


def _floors(rng: random.Random) -> list[dict]:
    items = []
    for k, a, g, weights, ts in RAYS:
        for t in ts:
            w_left, w_right = (list(w) for w in weights(t))
            rng.shuffle(w_left)
            rng.shuffle(w_right)
            items.append({"kind": "ray", "k": k, "a": a, "g": g,
                          "w_left": w_left, "w_right": w_right})
    # Node counts spend about half their time in gw; ray 3 spends 2 %.  The
    # mix keeps gw to a small share, so that floors shows gw changes little.
    for d in range(1, 10):
        for delta in range(3):
            items.append({"kind": "severi", "d": d, "delta": delta})
    for d in range(3, 8):
        items.append({"kind": "severi", "d": d, "delta": 3})
    for d in range(4, 7):
        items.append({"kind": "severi", "d": d, "delta": 4})
    items.append({"kind": "nodepoly", "delta": 3})
    rng.shuffle(items)
    return items


def _ch_argv(d: int, g: int) -> list[str]:
    return ["count", "--method", "ch", "--d", str(d), "--g", str(g), "--format", "json"]


def _cli_cache(rng: random.Random) -> list[dict]:
    warm = [rng.choice(CLI_HITS) for _ in range(CLI_WARM_QUERIES)]
    for position, query in CLI_ADDERS:
        warm.insert(position, query)
    return [{"kind": "cli", "d": d, "g": g, "argv": _ch_argv(d, g)} for d, g in [CLI_FILL, *warm]]


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The workload's batch: one dict per count, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "paths": _paths,
        "recursion": _recursion,
        "floors": _floors,
        "cli-cache": _cli_cache,
    }[workload](rng)


def cli_probes(workload: str, seed: int) -> list[dict]:
    """Single-query CLI invocations of the workload's own kind, seeded order."""
    rng = random.Random(f"{workload}:{seed}:cli")
    if workload == "paths":
        queries = [
            {"kind": "cli", "d": 4, "g": g, "argv": [
                "count", "--method", "latticepath", "--d", "4", "--g", str(g),
                "--tie-break", tie, "--format", "json"]}
            for g in range(0, 4) for tie in ("ydesc", "yasc")
        ]
    elif workload == "recursion":
        queries = [
            {"kind": "cli", "d": d, "g": g, "argv": _ch_argv(d, g)}
            for d in (5, 6) for g in (-1, 0, 1, 2)
        ]
    elif workload == "floors":
        queries = []
        for k, a, g, weights, _ in RAYS[:2]:
            for t in (3, 5, 7, 9):
                w_left, w_right = weights(t)
                queries.append({"kind": "ray", "k": k, "a": a, "g": g,
                                "w_left": list(w_left), "w_right": list(w_right), "argv": [
                    "count", "--method", "floor", "--k", str(k), "--a", str(a),
                    "--wl", ",".join(map(str, w_left)), "--wr", ",".join(map(str, w_right)),
                    "--g", str(g), "--format", "json"]})
    else:
        return []
    probes = queries * 3
    rng.shuffle(probes)
    return probes
