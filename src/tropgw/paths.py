"""Lattice-path computation of the quadratic-form count of tropical curves.

Paths are sequences of lattice points of a convex polygon, strictly
increasing for a generic linear order (x ascending, ties by y).  A path of
#ends + g - 1 steps contributes the product of its two completion
multiplicities, computed recursively on each side of the path: cutting the
first corner that turns toward the side costs the quadratic-form weight of
the cut triangle, while the parallelogram move reflects the corner across
and costs nothing.  A path that has flattened onto the side's boundary
chain contributes the unit; a stuck path contributes zero.

The recursion runs on exact (rank, signature) pairs, multiplied
componentwise.  A triangle of normalized area m costs the pair of its
quadratic-form weight: (m, 0) for even m and (m, +-1) for odd m, the sign
given by the parity of its interior lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gw import GWElement, gw_from_pair
from .lattice import (
    DualSubdivision,
    Point,
    Polygon,
    interior_points,
    lattice_length,
    normalized_area,
)

POSITIVE = "positive"
NEGATIVE = "negative"


def lambda_key(pt: Point, tie_break: str = "ydesc") -> tuple[int, int]:
    """Sort key of the path order: x ascending, ties by y descending.

    ``tie_break="yasc"`` flips the tie direction; the final counts must not
    depend on this choice.
    """
    if tie_break == "ydesc":
        return (pt[0], -pt[1])
    if tie_break == "yasc":
        return (pt[0], pt[1])
    raise ValueError(f"unknown tie break {tie_break!r}")


def _triangle(a: Point, b: Point, c: Point) -> tuple[int, int]:
    """(rank, signature) of the quadratic-form weight of a cut triangle."""
    area = normalized_area(a, b, c)
    if area % 2 == 0:
        return area, 0
    return area, -1 if interior_points(a, b, c) % 2 else 1


@dataclass
class _Context:
    polygon: Polygon
    chains: dict[str, tuple[Point, ...]]
    memo: dict = field(default_factory=dict)


def _make_context(polygon: Polygon, tie_break: str) -> _Context:
    pts = sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))
    start, end = pts[0], pts[-1]
    cycle = polygon.boundary_lattice_points()
    i, j = cycle.index(start), cycle.index(end)
    n = len(cycle)
    ccw = tuple(cycle[(i + t) % n] for t in range((j - i) % n + 1))
    cw = tuple(cycle[(i - t) % n] for t in range((i - j) % n + 1))
    # right turns flatten onto the ccw chain, left turns onto the cw chain
    return _Context(polygon, {POSITIVE: ccw, NEGATIVE: cw})


def _cross(a: Point, b: Point, c: Point) -> int:
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def _side_value(path: tuple[Point, ...], side: str, ctx: _Context) -> tuple[int, int]:
    key = (path, side)
    cached = ctx.memo.get(key)
    if cached is not None:
        return cached
    want_left = side == NEGATIVE
    value = None
    for j in range(1, len(path) - 1):
        cr = _cross(path[j - 1], path[j], path[j + 1])
        if (cr > 0) if want_left else (cr < 0):
            a, b, c = path[j - 1], path[j], path[j + 1]
            tri_rank, tri_signature = _triangle(a, b, c)
            r, s = _side_value(path[:j] + path[j + 1:], side, ctx)
            rank, signature = tri_rank * r, tri_signature * s
            reflected = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
            if ctx.polygon.contains(reflected):
                r, s = _side_value(path[:j] + (reflected,) + path[j + 1:], side, ctx)
                rank, signature = rank + r, signature + s
            value = (rank, signature)
            break
    if value is None:
        value = (1, 1) if path == ctx.chains[side] else (0, 0)
    ctx.memo[key] = value
    return value


def path_mult(path, polygon: Polygon, side: str, tie_break: str = "ydesc") -> GWElement:
    """Completion multiplicity of a path on one side of the polygon.

    The class of the result is that of the product of the lattice lengths
    of the path's segments.
    """
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError(f"side must be {POSITIVE!r} or {NEGATIVE!r}")
    path = tuple(tuple(p) for p in path)
    for p in path:
        if not polygon.contains(p):
            raise ValueError(f"path leaves the polygon at {p}")
    keys = [lambda_key(p, tie_break) for p in path]
    if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
        raise ValueError("path is not strictly increasing in the path order")
    value = _side_value(path, side, _make_context(polygon, tie_break))
    return gw_from_pair(value, [lattice_length(p, q) for p, q in zip(path, path[1:])])


def _iter_paths(points: list[Point], n_steps: int):
    last = len(points) - 1
    path = [points[0]]

    def rec(idx: int, steps_left: int):
        if steps_left == 0:
            if idx == last:
                yield tuple(path)
            return
        for nxt in range(idx + 1, last - steps_left + 2):
            path.append(points[nxt])
            yield from rec(nxt, steps_left - 1)
            path.pop()

    yield from rec(0, n_steps)


def count_lattice_path(polygon: Polygon, g: int, tie_break: str = "ydesc") -> GWElement:
    """Sum of both-side path multiplicities over paths of #ends+g-1 steps.

    ``g`` may drop below zero (counts of disconnected curves); it is capped
    above by the number of interior lattice points.
    """
    if g > polygon.interior_count():
        raise ValueError(f"genus {g} exceeds the interior point count")
    n_steps = polygon.num_boundary_points() + g - 1
    if n_steps < 1:
        raise ValueError(f"no paths with {n_steps} steps")
    ctx = _make_context(polygon, tie_break)
    points = sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))
    rank = signature = 0
    for path in _iter_paths(points, n_steps):
        pos_rank, pos_signature = _side_value(path, POSITIVE, ctx)
        if not pos_rank:
            continue
        neg_rank, neg_signature = _side_value(path, NEGATIVE, ctx)
        rank += pos_rank * neg_rank
        signature += pos_signature * neg_signature
    return gw_from_pair((rank, signature))


def _side_reductions(path: tuple[Point, ...], side: str, ctx: _Context):
    """All successful reductions of one side: (triangles, parallelograms)."""
    want_left = side == NEGATIVE
    for j in range(1, len(path) - 1):
        cr = _cross(path[j - 1], path[j], path[j + 1])
        if (cr > 0) if want_left else (cr < 0):
            a, b, c = path[j - 1], path[j], path[j + 1]
            for tris, pars in _side_reductions(path[:j] + path[j + 1:], side, ctx):
                yield tris + ((a, b, c),), pars
            reflected = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
            if ctx.polygon.contains(reflected):
                shifted = path[:j] + (reflected,) + path[j + 1:]
                for tris, pars in _side_reductions(shifted, side, ctx):
                    yield tris, pars + ((a, b, c),)
            return
    if path == ctx.chains[side]:
        yield (), ()


def path_subdivisions(path, polygon: Polygon, tie_break: str = "ydesc"):
    """Dual subdivisions realized by the path; one per successful branch pair."""
    path = tuple(tuple(p) for p in path)
    ctx = _make_context(polygon, tie_break)
    for tris_p, pars_p in _side_reductions(path, POSITIVE, ctx):
        for tris_n, pars_n in _side_reductions(path, NEGATIVE, ctx):
            yield DualSubdivision(
                triangles=tris_p + tris_n, parallelograms=pars_p + pars_n
            )
