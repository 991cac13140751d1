"""Lattice-path computation of the quadratic-form count of tropical curves.

Paths are sequences of lattice points of a convex polygon, strictly
increasing for a generic linear order (x ascending, ties by y).  A path of
#ends + g - 1 steps contributes the product of its two completion
multiplicities, computed recursively on each side of the path: cutting the
first corner that turns toward the side costs the quadratic-form weight of
the cut triangle, while the parallelogram move reflects the corner across
and costs nothing.  A path that has flattened onto the side's boundary
chain contributes the unit; a stuck path contributes zero.

Everything runs on index tables built once per (polygon, tie-break): the
lattice points sorted by the path order, so that a path is an increasing
tuple of point indices, and for each side a table ``move[a][b][c]``
(a < b < c) that is ``None`` unless the corner turns toward the side, and
otherwise holds the cut triangle's weight and the index of the reflected
point a + c - b (-1 when that is not a lattice point of the polygon).  An
increasing path is determined by its set of points, so each side memoizes
on the int bitmask of that set: a corner cut clears one bit, a
parallelogram move clears one and sets another.

The recursion runs on exact (rank, signature) pairs, multiplied
componentwise.  A triangle of normalized area m costs the pair of its
quadratic-form weight: (m, 0) for even m and (m, +-1) for odd m, the sign
given by the parity of its interior lattice points.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .gw import GWElement, gw_from_pair
from .lattice import (
    DualSubdivision,
    Point,
    Polygon,
    lattice_length,
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


class _Tables(NamedTuple):
    points: list[Point]  # the lattice points in path order
    index: dict[Point, int]
    move: dict[str, list]  # side -> move[a][b][c]
    chain: dict[str, int]  # side -> bitmask of its boundary chain


def _tables(polygon: Polygon, tie_break: str) -> _Tables:
    points = sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    move = {side: [[[None] * n for _ in range(n)] for _ in range(n)]
            for side in (POSITIVE, NEGATIVE)}
    for a, b, c in combinations(range(n), 3):
        (ax, ay), (bx, by), (cx, cy) = points[a], points[b], points[c]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0:
            continue
        # right turns flatten onto the ccw chain, left turns onto the cw chain
        side = NEGATIVE if cross > 0 else POSITIVE
        area = abs(cross)
        if area % 2 == 0:
            weight = (area, 0)
        else:
            # Pick: (area - boundary + 2) / 2 lattice points lie inside
            boundary = gcd(bx - ax, by - ay) + gcd(cx - bx, cy - by) + gcd(cx - ax, cy - ay)
            weight = (area, -1 if (area - boundary + 2) // 2 % 2 else 1)
        move[side][a][b][c] = (weight, index.get((ax + cx - bx, ay + cy - by), -1))
    cycle = polygon.boundary_lattice_points()
    i, j, m = cycle.index(points[0]), cycle.index(points[-1]), len(cycle)
    ccw = [cycle[(i + t) % m] for t in range((j - i) % m + 1)]
    cw = [cycle[(i - t) % m] for t in range((i - j) % m + 1)]
    chain = {side: sum(1 << index[p] for p in pts)
             for side, pts in ((POSITIVE, ccw), (NEGATIVE, cw))}
    return _Tables(points, index, move, chain)


# path_mult and path_subdivisions evaluate one path per call, and building
# the tables costs more than the walk, so they share the tables of recent
# (polygon, tie-break) pairs.  count_lattice_path builds its own.
_shared_tables = lru_cache(maxsize=8)(_tables)


def _first_turn(path: tuple[int, ...], move: list):
    """(j, move entry) of the first corner path[j] turning toward the side,
    or None if the path has no such corner."""
    for j in range(1, len(path) - 1):
        entry = move[path[j - 1]][path[j]][path[j + 1]]
        if entry is not None:
            return j, entry
    return None


def _side_walker(tables: _Tables, side: str):
    """The completion multiplicity of one side, as a function of
    (path, mask), memoized on the mask."""
    move, chain = tables.move[side], tables.chain[side]
    memo: dict[int, tuple[int, int]] = {}

    def value(path: tuple[int, ...], mask: int) -> tuple[int, int]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        turn = _first_turn(path, move)
        if turn is None:
            result = (1, 1) if mask == chain else (0, 0)
        else:
            j, ((tri_rank, tri_signature), r) = turn
            b = path[j]
            rank, signature = value(path[:j] + path[j + 1:], mask ^ (1 << b))
            rank, signature = tri_rank * rank, tri_signature * signature
            if r >= 0:
                shifted = path[:j] + (r,) + path[j + 1:]
                r_rank, r_signature = value(shifted, mask ^ (1 << b) | (1 << r))
                rank, signature = rank + r_rank, signature + r_signature
            result = (rank, signature)
        memo[mask] = result
        return result

    return value


def _path_indices(path, tables: _Tables) -> tuple[int, ...]:
    """The path as point indices; ValueError unless it is an increasing
    path of lattice points of the polygon."""
    indices = []
    for p in path:
        p = tuple(p)
        if p not in tables.index:
            raise ValueError(f"path leaves the polygon at {p}")
        indices.append(tables.index[p])
    if any(j <= i for i, j in zip(indices, indices[1:])):
        raise ValueError("path is not strictly increasing in the path order")
    return tuple(indices)


def path_mult(path, polygon: Polygon, side: str, tie_break: str = "ydesc") -> GWElement:
    """Completion multiplicity of a path on one side of the polygon.

    The class of the result is that of the product of the lattice lengths
    of the path's segments.
    """
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError(f"side must be {POSITIVE!r} or {NEGATIVE!r}")
    tables = _shared_tables(polygon, tie_break)
    indices = _path_indices(path, tables)
    value = _side_walker(tables, side)(indices, sum(1 << i for i in indices))
    points = [tables.points[i] for i in indices]
    return gw_from_pair(value, [lattice_length(p, q) for p, q in zip(points, points[1:])])


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
    tables = _tables(polygon, tie_break)
    # The side with the longer boundary chain is zero on more paths, so it
    # goes first and the other side is evaluated only where it is nonzero.
    first, second = sorted(
        (POSITIVE, NEGATIVE), key=lambda side: -tables.chain[side].bit_count()
    )
    first, second = _side_walker(tables, first), _side_walker(tables, second)
    last = len(tables.points) - 1
    bit = [1 << i for i in range(last + 1)]
    rank = signature = 0
    for middle in combinations(range(1, last), n_steps - 1):
        path = (0, *middle, last)
        mask = bit[0] + bit[last] + sum(map(bit.__getitem__, middle))
        first_rank, first_signature = first(path, mask)
        if not first_rank:
            continue
        second_rank, second_signature = second(path, mask)
        rank += first_rank * second_rank
        signature += first_signature * second_signature
    return gw_from_pair((rank, signature))


def _side_reductions(path: tuple[int, ...], tables: _Tables, side: str):
    """All successful reductions of one side: (triangles, parallelograms)."""
    turn = _first_turn(path, tables.move[side])
    if turn is None:
        if sum(1 << i for i in path) == tables.chain[side]:
            yield (), ()
        return
    j, (_, r) = turn
    corner = tuple(tables.points[i] for i in path[j - 1:j + 2])
    for tris, pars in _side_reductions(path[:j] + path[j + 1:], tables, side):
        yield tris + (corner,), pars
    if r >= 0:
        shifted = path[:j] + (r,) + path[j + 1:]
        for tris, pars in _side_reductions(shifted, tables, side):
            yield tris, pars + (corner,)


def path_subdivisions(path, polygon: Polygon, tie_break: str = "ydesc"):
    """Dual subdivisions realized by the path; one per successful branch pair."""
    tables = _shared_tables(polygon, tie_break)
    indices = _path_indices(path, tables)
    for tris_p, pars_p in _side_reductions(indices, tables, POSITIVE):
        for tris_n, pars_n in _side_reductions(indices, tables, NEGATIVE):
            yield DualSubdivision(
                triangles=tris_p + tris_n, parallelograms=pars_p + pars_n
            )
