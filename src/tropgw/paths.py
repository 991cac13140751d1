"""Lattice-path computation of the quadratic-form count of tropical curves.

Paths are sequences of lattice points of a convex polygon, strictly
increasing for a generic linear order (x ascending, ties by y).  A path of
#ends + g - 1 steps contributes the product of its two completion
multiplicities, computed recursively on each side of the path: cutting the
first corner that turns toward the side costs the quadratic-form weight of
the cut triangle, while the parallelogram move reflects the corner across
and costs nothing.  A path that has flattened onto the side's boundary
chain contributes the unit; a stuck path contributes zero.

Everything runs on index tables made once per count: the lattice points
sorted by the path order, so that a path is an increasing tuple of point
indices, and a corner table keyed by (a, b, c), a < b < c, shared by both
sides.  An entry is computed on its first read: ``None`` for a collinear
corner, otherwise the side the corner turns toward, the cut triangle's
weight and the index of the reflected point a + c - b (-1 when that is not
a lattice point of the polygon).  A count reads only a few of the corners
(249 of the 1,330 of Δ5 at genus 3), so none of the others is computed.
An increasing path is determined by its set of points, so each side
memoizes on the int bitmask of that set: a corner cut clears one bit, a
parallelogram move clears one and sets another.

A path point on a side's boundary chain is never cut or moved on that
side: the polygon is convex, so no corner at a boundary point turns toward
the side it bounds.  Each side's multiplicity is therefore the product of
the multiplicities of the pieces between consecutive chain points, and
``count_lattice_path`` sums over all paths by building them from left to
right, closing a side's piece at each of its chain points.

The recursion runs on exact (rank, signature) pairs, multiplied
componentwise.  A triangle of normalized area m costs the pair of its
quadratic-form weight: (m, 0) for even m and (m, +-1) for odd m, the sign
given by the parity of its interior lattice points.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from typing import NamedTuple

from .gw import GWElement, gw_from_pair
from .lattice import Point, Polygon

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


class _Corners(dict):
    """The corners of one count, each computed on its first read.

    ``corners[a, b, c]`` (a < b < c) is None when the three points are
    collinear, and otherwise (side, weight, r): the side the corner turns
    toward, the cut triangle's weight and the index r of the reflected
    point a + c - b (-1 when that is not a lattice point of the polygon).
    """

    __slots__ = ("points", "index")

    def __init__(self, points: list[Point], index: dict[Point, int]):
        super().__init__()
        self.points, self.index = points, index

    def __missing__(self, corner: tuple[int, int, int]):
        a, b, c = corner
        (ax, ay), (bx, by), (cx, cy) = self.points[a], self.points[b], self.points[c]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        if cross == 0:
            entry = None
        else:
            # right turns flatten onto the ccw chain, left turns onto the cw chain
            side = NEGATIVE if cross > 0 else POSITIVE
            area = abs(cross)
            if area % 2 == 0:
                weight = (area, 0)
            else:
                # Pick: (area - boundary + 2) / 2 lattice points lie inside
                boundary = (gcd(bx - ax, by - ay) + gcd(cx - bx, cy - by)
                            + gcd(cx - ax, cy - ay))
                weight = (area, -1 if (area - boundary + 2) // 2 % 2 else 1)
            entry = side, weight, self.index.get((ax + cx - bx, ay + cy - by), -1)
        self[corner] = entry
        return entry


class _Tables(NamedTuple):
    points: list[Point]  # the lattice points in path order
    index: dict[Point, int]
    corners: _Corners  # (a, b, c) -> None or (side, weight, reflected index)
    chain: dict[str, int]  # side -> bitmask of its boundary chain


def _tables(polygon: Polygon, tie_break: str) -> _Tables:
    points = sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))
    index = {p: i for i, p in enumerate(points)}
    cycle = polygon.boundary_lattice_points()
    i, j, m = cycle.index(points[0]), cycle.index(points[-1]), len(cycle)
    ccw = [cycle[(i + t) % m] for t in range((j - i) % m + 1)]
    cw = [cycle[(i - t) % m] for t in range((i - j) % m + 1)]
    chain = {side: sum(1 << index[p] for p in pts)
             for side, pts in ((POSITIVE, ccw), (NEGATIVE, cw))}
    return _Tables(points, index, _Corners(points, index), chain)


def _first_turn(path: tuple[int, ...], corners: _Corners, side: str, start: int = 1):
    """(j, corner entry) of the first corner path[j], j >= start, turning
    toward the side, or None if the path has no such corner."""
    for j in range(start, len(path) - 1):
        entry = corners[path[j - 1], path[j], path[j + 1]]
        if entry is not None and entry[0] == side:
            return j, entry
    return None


def _side_value(corners: _Corners, side: str, chain: int, memo: dict,
                path: tuple[int, ...], mask: int, start: int = 1) -> tuple[int, int]:
    """The completion multiplicity of one side for an increasing path whose
    ends lie on the side's boundary chain, stored in the memo under the
    mask.  The mask must not be in the memo yet: every caller looks it up
    before it builds the path.  A memo value is a pair, never falsy, so
    ``memo.get(m) or ...`` walks only on a miss."""
    inner = mask & chain & ~(1 << path[0] | 1 << path[-1])
    if inner:
        b = (inner & -inner).bit_length() - 1
        j, low = path.index(b), (2 << b) - 1
        left = mask & low
        rank, signature = memo.get(left) or _side_value(
            corners, side, chain, memo, path[:j + 1], left
        )
        if rank:
            right = mask & ~low | 1 << b
            r_rank, r_signature = memo.get(right) or _side_value(
                corners, side, chain, memo, path[j:], right
            )
            rank, signature = rank * r_rank, signature * r_signature
    else:
        turn = _first_turn(path, corners, side, start)
        if turn is None:
            flat = chain & (2 << path[-1]) - (1 << path[0])
            rank, signature = (1, 1) if mask == flat else (0, 0)
        else:
            # corners left of j - 1 are untouched by the move at j
            j, (_, (tri_rank, tri_signature), r) = turn
            b, resume = path[j], j - 1 or 1
            cut = mask ^ 1 << b
            rank, signature = memo.get(cut) or _side_value(
                corners, side, chain, memo, path[:j] + path[j + 1:], cut, resume
            )
            rank, signature = tri_rank * rank, tri_signature * signature
            if r >= 0:
                moved = cut | 1 << r
                r_rank, r_signature = memo.get(moved) or _side_value(
                    corners, side, chain, memo, path[:j] + (r,) + path[j + 1:], moved, resume
                )
                rank, signature = rank + r_rank, signature + r_signature
    # zeros, the most common value, share one tuple
    result = memo[mask] = (rank, signature) if rank else (0, 0)
    return result


def _side_walker(tables: _Tables, side: str):
    """(walk, memo): the completion multiplicity of one side, as a function
    walk(path, mask) for an increasing path whose ends lie on the side's
    boundary chain and whose mask is not in the memo yet, and the memo it
    fills, keyed by mask.

    A corner whose middle point lies on the chain never turns toward the
    side (the polygon is convex), so such a point is never cut or moved:
    the path splits there into pieces whose multiplicities multiply.  A
    piece is flat when its mask is the chain between its ends.  The
    function holds no reference to itself, so its memo goes with it.
    """
    memo: dict[int, tuple[int, int]] = {}
    return partial(_side_value, tables.corners, side, tables.chain[side], memo), memo


def count_lattice_path(polygon: Polygon, g: int, tie_break: str = "ydesc") -> GWElement:
    """Sum of both-side path multiplicities over paths of #ends+g-1 steps.

    ``g`` may drop below zero (counts of disconnected curves); it is capped
    above by the number of interior lattice points.

    The paths are built one point at a time from left to right.  Each side
    keeps its open piece, the points since the last point on its boundary
    chain; a point on the chain closes the piece, whose multiplicity then
    multiplies in (a zero prunes every path through it).  The sum over all
    completions depends only on the two open pieces and the steps left.
    """
    if g > polygon.interior_count():
        raise ValueError(f"genus {g} exceeds the interior point count")
    n_steps = polygon.num_boundary_points() + g - 1
    if n_steps < 1:
        raise ValueError(f"no paths with {n_steps} steps")
    tables = _tables(polygon, tie_break)
    last = len(tables.points) - 1
    pos_chain, neg_chain = tables.chain[POSITIVE], tables.chain[NEGATIVE]
    pos, pos_memo = _side_walker(tables, POSITIVE)
    neg, neg_memo = _side_walker(tables, NEGATIVE)
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}

    def completions(pos_piece, pos_mask, neg_piece, neg_mask, steps):
        key = pos_mask, neg_mask, steps
        cached = memo.get(key)
        if cached is not None:
            return cached
        rank = signature = 0
        # the last point ends the path, and each step needs a point after it
        nexts = (last,) if steps == 1 else range(pos_piece[-1] + 1, last - steps + 2)
        for p in nexts:
            # a closed piece is looked up in its side's memo before it is built
            bit = 1 << p
            p_mask, n_mask = pos_mask | bit, neg_mask | bit
            p_rank = p_signature = 1
            if pos_chain & bit:
                p_rank, p_signature = pos_memo.get(p_mask) or pos(pos_piece + (p,), p_mask)
                if not p_rank:
                    continue
                p_piece, p_mask = (p,), bit
            else:
                p_piece = pos_piece + (p,)
            if neg_chain & bit:
                n_rank, n_signature = neg_memo.get(n_mask) or neg(neg_piece + (p,), n_mask)
                if not n_rank:
                    continue
                p_rank, p_signature = p_rank * n_rank, p_signature * n_signature
                n_piece, n_mask = (p,), bit
            else:
                n_piece = neg_piece + (p,)
            if steps > 1:
                c_rank, c_signature = completions(p_piece, p_mask, n_piece, n_mask, steps - 1)
                p_rank, p_signature = p_rank * c_rank, p_signature * c_signature
            rank += p_rank
            signature += p_signature
        result = memo[key] = (rank, signature) if rank else (0, 0)
        return result

    try:
        return gw_from_pair(completions((0,), 1, (0,), 1, n_steps))
    finally:
        # the closure refers to itself through this cell; without the cycle
        # its memo and the side walkers go when the call returns
        completions = None
