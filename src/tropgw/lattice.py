"""Convex lattice polygons.

Points are plain integer pairs.  Areas are normalized (twice Euclidean),
so the unit triangle has area 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Point = tuple[int, int]


def lattice_length(p: Point, q: Point) -> int:
    """gcd of the coordinate differences; the integer length of segment pq."""
    if p == q:
        raise ValueError(f"degenerate segment at {p}")
    return gcd(abs(q[0] - p[0]), abs(q[1] - p[1]))


def primitive(v: Point) -> tuple[Point, int]:
    """Split a nonzero vector into (primitive direction, positive length)."""
    if v == (0, 0):
        raise ValueError("zero vector has no direction")
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g), g


@dataclass(frozen=True)
class Polygon:
    """Convex lattice polygon; vertices CCW starting at the lex-least one."""

    vertices: tuple[Point, ...]

    @staticmethod
    def from_vertices(points) -> "Polygon":
        pts = list(dict.fromkeys(tuple(p) for p in points))  # drop repeats
        if len(pts) < 3:
            raise ValueError("degenerate polygon")
        # normalize: CCW orientation, drop collinear vertices, start lex-least
        area2 = 0
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            area2 += p[0] * q[1] - p[1] * q[0]
        if area2 == 0:
            raise ValueError("degenerate polygon")
        if area2 < 0:
            pts.reverse()
        kept = []
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cr < 0:
                raise ValueError("polygon is not convex")
            if cr > 0:
                kept.append(b)
        start = kept.index(min(kept))
        return Polygon(tuple(kept[start:] + kept[:start]))

    def edges(self) -> list[tuple[Point, Point]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    @property
    def area2(self) -> int:
        s = 0
        for p, q in self.edges():
            s += p[0] * q[1] - p[1] * q[0]
        return s

    def boundary_lattice_points(self) -> list[Point]:
        """All boundary lattice points, CCW, starting at the first vertex."""
        out: list[Point] = []
        for p, q in self.edges():
            n = lattice_length(p, q)
            dx, dy = (q[0] - p[0]) // n, (q[1] - p[1]) // n
            out.extend((p[0] + i * dx, p[1] + i * dy) for i in range(n))
        return out

    def num_boundary_points(self) -> int:
        return sum(lattice_length(p, q) for p, q in self.edges())

    def interior_count(self) -> int:
        return (self.area2 - self.num_boundary_points() + 2) // 2

    def lattice_points(self) -> list[Point]:
        edges = self.edges()
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return [
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if _inside(edges, (x, y))
        ]


def _inside(edges: list[tuple[Point, Point]], pt: Point) -> bool:
    """Whether pt lies on the inner side of every edge of a ccw polygon."""
    for p, q in edges:
        if (q[0] - p[0]) * (pt[1] - p[1]) - (q[1] - p[1]) * (pt[0] - p[0]) < 0:
            return False
    return True


def delta_polygon(d: int) -> Polygon:
    return Polygon.from_vertices([(0, 0), (d, 0), (0, d)])


def hirzebruch_polygon(k: int, a: int, b: int) -> Polygon:
    """Trapezoid with left side a*k+b, right side b, width a (a triangle
    when either side is 0)."""
    if b == 0:
        return Polygon.from_vertices([(0, 0), (a, 0), (0, a * k)])
    if a * k + b == 0:
        return Polygon.from_vertices([(0, 0), (a, 0), (a, b)])
    return Polygon.from_vertices([(0, 0), (a, 0), (a, b), (0, a * k + b)])
