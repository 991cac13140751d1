"""Quadratic-form multiplicities of trivalent tropical vertices, and wall
crossing.

A vertex whose dual triangle has normalized area m, side lengths
w_1, w_2, w_3 and i interior lattice points weighs (``triangle_mult``)

* m odd:  (m-1)/2 * H + <(-1)^i * w_1 w_2 w_3>
* m even: (m/2) * H

``resolve_wall`` splits a balanced 4-valent star into its three trivalent
resolutions and returns the distinguished one and the sum of the other
two, which the ``wallcheck`` command compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .gw import GWElement, ZERO, diag, hyperbolic
from .lattice import Point, primitive


class DegenerateStarError(ValueError):
    """Raised when a 4-valent star admits a degenerate resolution."""


def triangle_mult(area: int, side_lengths, interior: int) -> GWElement:
    """Quadratic-form weight of a single vertex with the given dual triangle."""
    if area % 2 == 0:
        return hyperbolic(area // 2)
    sign = -1 if interior % 2 else 1
    return hyperbolic((area - 1) // 2) + diag(sign * prod(side_lengths))


@dataclass(frozen=True)
class VertexStar:
    """Edges around one vertex: (primitive direction, weight), balanced."""

    edges: tuple[tuple[Point, int], ...]

    def __post_init__(self):
        if len(self.edges) not in (3, 4):
            raise ValueError("a star has 3 or 4 edges")
        sx = sy = 0
        for (dx, dy), w in self.edges:
            d, length = primitive((dx, dy))
            if length != 1:
                raise ValueError(f"direction {(dx, dy)} is not primitive")
            if w < 1:
                raise ValueError("weights must be positive")
            sx += w * dx
            sy += w * dy
        if (sx, sy) != (0, 0):
            raise ValueError(f"unbalanced star, weighted sum ({sx}, {sy})")

    @staticmethod
    def from_vectors(vectors) -> "VertexStar":
        """Build a star from weighted vectors, factoring out lattice lengths."""
        edges = []
        for v in vectors:
            d, w = primitive((int(v[0]), int(v[1])))
            edges.append((d, w))
        return VertexStar(tuple(edges))


def vertex_mult(star: VertexStar) -> GWElement:
    """Multiplicity of a 3-valent vertex via its dual triangle."""
    if len(star.edges) != 3:
        raise ValueError("vertex_mult needs a 3-valent star; use resolve_wall")
    (d1, w1), (d2, w2), _ = star.edges
    e1 = (w1 * d1[0], w1 * d1[1])
    e2 = (w2 * d2[0], w2 * d2[1])
    area = abs(e1[0] * e2[1] - e1[1] * e2[0])
    if area == 0:
        raise ValueError("degenerate star: parallel edges")
    weights = tuple(w for _, w in star.edges)
    boundary = sum(weights)
    interior = (area - boundary + 2) // 2
    return triangle_mult(area, weights, interior)


def _pairing(va, vb):
    """Join two weighted vectors at a new bounded edge; None if degenerate."""
    det = va[0] * vb[1] - va[1] * vb[0]
    if det == 0:
        return None
    u = (va[0] + vb[0], va[1] + vb[1])
    if u == (0, 0):
        return None
    return u, abs(det)


def resolve_wall(star: VertexStar) -> tuple[GWElement, GWElement]:
    """Split a 4-valent star into its three 3-valent resolutions.

    Returns (left, right_sum): the multiplicity of the distinguished
    resolution whose complex multiplicity equals the sum of the other two,
    and the sum of those two.  The three pairings join edges {a,b}|{c,d};
    the shared bounded edge's weight cancels as a square, so each
    resolution is the plain product of its two vertex multiplicities.
    """
    if len(star.edges) != 4:
        raise ValueError("resolve_wall needs a 4-valent star")
    vecs = [(w * d[0], w * d[1]) for d, w in star.edges]
    resolutions = []
    for i, j in ((0, 1), (0, 2), (0, 3)):
        k, l = [m for m in range(1, 4) if m not in (i, j)]
        first = _pairing(vecs[i], vecs[j])
        second = _pairing(vecs[k], vecs[l])
        if first is None or second is None:
            raise DegenerateStarError(f"pairing ({i},{j})|({k},{l}) degenerates")
        u, area1 = first
        mu, area2 = (-u[0], -u[1]), second[1]
        star1 = VertexStar.from_vectors([vecs[i], vecs[j], mu])
        star2 = VertexStar.from_vectors([vecs[k], vecs[l], u])
        resolutions.append((area1 * area2, vertex_mult(star1) * vertex_mult(star2)))
    areas = [m for m, _ in resolutions]
    distinguished = [
        idx for idx in range(3) if 2 * areas[idx] == sum(areas)
    ]
    if len(distinguished) != 1:
        raise DegenerateStarError(f"no unique distinguished resolution: {areas}")
    idx = distinguished[0]
    left = resolutions[idx][1]
    right_sum = ZERO
    for other in range(3):
        if other != idx:
            right_sum = right_sum + resolutions[other][1]
    return left, right_sum


_STAR_ENTRY = 7  # bound on each coordinate of a primitive direction
_STAR_WEIGHT = 5  # bound on each weight


def random_star(rng) -> VertexStar | None:
    """Random balanced 4-valent star, or None when the draw degenerates."""
    vecs = []
    for _ in range(3):
        d = (0, 0)
        while d == (0, 0):
            d = tuple(rng.randint(-_STAR_ENTRY, _STAR_ENTRY) for _ in range(2))
        d, _ = primitive(d)
        w = rng.randint(1, _STAR_WEIGHT)
        vecs.append((w * d[0], w * d[1]))
    last = (-sum(v[0] for v in vecs), -sum(v[1] for v in vecs))
    if last == (0, 0):
        return None
    d4, w4 = primitive(last)
    if max(abs(d4[0]), abs(d4[1])) > _STAR_ENTRY or w4 > _STAR_WEIGHT:
        return None
    star = VertexStar.from_vectors(vecs + [last])
    try:
        resolve_wall(star)
    except DegenerateStarError:
        return None
    return star
