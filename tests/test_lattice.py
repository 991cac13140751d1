import pytest
from hypothesis import given, strategies as st

from gw_reference import (
    DualSubdivision,
    boundary_end_weights,
    interior_points,
    normalized_area,
    piece_area2,
    polygon_contains,
    triangle_boundary_count,
)
from tropgw.lattice import Polygon, delta_polygon, hirzebruch_polygon, lattice_length

coord = st.integers(min_value=-20, max_value=20)
point = st.tuples(coord, coord)


def count_interior_by_enumeration(a, b, c) -> int:
    """Independent oracle: scan the bounding box for strictly interior points."""
    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    orient = side(a, b, c)
    xs = [a[0], b[0], c[0]]
    ys = [a[1], b[1], c[1]]
    n = 0
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            p = (x, y)
            s1, s2, s3 = side(a, b, p), side(b, c, p), side(c, a, p)
            if orient < 0:
                s1, s2, s3 = -s1, -s2, -s3
            if s1 > 0 and s2 > 0 and s3 > 0:
                n += 1
    return n


def test_normalized_area_examples():
    assert normalized_area((0, 0), (1, 0), (0, 1)) == 1
    assert normalized_area((0, 0), (2, 0), (0, 2)) == 4
    assert normalized_area((0, 0), (1, 0), (0, 3)) == 3
    with pytest.raises(ValueError):
        normalized_area((0, 0), (1, 1), (2, 2))


def test_interior_points_examples():
    assert interior_points((0, 0), (1, 0), (0, 1)) == 0
    assert count_interior_by_enumeration((0, 0), (3, 0), (0, 3)) == 1
    assert interior_points((0, 0), (3, 0), (0, 3)) == 1
    assert count_interior_by_enumeration((0, 0), (1, 0), (0, 3)) == 0
    assert interior_points((0, 0), (1, 0), (0, 3)) == 0


def test_lattice_length_examples():
    assert lattice_length((0, 0), (2, 0)) == 2
    assert lattice_length((0, 0), (1, 1)) == 1
    assert lattice_length((0, 0), (4, 6)) == 2
    with pytest.raises(ValueError):
        lattice_length((1, 2), (1, 2))


@given(point, point, point)
def test_pick_identity(a, b, c):
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det == 0:
        return
    area = normalized_area(a, b, c)
    assert area == 2 * count_interior_by_enumeration(a, b, c) + (
        triangle_boundary_count(a, b, c)
    ) - 2
    assert interior_points(a, b, c) == count_interior_by_enumeration(a, b, c)


UNIMODULAR_GENS = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]


@given(point, point, st.lists(st.sampled_from(UNIMODULAR_GENS), max_size=5),
       st.tuples(coord, coord))
def test_lattice_length_unimodular_invariance(p, q, mats, shift):
    if p == q:
        return
    def apply(pt):
        x, y = pt
        for (a, b), (c, d) in mats:
            x, y = a * x + b * y, c * x + d * y
        return (x + shift[0], y + shift[1])

    assert lattice_length(apply(p), apply(q)) == lattice_length(p, q)


def test_delta_polygon_point_count():
    for d in range(1, 7):
        poly = delta_polygon(d)
        assert poly.vertices == ((0, 0), (d, 0), (0, d))
        assert len(poly.lattice_points()) == (d + 1) * (d + 2) // 2


def test_polygon_basics():
    tri = delta_polygon(2)
    assert tri.area2 == 4
    assert tri.num_boundary_points() == 6
    assert tri.interior_count() == 0
    assert polygon_contains(tri, (1, 1)) and not polygon_contains(tri, (2, 1))
    assert delta_polygon(4).interior_count() == 3
    trap = hirzebruch_polygon(2, 2, 1)
    assert trap.vertices == ((0, 0), (2, 0), (2, 1), (0, 5))
    assert trap.boundary_lattice_points()[:3] == [(0, 0), (1, 0), (2, 0)]
    assert hirzebruch_polygon(1, 1, 1).vertices == ((0, 0), (1, 0), (1, 1), (0, 2))
    assert hirzebruch_polygon(0, 1, 1).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert hirzebruch_polygon(1, 3, 0) == delta_polygon(3)


def test_repeated_vertices_are_dropped():
    # a*k + b = 0 closes the trapezoid's left side to a point
    assert hirzebruch_polygon(-1, 2, 2).vertices == ((0, 0), (2, 0), (2, 2))
    square = [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    assert Polygon.from_vertices(square).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    for points in ([(0, 0), (2, 0), (0, 0)], [(1, 1)] * 3):
        with pytest.raises(ValueError, match="degenerate polygon"):
            Polygon.from_vertices(points)


def test_subdivision_boundary_weights():
    # unit square split into two triangles along the main diagonal
    sub = DualSubdivision(
        triangles=(((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))),
    )
    square = Polygon.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert piece_area2(sub) == square.area2
    assert boundary_end_weights(sub, square) == (1, 1, 1, 1)
