import random

import pytest

from gw_reference import DualSubdivision, SimpleCurve, arith_mult, complex_mult, real_mult
from tropgw.curves import (
    DegenerateStarError,
    VertexStar,
    random_star,
    resolve_wall,
    triangle_mult,
    vertex_mult,
)
from tropgw.gw import H, ONE, diag, gw_equal, hyperbolic


def unit_cover(d):
    """The all-unit-triangle staircase subdivision of the triangle Delta_d."""
    tris = []
    for x in range(d):
        for y in range(d - x):
            tris.append(((x, y), (x + 1, y), (x, y + 1)))
            if x + y < d - 1:
                tris.append(((x + 1, y), (x + 1, y + 1), (x, y + 1)))
    return DualSubdivision(triangles=tuple(tris))


def test_complex_mult_examples():
    cubic = SimpleCurve(unit_cover(3), (1,) * 9)
    assert complex_mult(cubic) == 1
    one_big = SimpleCurve(
        DualSubdivision(triangles=(((0, 0), (2, 0), (1, 2)),)), (2, 1, 1)
    )
    assert complex_mult(one_big) == 4
    two_twos = SimpleCurve(
        DualSubdivision(
            triangles=(((0, 0), (2, 0), (1, 1)), ((0, 0), (1, 1), (0, 2)))
        ),
        (2, 2, 1, 1),
    )
    assert complex_mult(two_twos) == 4


def test_real_mult_examples():
    assert real_mult(SimpleCurve(unit_cover(2), (1,) * 6)) == 1
    # two area-2 triangles carry even edges, as in the multiplicity-4 cubic
    assert (
        real_mult(
            SimpleCurve(
                DualSubdivision(
                    triangles=(((0, 0), (2, 0), (1, 1)), ((0, 0), (1, 1), (0, 2)))
                ),
                (2, 2, 1, 1),
            )
        )
        == 0
    )
    assert real_mult(
        SimpleCurve(DualSubdivision(triangles=(((0, 0), (3, 0), (0, 3)),)), (3, 3, 3))
    ) == -1


def test_arith_mult_examples():
    assert arith_mult(SimpleCurve(unit_cover(3), (1,) * 9)) == ONE
    assert arith_mult(
        SimpleCurve(
            DualSubdivision(
                triangles=(((0, 0), (2, 0), (1, 1)), ((0, 0), (1, 1), (0, 2)))
            ),
            (2, 2, 1, 1),
        )
    ) == hyperbolic(2)
    assert arith_mult(
        SimpleCurve(DualSubdivision(triangles=(((0, 0), (1, 0), (0, 3)),)), (1, 3, 1))
    ) == H + diag(3)


def test_rank_matches_complex_mult():
    for curve in (
        SimpleCurve(unit_cover(3), (1,) * 9),
        SimpleCurve(DualSubdivision(triangles=(((0, 0), (3, 0), (0, 3)),)), (3, 3, 3)),
        SimpleCurve(DualSubdivision(triangles=(((0, 0), (2, 0), (1, 2)),)), (2, 1, 1)),
    ):
        assert arith_mult(curve).rank == complex_mult(curve)
        if all(w % 2 for w in curve.end_weights) and all(
            l % 2 for l in curve.subdivision.edge_lengths()
        ):
            assert arith_mult(curve).signature == real_mult(curve)
        else:
            assert arith_mult(curve).signature == 0


def test_vertex_mult_examples():
    assert vertex_mult(VertexStar.from_vectors([(1, 0), (0, 1), (-1, -1)])) == ONE
    assert vertex_mult(VertexStar.from_vectors([(1, 0), (0, -2), (-1, 2)])) == H
    star = VertexStar.from_vectors([(-2, 1), (1, -2), (1, 1)])
    assert vertex_mult(star) == H + diag(-1)


def test_vertex_mult_matches_triangle_mult():
    star = VertexStar.from_vectors([(3, 0), (0, -3), (-3, 3)])
    assert gw_equal(vertex_mult(star), triangle_mult(9, (3, 3, 3), 1))


def test_resolve_wall_example():
    star = VertexStar.from_vectors([(1, 0), (0, 1), (-2, 1), (1, -2)])
    left, right_sum = resolve_wall(star)
    assert left == hyperbolic(2)
    assert right_sum == H + diag(-1) + diag(1)
    assert gw_equal(left, right_sum)


def test_resolve_wall_degenerate():
    with pytest.raises(DegenerateStarError):
        resolve_wall(VertexStar.from_vectors([(1, 0), (0, 1), (-1, 0), (0, -1)]))


def test_vertex_star_rejections():
    with pytest.raises(ValueError, match="3 or 4 edges"):
        VertexStar((((1, 0), 1), ((-1, 0), 1)))
    with pytest.raises(ValueError, match="not primitive"):
        VertexStar((((2, 0), 1), ((0, 1), 2), ((-1, -1), 2)))
    with pytest.raises(ValueError, match="weights must be positive"):
        VertexStar((((1, 0), 0), ((0, 1), 1), ((-1, -1), 1)))
    with pytest.raises(ValueError, match=r"unbalanced star, weighted sum \(-1, -1\)"):
        VertexStar((((1, 0), 1), ((0, 1), 1), ((-1, -1), 2)))


def test_vertex_mult_and_resolve_wall_errors():
    four = VertexStar.from_vectors([(1, 0), (0, 1), (-2, 1), (1, -2)])
    with pytest.raises(ValueError, match="needs a 3-valent star"):
        vertex_mult(four)
    with pytest.raises(ValueError, match="parallel edges"):
        vertex_mult(VertexStar.from_vectors([(1, 0), (-2, 0), (1, 0)]))
    with pytest.raises(ValueError, match="needs a 4-valent star"):
        resolve_wall(VertexStar.from_vectors([(1, 0), (0, 1), (-1, -1)]))


def test_resolve_wall_rank_is_plucker_sum():
    star = VertexStar.from_vectors([(1, 0), (0, 1), (-2, 1), (1, -2)])
    left, right_sum = resolve_wall(star)
    assert left.rank == 4 and right_sum.rank == 4


def test_wall_identity_randomized():
    rng = random.Random(1234)
    checked = skipped = 0
    while checked < 400:
        star = random_star(rng)
        if star is None:
            skipped += 1
            continue
        left, right_sum = resolve_wall(star)
        assert gw_equal(left, right_sum), star
        assert left.rank == right_sum.rank
        assert left.signature == right_sum.signature
        checked += 1
    assert skipped < 10 * checked
