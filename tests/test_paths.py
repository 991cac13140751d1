import gc
import itertools
import math
import tracemalloc

import pytest

import gw_reference as ref
from tropgw import paths
from tropgw.ch import ch_count
from tropgw.curves import VertexStar, vertex_mult
from tropgw.gw import ONE, diag, gw_equal, hyperbolic, render, square_free
from tropgw.lattice import (
    Polygon,
    delta_polygon,
    hirzebruch_polygon,
    lattice_length,
)
from tropgw.paths import (
    NEGATIVE,
    POSITIVE,
    _tables,
    count_lattice_path,
    lambda_key,
)


def test_lambda_order_examples():
    assert lambda_key((0, 3)) < lambda_key((1, 0))
    assert lambda_key((1, 2)) < lambda_key((1, 0))
    assert lambda_key((2, 2)) == lambda_key((2, 2))
    assert lambda_key((1, 0), "yasc") < lambda_key((1, 2), "yasc")


def test_path_mult_base_cases():
    tri = delta_polygon(2)
    # the lower boundary chain carries multiplicity one on its own side
    lower = ((0, 2), (0, 1), (0, 0), (1, 0), (2, 0))
    assert ref.walker_path_mult(lower, tri, NEGATIVE) in (ONE,) or (
        ref.walker_path_mult(lower, tri, POSITIVE) in (ONE,)
    )
    sides = {ref.walker_path_mult(lower, tri, s) for s in (POSITIVE, NEGATIVE)}
    assert ONE in sides


def test_path_mult_validation():
    tri = delta_polygon(2)
    with pytest.raises(ValueError):
        ref.walker_path_mult(((0, 2), (5, 5)), tri, POSITIVE)
    with pytest.raises(ValueError):
        ref.walker_path_mult(((0, 0), (0, 2)), tri, POSITIVE)  # not increasing
    with pytest.raises(ValueError):
        ref.walker_path_mult(((0, 2), (2, 0)), tri, "up")


def test_full_path_counts_once():
    # maximal genus: the single path through every lattice point gives <1>
    for d in (2, 3, 4):
        gmax = (d - 1) * (d - 2) // 2
        assert count_lattice_path(delta_polygon(d), gmax) == ONE


def test_golden_values():
    assert count_lattice_path(delta_polygon(2), 0) == ONE
    assert count_lattice_path(delta_polygon(3), 1) == ONE
    assert count_lattice_path(delta_polygon(3), 0) == hyperbolic(2) + 8 * ONE
    assert count_lattice_path(delta_polygon(2), -1) == 3 * ONE


def test_cut_triangle_with_odd_interior_count():
    # area 3, one interior point: the vertex weight is H + <-1>, not H + <1>
    polygon = Polygon.from_vertices([(0, 0), (2, 1), (1, 2)])
    for tie_break in ("ydesc", "yasc"):
        assert count_lattice_path(polygon, 0, tie_break) == hyperbolic(1) + diag(-1)
        assert count_lattice_path(polygon, 1, tie_break) == ONE


def test_one_node_formula_small():
    for d in (3, 4, 5):
        gmax = (d - 1) * (d - 2) // 2
        value = count_lattice_path(delta_polygon(d), gmax - 1)
        assert value == hyperbolic((d - 1) * (d - 2)) + (d * d - 1) * ONE


def test_genus_bounds():
    with pytest.raises(ValueError):
        count_lattice_path(delta_polygon(3), 2)
    with pytest.raises(ValueError):
        count_lattice_path(delta_polygon(1), -2)


def test_tie_break_flip_invariance():
    for d in (2, 3, 4):
        gmax = (d - 1) * (d - 2) // 2
        for g in range(-1, gmax + 1):
            a = count_lattice_path(delta_polygon(d), g)
            b = count_lattice_path(delta_polygon(d), g, tie_break="yasc")
            assert gw_equal(a, b), (d, g, render(a), render(b))


def test_rank_and_signature_specializations():
    for d in (2, 3, 4):
        gmax = (d - 1) * (d - 2) // 2
        for g in range(-1, gmax + 1):
            for tie_break in ("ydesc", "yasc"):
                polygon = delta_polygon(d)
                value = count_lattice_path(polygon, g, tie_break)
                expected = ref.count_lattice_path(polygon, g, tie_break)
                assert gw_equal(value, expected), (d, g, tie_break)
                assert value.rank == expected.rank
                assert value.signature == expected.signature


def oracle_cases():
    """(polygon, lowest genus) pairs of the brute-force comparison."""
    d4 = delta_polygon(4)
    sheared = Polygon.from_vertices([(x + 7, y - 2 * x + 20) for x, y in d4.vertices])
    cases = [(d4, -2), (sheared, -2), (delta_polygon(5), 3)]
    for k, a, b in ((1, 2, 1), (2, 2, 1), (0, 2, 2), (1, 3, 1), (0, 3, 2)):
        cases.append((hirzebruch_polygon(k, a, b), -1))
    return cases


def test_counts_match_brute_force_oracle():
    # the reference enumerates every path with its own chains and walker
    for polygon, gmin in oracle_cases():
        for g in range(gmin, polygon.interior_count() + 1):
            for tie_break in ("ydesc", "yasc"):
                value = count_lattice_path(polygon, g, tie_break)
                expected = ref.count_lattice_path(polygon, g, tie_break)
                assert gw_equal(value, expected), (polygon, g, tie_break)
                assert value.rank == expected.rank
                assert value.signature == expected.signature


def test_chain_points_never_turn_toward_their_side():
    # the transfer closes a side's piece at each of its chain points
    for polygon, _ in oracle_cases():
        for tie_break in ("ydesc", "yasc"):
            tables = _tables(polygon, tie_break)
            n = len(tables.points)
            for a, b, c in itertools.combinations(range(n), 3):
                entry = tables.corners[a, b, c]
                if entry is None:
                    continue
                side = entry[0]
                assert side in (POSITIVE, NEGATIVE)
                assert not tables.chain[side] >> b & 1, (polygon, side, a, b, c)
            for side in (POSITIVE, NEGATIVE):
                assert bin(tables.chain[side]).count("1") >= 2
            assert len(tables.corners) == math.comb(n, 3)


def test_count_computes_only_the_corners_it_reads(monkeypatch):
    # the corner table is filled on demand, once per corner a count reads
    built = []

    def recording_tables(polygon, tie_break):
        tables = _tables(polygon, tie_break)
        built.append(tables)
        return tables

    monkeypatch.setattr(paths, "_tables", recording_tables)
    polygon = delta_polygon(5)
    for tie_break in ("ydesc", "yasc"):
        count_lattice_path(polygon, 3, tie_break)
    computed = [len(tables.corners) for tables in built]
    assert computed == [249, 252]
    assert max(computed) < math.comb(len(built[0].points), 3)  # 1,330


def test_side_walker_calls(monkeypatch):
    # a piece closed at a chain point is looked up in its side's memo before
    # it is built; calling the walker on every closed piece takes 1,172 and
    # 1,183 calls
    calls = []

    def counted(*args, side_value=paths._side_value):
        calls.append(args)
        return side_value(*args)

    monkeypatch.setattr(paths, "_side_value", counted)
    polygon = delta_polygon(5)
    counts = []
    for tie_break in ("ydesc", "yasc"):
        calls.clear()
        count_lattice_path(polygon, 3, tie_break)
        counts.append(len(calls))
    assert counts == [954, 963]


def test_delta6_counts_match_recursion():
    for g in range(3, 11):
        expected = ch_count(6, g)
        for tie_break in ("ydesc", "yasc"):
            value = count_lattice_path(delta_polygon(6), g, tie_break)
            assert value.rank == expected.rank, (g, tie_break)
            assert value.signature == expected.signature, (g, tie_break)


def test_path_mult_sides_match_gw_reference():
    # one side's class is the product of the path's segment lengths
    polygon = delta_polygon(3)
    points = sorted(polygon.lattice_points(), key=lambda_key)
    nonsquare = 0
    for size in range(len(points) - 1):
        for middle in itertools.combinations(points[1:-1], size):
            path = (points[0],) + middle + (points[-1],)
            w = 1
            for p, q in zip(path, path[1:]):
                w *= lattice_length(p, q)
            for side in (POSITIVE, NEGATIVE):
                value = ref.walker_path_mult(path, polygon, side)
                expected = ref.path_mult(path, polygon, side)
                assert gw_equal(value, expected), (path, side)
                assert value.rank == expected.rank
                assert value.signature == expected.signature
                if expected.signature and square_free(w) != 1:
                    nonsquare += 1
    assert nonsquare > 0


def test_count_frees_its_memos_when_it_returns():
    # memos in a reference cycle would stay until the next full collection
    gc.disable()
    tracemalloc.start()
    try:
        count_lattice_path(delta_polygon(5), 0)  # fills the interpreter's free lists
        before = tracemalloc.get_traced_memory()[0]
        count_lattice_path(delta_polygon(5), 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 64 * 1024, held  # the memos take about 1.4 MiB


def test_hirzebruch_polygon_counts():
    square = hirzebruch_polygon(0, 2, 2)
    assert count_lattice_path(square, 1) == ONE
    assert count_lattice_path(square, 0) == hyperbolic(2) + 8 * ONE


def star_of_triangle(tri) -> VertexStar:
    a, b, c = tri
    sides = [(b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1]),
             (a[0] - c[0], a[1] - c[1])]
    return VertexStar.from_vectors([(-y, x) for x, y in sides])


def test_vertex_factorization_of_path_subdivisions():
    # the product of vertex multiplicities recovers the curve multiplicity
    import itertools

    polygon = delta_polygon(3)
    points = sorted(polygon.lattice_points(), key=lambda_key)
    seen = 0
    for size in (5, 6, 7, 8):
        for middle in itertools.combinations(points[1:-1], size):
            path = (points[0],) + middle + (points[-1],)
            for sub in ref.path_subdivisions(path, polygon):
                assert ref.piece_area2(sub) == polygon.area2
                curve = ref.SimpleCurve(sub, ref.boundary_end_weights(sub, polygon))
                product = ONE
                for tri in sub.triangles:
                    product = product * vertex_mult(star_of_triangle(tri))
                assert gw_equal(ref.arith_mult(curve), product)
                seen += 1
            if seen > 200:
                break
    assert seen >= 40


def test_vertex_factorization_larger_degrees():
    import random

    rng = random.Random(5)
    for d in (4, 5):
        polygon = delta_polygon(d)
        points = sorted(polygon.lattice_points(), key=lambda_key)
        interior = points[1:-1]
        seen = 0
        while seen < 25:
            size = rng.randint(len(interior) - 4, len(interior))
            middle = sorted(rng.sample(range(len(interior)), size))
            path = (points[0],) + tuple(interior[i] for i in middle) + (points[-1],)
            for sub in ref.path_subdivisions(path, polygon):
                curve = ref.SimpleCurve(sub, ref.boundary_end_weights(sub, polygon))
                product = ONE
                for tri in sub.triangles:
                    product = product * vertex_mult(star_of_triangle(tri))
                assert gw_equal(ref.arith_mult(curve), product)
                seen += 1
                if seen >= 25:
                    break
