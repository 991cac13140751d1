import random
from itertools import combinations_with_replacement, permutations, product
from math import prod

import pytest

import gw_reference as ref
from gw_reference import (
    DualSubdivision,
    FloorDiagram,
    SimpleCurve,
    arith_mult,
    complex_mult,
    count_markings,
    enumerate_diagrams,
    marked_mult,
    real_mult,
)
from tropgw import floors as floor_layer
from tropgw.ch import ch_count, max_genus, weighted_partitions
from tropgw.curves import VertexStar, vertex_mult
from tropgw.floors import (
    count_interleavings,
    delta_floor_count,
    edge_mult,
    floor_count,
    hirzebruch_count,
    severi_count,
)
from tropgw.gw import (
    ONE,
    gw_equal,
    gw_from_pair,
    hyperbolic,
    hyperbolic_decomposition,
    square_free,
)
from tropgw.lattice import delta_polygon, hirzebruch_polygon
from tropgw.paths import count_lattice_path
from tropgw.templates import severi_by_templates


def brute_force_attachments(a, w_left, w_right):
    """Every way to attach the ends to floors 1..a, balanced or not: each
    end goes to any floor, and ends of equal weight are interchangeable, so
    an attachment is a pair of per-floor sorted weight tuples."""
    found = set()
    n_left = len(w_left)
    for floors in product(range(a), repeat=n_left + len(w_right)):
        ends = list(zip(floors, tuple(w_left) + tuple(w_right)))
        found.add(tuple(
            tuple(tuple(sorted(w for f, w in part if f == v)) for v in range(a))
            for part in (ends[:n_left], ends[n_left:])
        ))
    return found


def balanced_attachments(diagram, w_left, w_right):
    """The attachments that give every floor divergence k."""
    a = diagram.floors
    needs = [diagram.k - diagram.div(v) for v in range(1, a + 1)]
    return [
        (left, right)
        for left, right in sorted(brute_force_attachments(a, w_left, w_right))
        if [sum(lw) - sum(rw) for lw, rw in zip(left, right)] == needs
    ]


def brute_force_markings(diagram, w_left, w_right, free=()):
    """Independent marking count: enumerate labeled orders and gap choices,
    then deduplicate by the class-id sequence (= isomorphism class)."""
    a = diagram.floors
    total = 0
    for left, right in balanced_attachments(diagram, w_left, w_right):
        items = []
        for i, j, w in diagram.edges:
            items.append((("edge", i, j, w), i, j - 1))
        for v in range(a):
            for w in left[v]:
                items.append((("left", v, w), 0, v))
            for w in right[v]:
                items.append((("right", v, w), v + 1, a))
        for w in free:
            items.append((("free", w), 0, a))
        n = len(items)
        seen = set()
        for perm in permutations(range(n)):
            def rec(pos, min_gap, acc):
                if pos == n:
                    seen.add(tuple(acc))
                    return
                cid, lo, hi = items[perm[pos]]
                for gap in range(max(min_gap, lo), hi + 1):
                    acc.append((gap, cid))
                    rec(pos + 1, gap, acc)
                    acc.pop()

            rec(0, 0, [])
        total += len(seen)
    return total


def test_diagram_validation():
    with pytest.raises(ValueError):
        FloorDiagram(2, 1, ((2, 1, 1),))
    with pytest.raises(ValueError):
        FloorDiagram(2, 1, ((1, 2, 0),))
    d = FloorDiagram(3, 1, ((1, 2, 2), (2, 3, 1)))
    assert d.div(1) == -2 and d.div(2) == 1 and d.div(3) == 1
    assert d.genus == 0
    assert d.is_connected()
    assert not FloorDiagram(3, 1, ((1, 2, 1),)).is_connected()


def pair(x):
    return x.rank, x.signature


def test_edge_and_diagram_mult():
    for w in range(1, 9):
        assert edge_mult(w) == pair(ref.edge_factor(w))
        assert gw_equal(gw_from_pair(edge_mult(w), (w,)), ref.edge_factor(w))
    cases = [
        (FloorDiagram(2, 1, ()), (1, 1), ()),
        (FloorDiagram(2, 1, ((1, 2, 3),)), (1, 1, 1), ()),
        (FloorDiagram(2, 1, ((1, 2, 2),)), (1, 1, 1), ()),
        (FloorDiagram(2, 2, ((1, 2, 1),)), (3, 1, 1), (1,)),
        (FloorDiagram(2, 2, ((1, 2, 2),)), (2, 2, 2), (2,)),
    ]
    for diagram, wl, wr in cases:
        expected = ref.marked_mult_gw(diagram, wl, wr)
        assert marked_mult(diagram, wl, wr) == pair(expected), diagram
        assert gw_equal(gw_from_pair(marked_mult(diagram, wl, wr), wl + wr), expected)


def test_marked_mult_squares_bounded_edges():
    d = FloorDiagram(2, 1, ((1, 2, 2),))
    assert gw_from_pair(marked_mult(d, (1, 1, 1), ()), (1, 1, 1)) == hyperbolic(2)
    d3 = FloorDiagram(2, 3, ((1, 2, 3),))
    value = gw_from_pair(marked_mult(d3, (3, 3, 3), ()), (3, 3, 3))
    base = ref.edge_factor(3)
    expected = base * base * base * base * base
    assert gw_equal(value, expected)


def test_floor_vertex_matches_edge_factor():
    # a floor vertex adjacent to a horizontal edge of weight w has dual
    # triangle of area w, reproducing the per-edge factor
    for w in range(1, 7):
        for x in (0, 1, 2):
            star = VertexStar.from_vectors([(-w, 0), (x, 1), (w - x, -1)])
            assert gw_equal(vertex_mult(star), ref.edge_factor(w))
            assert edge_mult(w) == pair(vertex_mult(star))


def test_enumerate_diagrams_examples():
    assert len(enumerate_diagrams(1, 1, 0, (1,), ())) == 1
    conic = enumerate_diagrams(1, 2, 0, (1, 1), ())
    assert [d.edges for d in conic] == [((1, 2, 1),)]
    cubic = enumerate_diagrams(1, 3, 0, (1, 1, 1), ())
    assert sorted(d.edges for d in cubic) == [
        ((1, 2, 1), (1, 3, 1)),
        ((1, 2, 1), (2, 3, 1)),
        ((1, 2, 2), (2, 3, 1)),
    ]
    assert enumerate_diagrams(1, 2, -2, (1, 1), ()) == []


def brute_force_diagrams(k, a, g, w_left, w_right):
    """Independent diagram enumeration: every multiset of a + g - 1 edges
    of weight at most sum(w_left) - k (the most any gap can carry), kept
    when some end attachment balances every floor."""
    n_edges = a + g - 1
    if n_edges < 0:
        return set()
    items = [
        (i, j, w)
        for i in range(1, a)
        for j in range(i + 1, a + 1)
        for w in range(1, sum(w_left) - k + 1)
    ]
    balancing = {  # per-floor k - div(v) that some attachment supplies
        tuple(sum(lw) - sum(rw) for lw, rw in zip(left, right))
        for left, right in brute_force_attachments(a, w_left, w_right)
    }
    found = set()
    for edges in combinations_with_replacement(items, n_edges):
        diagram = FloorDiagram(a, k, edges)
        if tuple(k - diagram.div(v) for v in range(1, a + 1)) in balancing:
            found.add(diagram)
    return found


DIAGRAM_ORACLE_CASES = [
    (1, d, g, (1,) * d, ()) for d in (1, 2, 3, 4) for g in range(-2, max_genus(d) + 1)
] + [
    # (k, a, g, w_left, w_right) with right ends
    (1, 2, 0, (7, 1), (5, 1)),  # criterion-9 ray 1 at t = 2
    (1, 2, 1, (7, 1), (5, 1)),
    (2, 3, 0, (7, 3, 1), (5,)),
    (2, 3, 1, (7, 3, 1), (5,)),
    (1, 3, 0, (1,) * 5, (1, 1)),
    (1, 3, 1, (1,) * 5, (1, 1)),
    (0, 2, 1, (3, 1), (3, 1)),
    (0, 3, 0, (1, 2, 1), (2, 1, 1)),
    (1, 2, 0, (3, 1), (1, 1)),
]


def test_enumerate_diagrams_matches_brute_force():
    for k, a, g, wl, wr in DIAGRAM_ORACLE_CASES:
        expected = brute_force_diagrams(k, a, g, wl, wr)
        for connected in (False, True):
            found = enumerate_diagrams(k, a, g, wl, wr, connected=connected)
            assert len(set(found)) == len(found), (k, a, g, wl, wr)
            want = {d for d in expected if not connected or d.is_connected()}
            assert set(found) == want, (k, a, g, wl, wr, connected)
            for diagram in found:
                assert count_markings(diagram, wl, wr) > 0, diagram


def test_enumerate_diagrams_sizes():
    # a looser enumeration would still count correctly, so pin its size
    assert len(enumerate_diagrams(1, 6, 0, (1,) * 6, ())) == 2754
    assert len(enumerate_diagrams(2, 3, 0, (11, 7, 1), (13,))) == 54  # ray 3, t = 3


def test_count_markings_examples():
    assert count_markings(FloorDiagram(2, 1, ((1, 2, 1),)), (1, 1), ()) == 1
    assert count_markings(FloorDiagram(1, 1, ()), (1,), ()) == 1
    d3 = {
        ((1, 2, 1), (2, 3, 1)): 5,
        ((1, 2, 1), (1, 3, 1)): 3,
        ((1, 2, 2), (2, 3, 1)): 1,
    }
    for edges, expected in d3.items():
        assert count_markings(FloorDiagram(3, 1, edges), (1, 1, 1), ()) == expected


def test_count_markings_against_brute_force():
    cases = [
        (FloorDiagram(2, 1, ((1, 2, 1),)), (1, 1), (), ()),
        (FloorDiagram(2, 1, ((1, 2, 2),)), (1, 1), (), ()),
        (FloorDiagram(3, 1, ((1, 2, 1), (1, 3, 1))), (1, 1, 1), (), ()),
        (FloorDiagram(2, 2, ((1, 2, 1),)), (1, 1, 1, 1), (), ()),
        (FloorDiagram(2, 2, ((1, 2, 1),)), (3, 1, 1), (1,), ()),
        (FloorDiagram(2, 0, ((1, 2, 1), (1, 2, 1))), (1, 1), (1, 1), ()),
        (FloorDiagram(2, 2, ((1, 2, 1), (1, 2, 1))), (1, 1, 1, 1), (), (1,)),
        (FloorDiagram(1, 2, ()), (3, 1), (1, 1), (1,)),
    ]
    for diagram, wl, wr, free in cases:
        assert count_markings(diagram, wl, wr, free) == brute_force_markings(
            diagram, wl, wr, free
        ), (diagram, wl, wr, free)


def test_count_markings_against_brute_force_randomized():
    rng = random.Random(424)
    checked = 0
    while checked < 30:
        a = rng.randint(1, 3)
        k = rng.randint(0, 2)
        n_edges = rng.randint(0, 2) if a > 1 else 0
        edges = []
        for _ in range(n_edges):
            i = rng.randint(1, a - 1)
            j = rng.randint(i + 1, a)
            edges.append((i, j, rng.randint(1, 3)))
        diagram = FloorDiagram(a, k, tuple(edges))
        n_right = rng.randint(0, 2)
        w_right = tuple(rng.randint(1, 3) for _ in range(n_right))
        need_left = a * k + sum(w_right)
        if need_left == 0 or need_left > 6:
            continue
        w_left = []
        while sum(w_left) < need_left:
            w_left.append(min(rng.randint(1, 3), need_left - sum(w_left)))
        w_left = tuple(w_left)
        free = tuple(
            w for w in set(w_left) & set(w_right) if rng.random() < 0.3
        )
        if len(diagram.edges) + len(w_left) + len(w_right) + len(free) > 7:
            continue
        fast = count_markings(diagram, w_left, w_right, free)
        slow = brute_force_markings(diagram, w_left, w_right, free)
        assert fast == slow, (diagram, w_left, w_right, free)
        checked += 1


def test_floor_vs_path_small_hirzebruch_sweep():
    for k in (0, 1, 2):
        for a in (1, 2):
            for b in (0, 1, 2):
                if b == 0 and a * k == 0:
                    continue
                polygon = hirzebruch_polygon(k, a, b)
                gmax = polygon.interior_count()
                for g in range(-1, min(gmax, 1) + 1):
                    wl, wr = (1,) * (a * k + b), (1,) * b
                    value = floor_count(k, a, wl, wr, g)
                    path = count_lattice_path(polygon, g)
                    assert gw_equal(value, path), (k, a, b, g)


def test_count_interleavings_basics():
    # two identical items in one gap: a single class
    assert count_interleavings(1, [(0, 0, 2)]) == 1
    # two distinguishable items in one gap: both orders
    assert count_interleavings(1, [(0, 0, 1), (0, 0, 1)]) == 2
    # one item over two gaps
    assert count_interleavings(2, [(0, 1, 1)]) == 2


def brute_force_interleavings(num_gaps, classes):
    """Distinct words over class labels and gap separators in which every
    letter of a class lies in one of the class's gaps."""
    letters = [idx for idx, (_, _, count) in enumerate(classes) for _ in range(count)]
    letters += [None] * (num_gaps - 1)  # None separates consecutive gaps
    found = 0
    for word in set(permutations(letters)):
        gap = 0
        for letter in word:
            if letter is None:
                gap += 1
            elif not classes[letter][0] <= gap <= classes[letter][1]:
                break
        else:
            found += 1
    return found


def test_count_interleavings_against_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        num_gaps = rng.randint(1, 4)
        classes = []
        for _ in range(rng.randint(1, 4)):
            lo = rng.randrange(num_gaps)
            classes.append((lo, rng.randint(lo, num_gaps - 1), rng.randint(0, 3)))
        while sum(count for _, _, count in classes) > 6:
            classes.pop()
        expected = brute_force_interleavings(num_gaps, classes)
        assert count_interleavings(num_gaps, classes) == expected, (num_gaps, classes)


def test_marking_size_invariant():
    # #white + #black = #ends + g - 1
    for d in (2, 3, 4):
        for g in range(0, max_genus(d) + 1):
            for diagram in enumerate_diagrams(1, d, g, (1,) * d, ()):
                n_black = len(diagram.edges) + d  # subdivision blacks + unit ends
                n_ends = 2 * d + d
                assert d + n_black == n_ends + g - 1


def test_floor_count_examples():
    assert delta_floor_count(3, 0) == hyperbolic(2) + 8 * ONE
    for d in (2, 3, 4):
        assert delta_floor_count(d, max_genus(d)) == ONE
    assert floor_count(0, 1, (1,), (1,), 0) == ONE


def test_floor_count_needs_a_floor():
    with pytest.raises(ValueError):
        floor_count(1, 0, (1,), (1,), 0)
    with pytest.raises(ValueError):
        floor_count(1, -1, (), (1,), 0)


WEIGHTED_FLOOR_CASES = [
    # (k, a, w_left, w_right, g); every case has an end weight above one
    (1, 2, (3, 1), (1, 1), 0),
    (1, 2, (2, 2), (1, 1), 0),
    (1, 2, (2, 1, 1), (1, 1), 0),
    (0, 2, (2, 1), (2, 1), 0),
    (0, 2, (3, 1), (3, 1), 1),
    (2, 2, (3, 2), (1,), 0),
    (1, 1, (2, 2), (3,), 0),
    (1, 2, (4,), (2,), 0),
    (2, 3, (7, 3, 1), (5,), 0),
    (1, 2, (5, 1), (3, 1), 0),
    (1, 1, (3,), (1, 1), 0),
    # no right ends: the gap-by-gap transfer against the per-diagram walk
    (1, 3, (3,), (), 0),
    (2, 3, (5, 1), (), 0),
    (3, 1, (3,), (), 0),
    (2, 2, (3, 1), (), 0),
    # four floors, repeated weights, classes <5> and <15>: left ends and
    # edges of one weight share a floor's pool
    (4, 3, (5, 3, 3, 1), (), 1),
    (3, 3, (5, 3, 1), (), 2),
    (2, 4, (3, 3, 1, 1), (), 1),
    (2, 4, (3, 2, 2, 1), (), 2),
]


def test_weighted_floor_counts_match_gw_reference():
    nonsquare = 0
    for k, a, wl, wr, g in WEIGHTED_FLOOR_CASES:
        value = floor_count(k, a, wl, wr, g)
        expected = ref.floor_count(k, a, wl, wr, g)
        assert gw_equal(value, expected), (k, a, wl, wr, g)
        assert value.rank == expected.rank and expected.rank > 0
        assert value.signature == expected.signature
        if expected.signature and square_free(prod(wl) * prod(wr)) != 1:
            nonsquare += 1
    assert nonsquare >= 8


def end_partitions(total, top=3):
    """The multisets of weights at most ``top`` that sum to ``total``."""
    if total == 0:
        yield ()
        return
    for w in range(min(total, top), 0, -1):
        for rest in end_partitions(total - w, w):
            yield (w,) + rest


# k <= 2, a <= 3, end weights <= 3, at most 2 right ends and 4 ends in
# all, left weight at most 5
GRID_FLOOR_CASES = [
    (k, a, wl, wr, g)
    for k in range(3)
    for a in range(1, 4)
    for n_right in range(3)
    for wr in combinations_with_replacement((1, 2, 3), n_right)
    if a * k + sum(wr) <= 5
    for wl in end_partitions(a * k + sum(wr))
    if len(wl) + len(wr) <= 4
    for g in range(-1, 3)
]

# k < 0: the right ends outweigh the left ones by a * |k|
NEGATIVE_K_CASES = [
    (-1, a, wl, wr, g)
    for a, wl, wr in [
        (2, (1,), (1, 1, 1)),
        (3, (1, 1), (1,) * 5),
        (2, (2, 1), (2, 1, 1, 1)),
    ]
    for g in range(-1, 2)
]

# many splits of both end lists into a component and the rest
MANY_SPLITS = (2, 3, (3, 2, 2, 1, 1, 1, 1), (2, 3), 0)


def test_floor_count_matches_reference_walker_on_a_grid():
    # the reference builds every diagram and walks its markings one at a time
    for k, a, wl, wr, g in WEIGHTED_FLOOR_CASES + GRID_FLOOR_CASES + NEGATIVE_K_CASES:
        value = floor_count(k, a, wl, wr, g)
        assert pair(value) == pair(ref.floor_count(k, a, wl, wr, g)), (k, a, wl, wr, g)
    with_lines = [c for c in GRID_FLOOR_CASES if set(c[2]) & set(c[3])]
    assert len(GRID_FLOOR_CASES) == 432 and len(with_lines) == 216


def test_connected_counts_match_reference_filter():
    # the exponential formula against the reference's connected diagrams
    cases = [
        (1, d, (1,) * d, (), g) for d in range(1, 6) for g in range(-1, max_genus(d) + 1)
    ]
    cases += [
        (1, 3, (3, 2, 1), (2, 1), -1),  # 0 only if lines count |W|!/prod(m_w!)
        (1, 3, (3, 2, 1), (2, 1), 0),
        (1, 3, (3, 2, 1), (2, 1), 1),
        (0, 2, (2, 1), (2, 1), 0),
        (0, 2, (3, 1), (3, 1), 1),
        (0, 3, (1, 1, 1), (1, 1, 1), 0),
        (1, 2, (2, 1, 1), (1, 1), 0),
        (2, 2, (1,) * 5, (1,), 0),
        (2, 3, (2, 2, 1, 1, 1, 1, 1, 1, 1), (2, 3), -1),
    ]
    cases += [c for c in GRID_FLOOR_CASES if set(c[2]) & set(c[3]) and c[1] < 3]
    cases += NEGATIVE_K_CASES + [MANY_SPLITS]
    for k, a, wl, wr, g in cases:
        value = floor_count(k, a, wl, wr, g, connected=True)
        expected = ref.floor_count(k, a, wl, wr, g, connected=True)
        assert pair(value) == pair(expected), (k, a, wl, wr, g)
    assert pair(floor_count(1, 3, (3, 2, 1), (2, 1), -1, connected=True)) == (0, 0)
    assert pair(delta_floor_count(4, -1, connected=True)) == (0, 0)


def test_connected_count_engine_calls(monkeypatch):
    # The exponential formula runs over line-free counts, one engine call
    # per configuration; splitting lines off inside the formula takes 712
    # calls here.
    calls = []
    for name in ("_walk", "_sweep"):
        def counted(*args, engine=getattr(floor_layer, name)):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(floor_layer, name, counted)
    floor_count(*MANY_SPLITS, connected=True)
    assert 0 < len(calls) < 100


def test_sweep_takes_calls(monkeypatch):
    # One _takes call per transfer state and floor or gap.  The left ends
    # share the edges' pool, so states that differ only in how a floor's
    # pool splits into left ends and edges are one; with left ends apart
    # these take 2,515 and 545 calls.
    calls = []

    def counted(*args, takes=floor_layer._takes):
        calls.append(args)
        return takes(*args)

    monkeypatch.setattr(floor_layer, "_takes", counted)
    for args, expected in [
        ((1, 7, (1,) * 7, (), 5), 1331),
        ((2, 4, (3, 2, 2, 1), (), 2), 330),
    ]:
        calls.clear()
        floor_count(*args)
        assert len(calls) == expected, args


def test_walk_spread_table_calls(monkeypatch):
    # one spread table per sorted class list of one count: the vertex orders
    # ignore the edge weights.  One table per edge tuple and attachment takes
    # 54 calls.
    calls = []

    def counted(*args, spread_table=floor_layer._spread_table):
        calls.append(args)
        return spread_table(*args)

    monkeypatch.setattr(floor_layer, "_spread_table", counted)
    hirzebruch_count(2, 3, 0, (11, 7, 1), (13,))  # ray 3 at t = 3
    assert len(calls) == 30


def test_connected_rational_curves_are_kontsevich_and_welschinger():
    kontsevich = (1, 1, 12, 620, 87304, 26312976, 14616808192)
    welschinger = (1, 1, 8, 240, 18264, 2845440, 792731520)
    for d in range(1, 8):
        value = delta_floor_count(d, 0, connected=True)
        assert pair(value) == (kontsevich[d - 1], welschinger[d - 1]), d


def walker_pair(k, a, w_left, g):
    """(rank, signature) of the count, one diagram and its markings at a time."""
    rank = signature = 0
    for diagram in enumerate_diagrams(k, a, g, w_left, ()):
        nu = count_markings(diagram, w_left, ())
        r, s = marked_mult(diagram, w_left, ())
        rank += nu * r
        signature += nu * s
    return rank, signature


def test_transfer_matches_walker_on_plane_curves():
    cases = [(d, g) for d in range(1, 6) for g in range(-2, max_genus(d) + 1)]
    cases += [(6, max_genus(6) - delta) for delta in range(5)]
    for d, g in cases:
        assert pair(delta_floor_count(d, g)) == walker_pair(1, d, (1,) * d, g), (d, g)


def test_severi_count_without_the_per_diagram_cliff():
    # one diagram at a time, (8, 8) took over a minute; the transfer takes
    # well under a second
    for delta in (6, 8):
        expected = ch_count(8, max_genus(8) - delta)
        assert gw_equal(severi_count(8, delta), expected), delta


def test_floor_count_errors_without_right_ends():
    with pytest.raises(ValueError, match="sum"):
        floor_count(1, 2, (1,), (), 0)
    with pytest.raises(ValueError, match="floor"):
        floor_count(1, 0, (), (), 0)
    with pytest.raises(ValueError, match="positive"):
        floor_count(1, 2, (3, -1), (), 0)


def test_relative_recursion_matches_floor_count():
    # free left ends beta on both sides: a second pipeline for the
    # non-square classes of the relative recursion
    values = nonsquare = 0
    for d in range(1, 6):
        for beta in weighted_partitions(d):
            ends = tuple(w for w, n in enumerate(beta, start=1) for _ in range(n))
            for g in range(-2, max_genus(d) + 1):
                value = ch_count(d, g, (), beta)
                assert gw_equal(value, floor_count(1, d, ends, (), g)), (d, beta, g)
                values += 1
                nonsquare += any(abs(r) != 1 for r, _ in value.terms)
    assert values == 114
    assert nonsquare > 0


def test_floor_against_lattice_path_and_recursion():
    for d in (2, 3, 4):
        for g in range(-1, max_genus(d) + 1):
            value = delta_floor_count(d, g)
            assert gw_equal(value, count_lattice_path(delta_polygon(d), g)), (d, g)
            assert gw_equal(value, ch_count(d, g)), (d, g)


def test_floor_count_hirzebruch_with_free_lines():
    # bidegree (2,1) on the k=2 surface needs horizontal line components
    value = floor_count(2, 2, (1,) * 5, (1,), 0)
    path = count_lattice_path(hirzebruch_polygon(2, 2, 1), 0)
    assert gw_equal(value, path)
    assert value.rank == 102
    # the smooth (2,2) curve on the quadric surface
    assert floor_count(0, 2, (1, 1), (1, 1), 1) == ONE


def test_connected_flag():
    full = delta_floor_count(4, 0)
    connected = delta_floor_count(4, 0, connected=True)
    assert full.rank == 675
    assert connected.rank == 620
    assert delta_floor_count(3, 0, connected=True) == delta_floor_count(3, 0)


def test_severi_examples():
    for d in (1, 2, 3, 4, 5, 6):
        assert severi_count(d, 0) == ONE
    for d in (2, 3, 4, 5):
        value = severi_count(d, 1)
        assert value == hyperbolic((d - 1) * (d - 2)) + (d * d - 1) * ONE
    value = severi_count(4, 2)
    assert value.rank == 2 * 66 + 93 and value.signature == 93


def test_severi_rank_known_values():
    assert severi_count(4, 3).rank == 675
    assert [severi_count(d, 1).rank for d in (3, 4, 5)] == [12, 27, 48]
    for d in range(3, 9):
        assert severi_count(d, 1).rank == 3 * (d - 1) ** 2
        assert severi_count(d, 2).rank == (
            3 * (3 * d**4 - 12 * d**3 + 4 * d**2 + 27 * d - 22) // 2
        )


def test_severi_matches_recursion_at_degree_five():
    assert gw_equal(severi_count(5, max_genus(5)), ch_count(5, 0))


def test_severi_and_floor_counts_match_recursion_and_templates():
    for d in range(1, 7):
        for delta in range(4):
            g = max_genus(d) - delta
            expected = ch_count(d, g)
            assert gw_equal(expected, severi_by_templates(d, delta)), (d, delta)
            assert gw_equal(severi_count(d, delta), expected), (d, delta)
            assert gw_equal(delta_floor_count(d, g), expected), (d, delta)


def test_hirzebruch_count_shape():
    value = hirzebruch_count(1, 2, 0, (3, 1), (1, 1))
    n, rest = hyperbolic_decomposition(value)
    assert set(r for r, _ in rest.terms) <= {3, -3}
    with pytest.raises(ValueError):
        hirzebruch_count(1, 2, 0, (2, 2), (1, 1))


def floor_decomposed_subdivision(diagram, left_ends):
    """Dual subdivision of a floor-decomposed degree-d curve.

    ``left_ends[v]`` lists the left end weights attached to floor v+1.
    Horizontal edges occupy stacked height intervals on every column they
    cross (in a fixed global order); a floor cell is a triangle where an
    edge terminates or starts and a parallelogram where it passes through.
    """
    d = diagram.floors
    items = []  # (global key, start floor, end floor, weight); left end: start 0
    for copy, (i, j, w) in enumerate(diagram.edges):
        items.append(((i, j, w, copy), i, j, w))
    for v, weights in enumerate(left_ends, start=1):
        for copy, w in enumerate(weights):
            items.append(((0, v, w, 100 + copy), 0, v, w))
    items.sort()
    triangles, parallelograms = [], []
    for v in range(1, d + 1):
        yl = yr = 0
        for _, i, j, w in items:
            crosses_left, crosses_right = i < v <= j, i <= v < j
            if not (crosses_left or crosses_right):
                continue
            if crosses_left and not crosses_right:  # terminates at floor v
                triangles.append(((v - 1, yl), (v - 1, yl + w), (v, yr)))
                yl += w
            elif crosses_right and not crosses_left:  # starts at floor v
                triangles.append(((v - 1, yl), (v, yr + w), (v, yr)))
                yr += w
            else:  # passes through
                parallelograms.append(((v - 1, yl), (v - 1, yl + w), (v, yr + w)))
                yl += w
                yr += w
        assert (yl, yr) == (d - v + 1, d - v)
    return DualSubdivision(tuple(triangles), tuple(parallelograms))


def test_marked_mult_matches_curve_mult_on_all_small_diagrams():
    for d in (1, 2, 3):
        gmax = max_genus(d)
        w_left = (1,) * d
        for g in range(-1, gmax + 1):
            for diagram in enumerate_diagrams(1, d, g, w_left, ()):
                for left, _right in balanced_attachments(diagram, w_left, ()):
                    sub = floor_decomposed_subdivision(diagram, left)
                    polygon = delta_polygon(d)
                    assert ref.piece_area2(sub) == polygon.area2
                    ends = ref.boundary_end_weights(sub, polygon)
                    assert sorted(ends) == [1] * (3 * d)
                    curve = SimpleCurve(sub, ends)
                    value = gw_from_pair(marked_mult(diagram, w_left, ()), w_left)
                    assert gw_equal(arith_mult(curve), value), diagram
                    assert complex_mult(curve) == value.rank
                    assert real_mult(curve) == value.signature


def test_marked_mult_matches_curve_mult_with_heavier_edges():
    # degree 4, one weight-2 and one weight-3 configuration
    cases = [
        FloorDiagram(4, 1, ((1, 2, 2), (2, 3, 1), (3, 4, 1))),
        FloorDiagram(4, 1, ((1, 2, 3), (2, 3, 2), (3, 4, 1))),
        FloorDiagram(4, 1, ((1, 3, 2), (2, 3, 1), (3, 4, 1))),
    ]
    for diagram in cases:
        w_left = (1,) * 4
        for left, _right in balanced_attachments(diagram, w_left, ()):
            sub = floor_decomposed_subdivision(diagram, left)
            polygon = delta_polygon(4)
            assert ref.piece_area2(sub) == polygon.area2
            curve = SimpleCurve(sub, ref.boundary_end_weights(sub, polygon))
            value = gw_from_pair(marked_mult(diagram, w_left, ()), w_left)
            assert gw_equal(arith_mult(curve), value), diagram
            assert complex_mult(curve) == value.rank
            assert real_mult(curve) == value.signature


def test_rank_signature_specializations():
    for d in (3, 4):
        for g in (0, 1):
            value = delta_floor_count(d, g)
            expected = ref.delta_floor_count(d, g)
            assert gw_equal(value, expected), (d, g)
            assert value.rank == expected.rank
            assert value.signature == expected.signature
    for d, delta in ((4, 2), (5, 1), (6, 2)):
        value = severi_count(d, delta)
        expected = ref.severi_count(d, delta)
        assert gw_equal(value, expected), (d, delta)
        assert value.rank == expected.rank
        assert value.signature == expected.signature
