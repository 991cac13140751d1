from collections import Counter
from fractions import Fraction
from math import ceil

import pytest

import gw_reference as ref
from tropgw import templates as template_layer
from tropgw.floors import severi_count
from tropgw.gw import ONE, gw_equal, hyperbolic, render
from tropgw.templates import (
    FitError,
    fit_node_polynomial,
    poly_degree,
    poly_eval,
    poly_interpolate,
    poly_str,
    severi_by_templates,
    severi_by_templates_range,
)


def brute_force_templates(delta, max_length=3, max_weight=3):
    """Independent generator: filter all small weighted graphs."""
    found = set()

    def edges_universe(length):
        return [
            (i, j, w)
            for i in range(length)
            for j in range(i + 1, length + 1)
            for w in range(1, max_weight + 1)
        ]

    def multisets(universe, max_size):
        if max_size == 0:
            yield ()
            return
        for idx, e in enumerate(universe):
            for rest in multisets(universe[idx:], max_size - 1):
                yield (e,) + rest
        yield ()

    for length in range(1, max_length + 1):
        for edges in multisets(edges_universe(length), delta):
            if not edges:
                continue
            try:
                t = ref.Template(length, edges)
            except ValueError:
                continue
            if t.cogenus <= delta:
                found.add(t)
    return found


def test_cogenus_examples():
    assert ref.Template(1, ((0, 1, 2),)).cogenus == 1
    assert ref.Template(2, ((0, 2, 1),)).cogenus == 1
    assert ref.Template(1, ((0, 1, 2), (0, 1, 2))).cogenus == 2


def test_template_validation():
    with pytest.raises(ValueError):
        ref.Template(1, ((0, 1, 1),))  # short edge
    with pytest.raises(ValueError):
        ref.Template(2, ((0, 1, 2),))  # right endpoint bare
    with pytest.raises(ValueError):
        ref.Template(3, ((0, 1, 2), (2, 3, 2)))  # gap at vertex 2


def test_enumerate_templates_delta1():
    ts = ref.enumerate_templates(1)
    assert {(t.length, t.edges) for t in ts} == {
        (1, ((0, 1, 2),)),
        (2, ((0, 2, 1),)),
    }
    assert all(
        not any(j - i == 1 and w == 1 for i, j, w in t.edges)
        for t in ref.enumerate_templates(3)
    )


def test_enumerate_templates_against_brute_force():
    for delta in (1, 2):
        fast = set(ref.enumerate_templates(delta))
        slow = brute_force_templates(delta)
        assert fast == slow, delta
    assert sum(1 for t in ref.enumerate_templates(2) if t.cogenus == 2) == 7


def test_placement_data():
    for d in (4, 5, 7):
        t = ref.Template(1, ((0, 1, 2),))
        k_min, k_max, nu = ref.template_placement_data(t, d)
        assert (k_min, k_max) == (1, d - 2)
        assert nu(k_max) == 1  # no parallel weight-1 edges in the last slot
        assert [nu(k) for k in range(k_min, k_max + 1)] == list(
            range(d - 2, 0, -1)
        )
    t = ref.Template(2, ((0, 2, 1),))
    k_min, k_max, nu = ref.template_placement_data(t, 5)
    assert (k_min, k_max) == (0, 3)
    # black vertex interleaves with the bypassed floor and parallel edges
    assert [nu(k) for k in range(0, 4)] == [9, 7, 5, 3]


def test_severi_by_templates_matches_diagram_pipeline():
    for d in range(1, 8):
        for delta in (0, 1, 2):
            a = severi_by_templates(d, delta)
            b = severi_count(d, delta)
            assert gw_equal(a, b), (d, delta, render(a), render(b))


def test_node_count_closed_forms():
    for d in range(1, 9):
        assert severi_by_templates(d, 0) == ONE
        one_node = severi_by_templates(d, 1)
        assert gw_equal(
            one_node, hyperbolic((d - 1) * (d - 2)) + (d * d - 1) * ONE
        )
    for d in range(2, 9):
        two_node = severi_by_templates(d, 2)
        p = 2 * d**4 - 9 * d**3 + 4 * d**2 + 21 * d - 18
        q = (d**4 - 4 * d**2 - 3 * d + 6) // 2
        assert gw_equal(two_node, hyperbolic(p) + q * ONE), d


def test_shape_is_hyperbolic_plus_units():
    for d, delta in ((5, 2), (6, 3)):
        value = severi_by_templates(d, delta)
        assert value.signature >= 0
        assert gw_equal(
            value,
            hyperbolic((value.rank - value.signature) // 2)
            + value.signature * ONE,
        )


def test_rank_specialization():
    for d in range(2, 11):
        assert severi_by_templates(d, 1).rank == 3 * (d - 1) ** 2
    assert severi_by_templates(9, 2).rank == severi_count(9, 2).rank
    for d in range(1, 8):
        for delta in (1, 2, 3):
            value = severi_by_templates(d, delta)
            expected = ref.severi_by_templates(d, delta)
            assert gw_equal(value, expected), (d, delta)
            assert value.rank == expected.rank
            assert value.signature == expected.signature


def test_rows_match_reference_interleavings():
    # The transfer's rows against rows summed template by template over the
    # reference enumeration, each template's orderings counted by the
    # reference's gap-by-gap interleavings, with the short edges of gap v as
    # one class of its own.
    checked = 0
    for delta in range(5):
        top = 3 * delta + 3
        expected = {}
        for t in ref.enumerate_templates(delta):
            mult = ref.template_mult(t) * ref.template_mult(t)
            classes = [(i, j - 1, n) for (i, j, _), n in Counter(t.edges).items()]
            crossings = [
                sum(w for i, j, w in t.edges if i <= v < j) for v in range(t.length)
            ]
            m_min = max(v + c for v, c in enumerate(crossings))
            assert m_min + 3 <= top, t
            orderings = [0] * m_min
            for m in range(m_min, top + 1):
                shorts = [(v, v, m - v - c) for v, c in enumerate(crossings)]
                orderings.append(ref.count_interleavings(t.length, classes + shorts))
                checked += 1
            key = (t.cogenus, t.length, any(i == 0 and w > 1 for i, _, w in t.edges))
            ranks, signatures = expected.get(key, ([0] * (top + 1), [0] * (top + 1)))
            expected[key] = (
                [r + n * mult.rank for r, n in zip(ranks, orderings)],
                [s + n * mult.signature for s, n in zip(signatures, orderings)],
            )
        assert template_layer._rows(delta, top) == expected, delta
    assert checked == 1920


def test_rows_orders_calls(monkeypatch):
    # One _orders call per gap, open classes after its vertex and choice of
    # their placements, whichever states share those classes.
    calls = []

    def counted(sizes, orders=template_layer._orders):
        calls.append(sizes)
        return orders(sizes)

    monkeypatch.setattr(template_layer, "_orders", counted)
    fit_node_polynomial(5)
    assert len(calls) == 1200


def test_four_nodes_match_reference():
    # the transfer against the reference's walk over template sequences
    for d in range(4, 9):
        value = severi_by_templates(d, 4)
        expected = ref.severi_by_templates(d, 4)
        assert value.rank == expected.rank, d
        assert value.signature == expected.signature, d


def test_degree_range_matches_single_degrees():
    for delta in range(4):
        counts = severi_by_templates_range(range(1, 13), delta)
        assert list(counts) == list(range(1, 13))
        for d, value in counts.items():
            single = severi_by_templates(d, delta)
            assert (value.rank, value.signature) == (single.rank, single.signature)
            assert value == single, (d, delta)
    assert severi_by_templates_range((), 2) == {}
    for bad in ((0, 3), (-1,)):
        with pytest.raises(ValueError):
            severi_by_templates_range(bad, 2)
    with pytest.raises(ValueError):
        severi_by_templates_range((3,), -1)
    with pytest.raises(ValueError):
        severi_by_templates(0, 1)


def test_poly_interpolation():
    pts = [(x, x**3 - 2 * x + 1) for x in range(5)]
    coeffs = poly_interpolate(pts)
    assert coeffs == (Fraction(1), Fraction(-2), Fraction(0), Fraction(1))
    assert poly_eval(coeffs, 10) == 981
    assert poly_degree(coeffs) == 3
    assert poly_str(coeffs) == "d^3 - 2d + 1"
    assert poly_degree(poly_interpolate([(0, 0), (1, 0)])) == -1


def test_fit_node_polynomial_examples():
    fit0 = fit_node_polynomial(0)
    assert fit0.hyperbolic_coeffs == (Fraction(0),)
    assert fit0.unit_coeffs == (Fraction(1),)

    fit1 = fit_node_polynomial(1)
    assert poly_str(fit1.hyperbolic_coeffs) == "d^2 - 3d + 2"
    assert poly_str(fit1.unit_coeffs) == "d^2 - 1"
    assert fit1.threshold <= 1

    fit2 = fit_node_polynomial(2)
    assert fit2.hyperbolic_coeffs == (
        Fraction(-18),
        Fraction(21),
        Fraction(4),
        Fraction(-9),
        Fraction(2),
    )
    assert fit2.unit_coeffs == (
        Fraction(3),
        Fraction(-3, 2),
        Fraction(-2),
        Fraction(0),
        Fraction(1, 2),
    )
    assert fit2.threshold <= 2

    fit3 = fit_node_polynomial(3)
    assert fit3.hyperbolic_coeffs == (
        Fraction(270),
        Fraction(-214),
        Fraction(-697, 6),
        Fraction(213, 2),
        Fraction(3),
        Fraction(-27, 2),
        Fraction(13, 6),
    )
    assert fit3.unit_coeffs == (
        Fraction(-15),
        Fraction(27, 2),
        Fraction(10, 3),
        Fraction(-3, 2),
        Fraction(-3, 2),
        Fraction(0),
        Fraction(1, 6),
    )
    assert fit3.threshold == 3


def test_fit_threshold_is_fomin_mikhalkin():
    # The counts follow the polynomials from d = ceil(delta / 2) + 1 on, in
    # both the H part and the <1> part, and not from one degree lower.
    for delta in range(3, 9):
        assert fit_node_polynomial(delta).threshold == ceil(delta / 2) + 1, delta


def test_fit_rejects_negative_arguments():
    with pytest.raises(ValueError):
        fit_node_polynomial(1, n_holdout=-1)
    with pytest.raises(ValueError):
        fit_node_polynomial(-1)


def test_fit_degree_check():
    fit3 = fit_node_polynomial(3, n_holdout=3)
    assert poly_degree(fit3.hyperbolic_coeffs) == 6
    assert poly_degree(fit3.unit_coeffs) == 6
    # rank specialization reproduces the classical three-node polynomial
    two_p_plus_q = [
        2 * poly_eval(fit3.hyperbolic_coeffs, d) + poly_eval(fit3.unit_coeffs, d)
        for d in range(4, 10)
    ]
    classical = [
        Fraction(9, 2) * d**6
        - 27 * d**5
        + Fraction(9, 2) * d**4
        + Fraction(423, 2) * d**3
        - 229 * d**2
        - Fraction(829, 2) * d
        + 525
        for d in range(4, 10)
    ]
    assert two_p_plus_q == classical
