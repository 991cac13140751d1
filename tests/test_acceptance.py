"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time

import gw_reference as ref
from test_gw import local_solvable

from tropgw.ch import ch_count, max_genus
from tropgw.curves import random_star, resolve_wall
from tropgw.floors import delta_floor_count, hirzebruch_count, severi_count
from tropgw.gw import (
    ONE,
    REAL_PLACE,
    diag,
    gw_equal,
    hilbert_symbol,
    hyperbolic,
    hyperbolic_decomposition,
    render,
    square_free,
)
from tropgw.lattice import delta_polygon
from tropgw.paths import count_lattice_path
from tropgw.templates import (
    fit_node_polynomial,
    poly_degree,
    poly_eval,
    poly_interpolate,
    severi_by_templates,
)


def report(name: str, detail: str = ""):
    print(f"{name} PASS {detail}".rstrip())


def test_criterion_1_rational_cubics():
    start = time.monotonic()
    expected = hyperbolic(2) + 8 * ONE
    values = {
        "latticepath": count_lattice_path(delta_polygon(3), 0),
        "ch": ch_count(3, 0),
        "floor": delta_floor_count(3, 0),
    }
    for method, value in values.items():
        assert gw_equal(value, expected), method
        assert value.rank == 12 and value.signature == 8
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report("criterion 1", f"(three methods give 2H + 8<1>, {elapsed:.2f}s)")


def test_criterion_2_smooth_and_one_node_counts():
    start = time.monotonic()
    for d in range(2, 7):
        gmax = max_genus(d)
        smooth = count_lattice_path(delta_polygon(d), gmax)
        assert smooth == ONE, d
        one_node = count_lattice_path(delta_polygon(d), gmax - 1)
        expected = hyperbolic((d - 1) * (d - 2)) + (d * d - 1) * ONE
        assert gw_equal(one_node, expected), d
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report("criterion 2", f"(smooth/one-node counts for d=2..6, {elapsed:.2f}s)")


def test_criterion_3_node_counts_closed_forms():
    start = time.monotonic()
    for d in range(1, 9):
        for delta in (0, 1, 2):
            if d < delta:
                continue
            p = {
                0: 0,
                1: (d - 1) * (d - 2),
                2: 2 * d**4 - 9 * d**3 + 4 * d**2 + 21 * d - 18,
            }[delta]
            q2 = {0: 2, 1: 2 * (d * d - 1), 2: d**4 - 4 * d**2 - 3 * d + 6}[delta]
            assert q2 % 2 == 0
            expected = hyperbolic(p) + (q2 // 2) * ONE
            assert gw_equal(severi_count(d, delta), expected), (d, delta, "diagrams")
            assert gw_equal(severi_by_templates(d, delta), expected), (
                d,
                delta,
                "templates",
            )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    report("criterion 3", f"(node counts delta<=2 up to d=8, both pipelines, {elapsed:.1f}s)")


def test_criterion_4_node_polynomial_fit():
    for delta in (0, 1, 2, 3):
        fit = fit_node_polynomial(delta, n_holdout=3)
        if delta == 0:
            assert fit.hyperbolic_coeffs == (0,) or poly_degree(
                fit.hyperbolic_coeffs
            ) == -1
        else:
            assert poly_degree(fit.hyperbolic_coeffs) == 2 * delta
        assert poly_degree(fit.unit_coeffs) == (2 * delta if delta else 0)
    report("criterion 4", "(degree-2*delta fits, three held-out degrees, delta<=3)")


def test_criterion_5_cross_method_agreement():
    for d in range(2, 5):
        for g in range(0, max_genus(d) + 1):
            polygon = delta_polygon(d)
            base = count_lattice_path(polygon, g)
            assert gw_equal(base, ch_count(d, g)), (d, g, "ch")
            assert gw_equal(base, delta_floor_count(d, g)), (d, g, "floor")
            flipped = count_lattice_path(polygon, g, tie_break="yasc")
            assert gw_equal(base, flipped), (d, g, "flip")
    report("criterion 5", "(three methods + tie flip agree, d<=4, all g)")


def test_criterion_6_wall_crossing_suite():
    rng = random.Random(20260810)
    checked = skipped = 0
    while checked < 1000:
        star = random_star(rng)
        if star is None:
            skipped += 1
            continue
        left, right_sum = resolve_wall(star)
        assert gw_equal(left, right_sum), star
        checked += 1
    report("criterion 6", f"(1000 wall crossings, {skipped} degenerate draws skipped)")


def test_criterion_7_gw_ring_suite():
    rng = random.Random(97)
    checked = 0
    while checked < 10_000:
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 or b == 0 or a + b == 0:
            continue
        assert gw_equal(diag(a, b), diag(a + b, a * b * (a + b)))
        assert gw_equal(diag(a, -a), hyperbolic(1))
        checked += 1
    places = (2, 3, 5, 7, 11, 13, REAL_PLACE)
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(-30, 31):
            if b == 0:
                continue
            for p in places:
                assert (hilbert_symbol(a, b, p) == 1) == local_solvable(a, b, p)
    report("criterion 7", "(10^4 relation checks, full local solvability grid)")


def test_criterion_8_rank_signature_consistency():
    # each pipeline against the GW-valued reference evaluation in tests/
    jobs = []
    for d in range(2, 5):
        for g in range(0, max_genus(d) + 1):
            jobs.append(
                (
                    f"latticepath d={d} g={g}",
                    count_lattice_path(delta_polygon(d), g),
                    ref.count_lattice_path(delta_polygon(d), g),
                )
            )
    for d in range(2, 6):
        for g in range(0, max_genus(d) + 1):
            jobs.append((f"ch d={d} g={g}", ch_count(d, g), ref.ch_count(d, g)))
    for d in range(2, 5):
        for g in range(0, max_genus(d) + 1):
            jobs.append(
                (f"floor d={d} g={g}", delta_floor_count(d, g), ref.delta_floor_count(d, g))
            )
    for d in range(2, 7):
        for delta in (0, 1, 2):
            jobs.append(
                (
                    f"severi d={d} delta={delta}",
                    severi_count(d, delta),
                    ref.severi_count(d, delta),
                )
            )
    for d in range(2, 9):
        for delta in (1, 2):
            jobs.append(
                (
                    f"templates d={d} delta={delta}",
                    severi_by_templates(d, delta),
                    ref.severi_by_templates(d, delta),
                )
            )
    for label, value, expected in jobs:
        assert gw_equal(value, expected), label
        assert value.rank == expected.rank, label
        assert value.signature == expected.signature, label
    report("criterion 8", f"({len(jobs)} enumerations, rank and signature exact)")


RAYS = [
    # (k, a, g, weights(t), first chamber t, last sample t)
    (1, 2, 0, lambda t: ((2 * t + 3, 1), (2 * t + 1, 1)), 2, 11),
    (0, 2, 1, lambda t: ((2 * t + 3, 2 * t + 1), (2 * t + 3, 2 * t + 1)), 2, 15),
    (2, 3, 0, lambda t: ((2 * t + 5, 2 * t + 1, 1), (4 * t + 1,)), 3, 14),
]


def test_criterion_9_hirzebruch_piecewise_polynomiality():
    for k, a, g, make_weights, t_first, t_last in RAYS:
        samples = []
        for t in range(t_first, t_last + 1):
            w_left, w_right = make_weights(t)
            value = hirzebruch_count(k, a, g, w_left, w_right)
            n_hyp, rest = hyperbolic_decomposition(value)
            cls = square_free(math.prod(w_left) * math.prod(w_right))
            assert all(r in (cls, -cls) for r, _ in rest.terms), (k, a, g, t)
            assert all(m >= 0 for _, m in rest.terms)
            samples.append((t, n_hyp))
        fitted = None
        for degree in range(len(samples) - 2):
            coeffs = poly_interpolate(samples[: degree + 1])
            if all(poly_eval(coeffs, t) == v for t, v in samples):
                fitted = coeffs
                break
        assert fitted is not None, (k, a, g)
        held_out = len(samples) - (poly_degree(fitted) + 1)
        assert held_out >= 2, (k, a, g)
    report(
        "criterion 9",
        "(H-coefficients polynomial along 3 odd rays, shape <+-prod w>)",
    )
