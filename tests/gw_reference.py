"""GW(Q)-valued reference evaluators for the counting pipelines.

The package evaluates every count on (rank, signature) pairs and builds
the GW(Q) element once at the end.  These evaluators compute the same
counts directly in the Grothendieck-Witt ring, with the factor formulas of
``curves.triangle_mult``, so that the tests compare two independently
computed values.  They reuse the package's enumerators (paths, diagrams,
markings, templates and their placements) but none of its value code.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product as cartesian

from tropgw.ch import (
    _seq_add,
    max_genus,
    seq_binom,
    seq_stats,
    trim,
    weighted_partitions,
)
from tropgw.curves import triangle_mult
from tropgw.floors import count_markings, enumerate_diagrams
from tropgw.gw import ONE, ZERO, GWElement
from tropgw.lattice import interior_points, lattice_length, normalized_area
from tropgw.paths import (
    NEGATIVE,
    POSITIVE,
    _cross,
    _iter_paths,
    _make_context,
    lambda_key,
)
from tropgw.templates import enumerate_templates, template_placement_data


def edge_factor(w: int) -> GWElement:
    """Weight of a vertex whose dual triangle has sides (w, 1, 1) and area w."""
    return triangle_mult(w, (w, 1, 1), 0)


def product(factors) -> GWElement:
    out = ONE
    for f in factors:
        out = out * f
    return out


# -- Caporaso-Harris recursion ---------------------------------------------

_ch_memo: dict = {}


def ch_count(d: int, g: int, alpha=(), beta=None) -> GWElement:
    alpha = trim(alpha)
    beta = trim(beta) if beta is not None else (d,)
    assert seq_stats(alpha)[1] + seq_stats(beta)[1] == d
    return _ch(d, g, alpha, beta)


def _ch(d, g, alpha, beta) -> GWElement:
    if d == 1:
        return ONE if g == 0 else ZERO
    if g > max_genus(d) or 2 * d + g + sum(beta) - 1 < 0:
        return ZERO
    key = (d, g, alpha, beta)
    if key in _ch_memo:
        return _ch_memo[key]
    total = ZERO
    for k, bk in enumerate(beta, start=1):
        if bk > 0:
            total = total + edge_factor(k) * _ch(
                d, g, _seq_add(alpha, k, 1), _seq_add(beta, k, -1)
            )
    for alpha_p in map(trim, cartesian(*(range(n + 1) for n in alpha))):
        target = d - 1 - seq_stats(alpha_p)[1] - seq_stats(beta)[1]
        if target < 0:
            continue
        for gamma in weighted_partitions(target):
            size = max(len(beta), len(gamma))
            beta_p = trim(
                (beta + (0,) * size)[i] + (gamma + (0,) * size)[i] for i in range(size)
            )
            size_gamma, _, prod_gamma = seq_stats(gamma)
            if size_gamma - 1 > d - 2:
                continue
            coeff = seq_binom(alpha, alpha_p) * seq_binom(beta_p, beta)
            if coeff:
                total = total + coeff * edge_factor(prod_gamma) * _ch(
                    d - 1, g - size_gamma + 1, alpha_p, beta_p
                )
    _ch_memo[key] = total
    return total


# -- lattice paths ---------------------------------------------------------


def _triangle(a, b, c) -> GWElement:
    lengths = (lattice_length(a, b), lattice_length(b, c), lattice_length(c, a))
    return triangle_mult(normalized_area(a, b, c), lengths, interior_points(a, b, c))


def _side(path, side, ctx, memo) -> GWElement:
    key = (path, side)
    if key in memo:
        return memo[key]
    want_left = side == NEGATIVE
    value = ONE if path == ctx.chains[side] else ZERO
    for j in range(1, len(path) - 1):
        cr = _cross(path[j - 1], path[j], path[j + 1])
        if (cr > 0) if want_left else (cr < 0):
            a, b, c = path[j - 1], path[j], path[j + 1]
            value = _triangle(a, b, c) * _side(path[:j] + path[j + 1:], side, ctx, memo)
            reflected = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
            if ctx.polygon.contains(reflected):
                shifted = path[:j] + (reflected,) + path[j + 1:]
                value = value + _side(shifted, side, ctx, memo)
            break
    memo[key] = value
    return value


def path_mult(path, polygon, side, tie_break="ydesc") -> GWElement:
    path = tuple(tuple(p) for p in path)
    return _side(path, side, _make_context(polygon, tie_break), {})


def count_lattice_path(polygon, g, tie_break="ydesc") -> GWElement:
    ctx, memo = _make_context(polygon, tie_break), {}
    points = sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))
    total = ZERO
    for path in _iter_paths(points, polygon.num_boundary_points() + g - 1):
        pos, neg = _side(path, POSITIVE, ctx, memo), _side(path, NEGATIVE, ctx, memo)
        total = total + pos * neg
    return total


# -- floor diagrams and templates ------------------------------------------


def marked_mult(diagram, w_left, w_right) -> GWElement:
    bounded = [edge_factor(w) for _, _, w in diagram.edges]
    ends = [edge_factor(w) for w in tuple(w_left) + tuple(w_right)]
    return product(bounded + bounded + ends)


def _without(weights, removed) -> tuple[int, ...]:
    return tuple((Counter(weights) - Counter(removed)).elements())


def floor_count(k, a, w_left, w_right, g) -> GWElement:
    total = ZERO
    shared = sorted((Counter(w_left) & Counter(w_right)).elements())
    lines = {c for n in range(len(shared) + 1) for c in combinations(shared, n)}
    for free in lines:  # the weights of the bare horizontal line components
        wl, wr = _without(w_left, free), _without(w_right, free)
        for diagram in enumerate_diagrams(k, a, g + len(free), wl, wr):
            nu = count_markings(diagram, wl, wr, free)
            total = total + nu * marked_mult(diagram, wl, wr)
    return total


def delta_floor_count(d, g) -> GWElement:
    return floor_count(1, d, (1,) * d, (), g)


def severi_count(d, delta) -> GWElement:
    return delta_floor_count(d, max_genus(d) - delta)


def template_mult(t) -> GWElement:
    return product(edge_factor(w) for _, _, w in t.edges)


def severi_by_templates(d, delta) -> GWElement:
    templates = enumerate_templates(delta)
    placements = {t: template_placement_data(t, d) for t in templates}

    def sequences(remaining):
        if remaining == 0:
            yield ()
        for t in templates:
            if t.cogenus <= remaining:
                for rest in sequences(remaining - t.cogenus):
                    yield (t,) + rest

    def place(seq, k_start):
        if not seq:
            return 1
        k_min, k_max, nu = placements[seq[0]]
        return sum(
            nu(k) * place(seq[1:], k + seq[0].length)
            for k in range(max(k_start, k_min), k_max + 1)
        )

    total = ZERO
    for seq in sequences(delta):
        mult = product(template_mult(t) * template_mult(t) for t in seq)
        total = total + place(seq, 0) * mult
    return total
