"""Template decomposition of degree-d floor diagrams and node polynomials.

A template is a gap-free weighted graph block on vertices 0..l: no edge
i -> i+1 of weight 1, and every inner vertex is bypassed by some edge.
Deleting all weight-1 consecutive edges from a diagram (with its left ends
merged into an extra vertex 0 of full out-degree d) decomposes it into
templates with start positions k; summing per-template data over valid
positions reproduces the node counts

    N^delta(d) = sum over template sequences with total cogenus delta.

Per placement the template contributes its squared edge factors and the
number of orderings of its black vertices against the parallel weight-1
edges inside its span.  Gap v of a template at position k carries
m - v - c_v such short edges, m = d - k and c_v the template's own weight
across the gap, so that number depends on m alone.  No template is
built: one transfer over the vertices gives, for every m at once, the sum
over the templates of one (cogenus, length) as one row (``_rows``), and
the counts run as a second transfer over (m, cogenus left), shared by
every degree.  The sums run on exact (rank, signature) pairs, multiplied
componentwise; every end has weight one, so the count is p*H + q*<1>.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

from .floors import _orders, edge_mult
from .gw import GWElement, gw_from_pair


def _vertex_edges(delta: int) -> list:
    """Every multiset of out-edges that one vertex can take within cogenus
    delta, the empty one first: (edges, cost, far, heavy, rank, signature).
    ``edges`` lists (s, w, n), n edges of weight w to the vertex s places
    on, each costing s*w - 1 (the short edge s = w = 1 is no template
    edge).  far is the largest s, heavy tells whether some w > 1, and rank
    and signature are the product of the squared edge factors."""
    options = [((), 0, 0, False, 1, 1)]
    for s in range(1, delta + 2):
        for w in range(2 if s == 1 else 1, (delta + 1) // s + 1):
            cost, (r, g) = s * w - 1, edge_mult(w)
            options += [
                (edges + ((s, w, n),), spent + n * cost, s, heavy or w > 1,
                 rank * r ** (2 * n), signature * g ** (2 * n))
                for edges, spent, _, heavy, rank, signature in options
                for n in range(1, (delta - spent) // cost + 1)
            ]
    return sorted(options, key=lambda option: option[1])


def _rows(delta: int, top: int) -> dict:
    """{(cogenus, length, barred): (ranks by m, signatures by m)}, m = 0..top:
    the templates of cogenus 1..delta placed at flow m, each with its
    orderings N_t(m) times its squared edge factors, summed per key;
    ``barred`` marks a heavier edge out of vertex 0.

    One transfer runs over the vertices 0, 1, ...  Edges out of vertex
    u > v never cross gap v, so gap v is final once vertex v has its
    edges, and templates that agree on what is still open share a state
    (open classes, reach, budget, barred).  An open class (j, c, left) is
    alike edges ending at vertex j, of weight c together, with ``left``
    black vertices not yet placed; reach is the farthest edge end.  The
    value is a rank and a signature vector over m.  At v >= 1 with
    reach == v the template ends, and the state is the row (delta -
    budget, v, barred).  Otherwise vertex v takes a multiset of out-edges
    within the budget, none only when an earlier edge bypasses it.  Then
    gap v, crossed by weight c_v, carries m - v - c_v short edges; each
    class places some of its black vertices there, all of them in its
    last gap, and the L placed merge with the short edges in
    ``_orders`` * C(L + m - v - c_v, L) ways, none for m < v + c_v.
    Where an even edge weight zeroes the signature factor, or every
    signature of the state is zero, the update adds nothing to the
    signatures, so the old vector is kept.
    """
    options = _vertex_edges(delta)
    costs = [option[1] for option in options]
    zeros = [0] * (top + 1)
    rows = {}
    states = {((), 0, delta, False): ([1] * (top + 1), [1] * (top + 1))}
    merges = {}  # (L, v + c_v): C(L + m - v - c_v, L) by m
    v = 0
    while states:
        grown = {}
        moves = {}  # open classes after vertex v: [(classes after gap v, orders, merge)]
        for (open_, reach, budget, barred), (ranks, signatures) in states.items():
            if v and reach == v:  # every class has closed
                rows[delta - budget, v, barred] = (ranks, signatures)
                continue
            signed = any(signatures)
            chosen = options[0 if reach > v else 1 : bisect_right(costs, budget)]
            for edges, cost, far, heavy, r2, s2 in chosen:
                classes = tuple(sorted(
                    open_ + tuple((v + s, w * n, n) for s, w, n in edges)
                ))
                after = (max(reach, v + far), budget - cost, barred or (heavy and v == 0))
                if classes not in moves:
                    low = v + sum(c for _, c, _ in classes)
                    choices = [
                        (left,) if j == v + 1 else range(left + 1) for j, _, left in classes
                    ]
                    moves[classes] = found = []
                    for xs in product(*choices):
                        load = sum(xs)
                        if (load, low) not in merges:
                            merges[load, low] = [
                                comb(load + m - low, load) if m >= low else 0
                                for m in range(top + 1)
                            ]
                        rest = tuple(sorted(
                            (j, c, left - x)
                            for (j, c, left), x in zip(classes, xs)
                            if j > v + 1
                        ))
                        found.append((rest, _orders(xs), merges[load, low]))
                for rest, ways, merge in moves[classes]:
                    rank_ways, signature_ways = ways * r2, ways * s2
                    old_ranks, old_signatures = grown.get((rest, *after), (zeros, zeros))
                    new_signatures = old_signatures
                    if signed and signature_ways:
                        new_signatures = [
                            a + signature_ways * b * x
                            for a, b, x in zip(old_signatures, merge, signatures)
                        ]
                    grown[(rest, *after)] = (
                        [a + rank_ways * b * x for a, b, x in zip(old_ranks, merge, ranks)],
                        new_signatures,
                    )
        states = grown
        v += 1
    return rows


def _node_pairs(degrees, delta: int) -> dict[int, tuple[int, int]]:
    """(rank, signature) of the delta-node count for each degree.

    A template at position k of a degree-d diagram leaves m = d - k of
    flow and has N_t(m) orderings with the short edges.  Templates of one
    (cogenus, length) enter the sums alike, so they share one row, with
    N_t(m) * mult_t^2 summed over them (``_rows``).  H[e][m] sums the
    sequences of total cogenus e whose first template starts at flow m or
    below, each weighted by its orderings and squared edge factors:

        H[e][m] = H[e][m-1] + sum_t N_t(m) * mult_t^2 * H[e - cog_t][m - len_t]

    with H[0][m] = (1, 1).  Vertex 0 of a diagram has only weight-1
    outgoing edges, so a template with a heavier edge out of its vertex 0
    may not start at k = 0, m = d; its rows are kept apart, and the count
    of degree d is H[delta][d] less those placements.
    """
    top = max(degrees)
    rows = _rows(delta, top)
    H = [[(1, 1)] * (top + 1)]
    for e in range(1, delta + 1):
        row = [(0, 0)] * (top + 1)
        rank = signature = 0
        for m in range(top + 1):
            for (cog, length, _), (ranks, signatures) in rows.items():
                if cog <= e and length <= m:
                    below_rank, below_signature = H[e - cog][m - length]
                    rank += ranks[m] * below_rank
                    signature += signatures[m] * below_signature
            row[m] = (rank, signature)
        H.append(row)
    out = {}
    for d in degrees:
        rank, signature = H[delta][d]
        for (cog, length, heavy_start), (ranks, signatures) in rows.items():
            if heavy_start and length <= d:
                below_rank, below_signature = H[delta - cog][d - length]
                rank -= ranks[d] * below_rank
                signature -= signatures[d] * below_signature
        out[d] = (rank, signature)
    return out


def severi_by_templates_range(degrees, delta: int) -> dict[int, GWElement]:
    """Node counts {d: N^delta(d)} for every degree d in ``degrees``.

    The degrees share one transfer for the template rows and one table
    over (flow, cogenus left).
    """
    degrees = list(degrees)
    if any(d < 1 for d in degrees) or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    if not degrees:
        return {}
    return {d: gw_from_pair(pair) for d, pair in _node_pairs(degrees, delta).items()}


def severi_by_templates(d: int, delta: int) -> GWElement:
    """Node count via sequences of templates at valid start positions."""
    return severi_by_templates_range((d,), delta)[d]


# -- exact polynomial interpolation over the rationals ----------------------


def poly_interpolate(points) -> tuple[Fraction, ...]:
    """Coefficients (constant first) of the polynomial through the points."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    coeffs = [Fraction(0)] * len(points)
    # Newton divided differences, expanded to the monomial basis
    divided = list(ys)
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    basis = [Fraction(1)]
    for i, coef in enumerate(divided):
        for j, b in enumerate(basis):
            coeffs[j] += coef * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for j, b in enumerate(basis):
            new_basis[j] -= xs[i] * b
            new_basis[j + 1] += b
        basis = new_basis
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_degree(coeffs) -> int:
    return -1 if coeffs == (Fraction(0),) else len(coeffs) - 1


def poly_str(coeffs) -> str:
    """The polynomial in d with these coefficients, highest power first."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if mag == 1 and power > 0:
            body = ""
        elif getattr(mag, "denominator", 1) != 1 and power > 0:
            body = f"({mag})"
        else:
            body = str(mag)
        if power == 0:
            part = str(mag)
        elif power == 1:
            part = f"{body}d"
        else:
            part = f"{body}d^{power}"
        terms.append(("- " if c < 0 else "+ ") + part)
    if not terms:
        return "0"
    first = terms[0]
    return (first[2:] if first.startswith("+ ") else "-" + first[2:]) + (
        " " + " ".join(terms[1:]) if len(terms) > 1 else ""
    )


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class NodePolynomialFit:
    delta: int
    hyperbolic_coeffs: tuple[Fraction, ...]
    unit_coeffs: tuple[Fraction, ...]
    threshold: int
    values: tuple[tuple[int, int, int], ...]  # (d, P-part, Q-part)


def fit_node_polynomial(delta: int, n_holdout: int = 2) -> NodePolynomialFit:
    """Interpolate the H- and <1>-coefficients of the delta-node counts.

    Samples the 2*delta + 1 degrees from delta + 1 on, checks the fit on
    n_holdout further degrees, and reports the smallest degree from which
    the computed values follow the polynomials.
    """
    if delta < 0 or n_holdout < 0:
        raise ValueError("delta and n_holdout must be nonnegative")
    d_start = delta + 1
    degree = 2 * delta
    top = d_start + degree + n_holdout
    values = []
    for d, value in severi_by_templates_range(range(1, top + 1), delta).items():
        if value.signature < 0:
            raise FitError(f"node count is not of the form p*H + q*<1>: {value}")
        values.append((d, (value.rank - value.signature) // 2, value.signature))
    window = [(d, p, q) for d, p, q in values if d_start <= d <= d_start + degree]
    p_coeffs = poly_interpolate([(d, p) for d, p, _ in window])
    q_coeffs = poly_interpolate([(d, q) for d, _, q in window])
    if poly_degree(q_coeffs) != degree or (
        delta > 0 and poly_degree(p_coeffs) != degree
    ):
        raise FitError(
            f"fitted degrees {poly_degree(p_coeffs)}, {poly_degree(q_coeffs)} "
            f"!= {degree} for delta={delta}"
        )
    for d, p, q in values:
        if d > d_start + degree:
            if poly_eval(p_coeffs, d) != p or poly_eval(q_coeffs, d) != q:
                raise FitError(f"held-out degree {d} deviates from the fit")
    threshold = d_start
    for d, p, q in reversed(values):
        if poly_eval(p_coeffs, d) == p and poly_eval(q_coeffs, d) == q:
            threshold = d
        else:
            break
    return NodePolynomialFit(delta, p_coeffs, q_coeffs, threshold, tuple(values))
