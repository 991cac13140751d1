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
across the gap, so that number depends on m alone.  One gap-by-gap fill
per template gives it for every m at once (``_orderings``), templates of
one (cogenus, length) share one row, and the counts run as one transfer
over (m, cogenus left), shared by every degree.  The sum runs on exact
(rank, signature) pairs, multiplied componentwise; every end has weight
one, so the count is p*H + q*<1>.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from operator import sub

from .floors import _orders, edge_mult
from .gw import GWElement, gw_from_pair

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class Template:
    length: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a template has at least one edge")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        for i, j, w in self.edges:
            if not (0 <= i < j <= self.length) or w < 1:
                raise ValueError(f"bad template edge {(i, j, w)}")
            if j - i == 1 and w == 1:
                raise ValueError("templates contain no short edges")
        touched_lo = min(i for i, _, _ in self.edges)
        touched_hi = max(j for _, j, _ in self.edges)
        if touched_lo != 0 or touched_hi != self.length:
            raise ValueError("template endpoints must carry edges")
        for v in range(1, self.length):
            if not any(i < v < j for i, j, _ in self.edges):
                raise ValueError(f"template has a gap at vertex {v}")

    @property
    def cogenus(self) -> int:
        return sum((j - i) * w - 1 for i, j, w in self.edges)


def enumerate_templates(delta: int) -> tuple[Template, ...]:
    """All templates of cogenus between 1 and delta, ordered by
    (cogenus, length, edges).

    Blocks grow vertex by vertex: each vertex takes a multiset of outgoing
    edges, each costing (j-i)*w - 1 >= 1 of the budget, and the block ends
    at the first vertex past 0 that no edge bypasses.  Edges come in sorted
    order, so every template is built once.
    """
    out = []
    edges: list[Edge] = []

    def extend(v: int, reach: int, budget: int):
        # every edge out of 0..v-1 is chosen; reach is their farthest target
        if v and reach == v:
            out.append(Template(v, tuple(edges)))
            return
        candidates = [
            (v, j, w)
            for j in range(v + 1, v + budget + 2)
            for w in range(1, (budget + 1) // (j - v) + 1)
            if (j - v, w) != (1, 1)
        ]

        def pick(start: int, reach: int, budget: int):
            if reach > v:
                extend(v + 1, reach, budget)
            for idx in range(start, len(candidates)):
                edge = candidates[idx]
                cost = (edge[1] - v) * edge[2] - 1
                if cost <= budget:
                    edges.append(edge)
                    pick(idx, max(reach, edge[1]), budget - cost)
                    edges.pop()

        pick(0, reach, budget)
        pick = None  # each closure refers to itself through its cell

    if delta >= 1:
        extend(0, 0, delta)
    extend = None
    return tuple(sorted(out, key=lambda t: (t.cogenus, t.length, t.edges)))


def template_mult(t: Template) -> tuple[int, int]:
    """(rank, signature) of the product of the per-edge factors."""
    rank = signature = 1
    for _, _, w in t.edges:
        r, s = edge_mult(w)
        rank *= r
        signature *= s
    return rank, signature


def _crossings(t: Template) -> list[int]:
    return [
        sum(w for i, j, w in t.edges if i <= v < j) for v in range(t.length)
    ]


def _orderings(t: Template, top: int) -> list[int]:
    """[N_t(m) for m in range(top + 1)]: the orderings of the template's
    black vertices with the short edges of its gaps at flow m.

    Gap v carries s_v = m - v - c_v short edges, so N_t(m) = 0 below
    m_min = max(length, v + c_v).  One fill runs gap by gap for every m
    at once.  Identical edges (i, j, w) are one class of alike black
    vertices in gaps i..j-1; a state is the number each class has left to
    place, its value a vector over m.  In gap v each open class places
    some of its vertices, all of them in its last gap: L in all, ordered
    in ``_orders`` ways and merged with the short edges in C(L + s_v, L)
    ways.  States that differ only in closed gaps are one entry.
    """
    crossings = _crossings(t)
    m_min = max(t.length, *(v + c for v, c in enumerate(crossings)))
    if m_min > top:
        return [0] * (top + 1)
    flows = range(m_min, top + 1)
    classes = Counter(t.edges)
    spans = [(i, j - 1) for i, j, _ in classes]
    states = {tuple(classes.values()): [1] * len(flows)}
    zeros = [0] * len(flows)
    for v, c in enumerate(crossings):
        grown = {}
        merges = {}  # load L: C(L + s_v, L) by m
        for left, vector in states.items():
            choices = [
                (0,) if v < lo else (n,) if v == hi else range(n + 1)
                for (lo, hi), n in zip(spans, left)
            ]
            for xs in product(*choices):
                load = sum(xs)
                if load not in merges:
                    merges[load] = [comb(load + m - v - c, load) for m in flows]
                ways = _orders(xs)
                key = tuple(map(sub, left, xs))
                old = grown.get(key, zeros)
                grown[key] = [
                    o + ways * b * x for o, b, x in zip(old, merges[load], vector)
                ]
        states = grown
    return [0] * m_min + states[(0,) * len(spans)]


def _node_pairs(degrees, delta: int) -> dict[int, tuple[int, int]]:
    """(rank, signature) of the delta-node count for each degree.

    A template at position k of a degree-d diagram leaves m = d - k of
    flow and has N_t(m) orderings with the short edges (``_orderings``).
    Templates of one (cogenus, length) enter the sums alike, so they share
    one row, with N_t(m) * mult_t^2 summed over them.  H[e][m] sums the
    sequences of total cogenus e whose first template starts at flow m or
    below, each weighted by its orderings and squared edge factors:

        H[e][m] = H[e][m-1] + sum_t N_t(m) * mult_t^2 * H[e - cog_t][m - len_t]

    with H[0][m] = (1, 1).  Vertex 0 of a diagram has only weight-1
    outgoing edges, so a template with a heavier edge out of its vertex 0
    may not start at k = 0, m = d; its rows are kept apart, and the count
    of degree d is H[delta][d] less those placements.
    """
    top = max(degrees)
    rows = {}  # (cogenus, length, barred from k = 0) -> (ranks by m, signatures by m)
    zeros = [0] * (top + 1)
    for t in enumerate_templates(delta):
        rank, signature = template_mult(t)
        r2, s2 = rank * rank, signature * signature
        key = (t.cogenus, t.length, any(i == 0 and w > 1 for i, _, w in t.edges))
        orderings = _orderings(t, top)
        ranks, signatures = rows.get(key, (zeros, zeros))
        rows[key] = (
            [r + n * r2 for r, n in zip(ranks, orderings)],
            [s + n * s2 for s, n in zip(signatures, orderings)],
        )
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

    The degrees share one template enumeration and one transfer table.
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
