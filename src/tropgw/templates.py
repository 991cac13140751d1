"""Template decomposition of degree-d floor diagrams and node polynomials.

A template is a gap-free weighted graph block on vertices 0..l: no edge
i -> i+1 of weight 1, and every inner vertex is bypassed or covered by
some edge.  Deleting all weight-1 consecutive edges from a diagram (with
its left ends merged into an extra vertex 0 of full out-degree d)
decomposes it into templates with start positions; summing per-template
data over valid positions reproduces the node counts

    N^delta(d) = sum over template sequences with total cogenus delta.

Per placement the template contributes its squared edge factors and the
number of orderings of its black vertices against the parallel weight-1
edges inside its span, whose number per gap is determined by d.  The sum
runs on exact (rank, signature) pairs, multiplied componentwise; every end
has weight one, so the count is p*H + q*<1>.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .floors import count_interleavings, edge_mult
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
    """All templates of cogenus between 1 and delta.

    Every edge costs (j-i)*w - 1 >= 1, and gap-freeness makes the spans
    cover 1..l-1, so l <= delta + 1 and w <= delta + 1.
    """
    if delta < 1:
        return ()
    out = []
    for length in range(1, delta + 2):
        candidates = [
            (i, j, w)
            for i in range(length)
            for j in range(i + 1, length + 1)
            for w in range(1, delta + 2)
            if (j - i, w) != (1, 1) and (j - i) * w - 1 <= delta
        ]

        def rec(start: int, chosen: list[Edge], budget: int):
            if chosen:
                try:
                    out.append(Template(length, tuple(chosen)))
                except ValueError:
                    pass
            for idx in range(start, len(candidates)):
                cost = (candidates[idx][1] - candidates[idx][0]) * candidates[idx][2] - 1
                if cost <= budget:
                    chosen.append(candidates[idx])
                    rec(idx, chosen, budget - cost)
                    chosen.pop()

        rec(0, [], delta)
    return tuple(sorted(set(out), key=lambda t: (t.cogenus, t.length, t.edges)))


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


def template_placement_data(t: Template, d: int):
    """(k_min, k_max, nu) for placements of t in degree-d diagrams.

    Vertex 0 of the ambient diagram only has weight-1 outgoing edges, so
    k_min is 1 when vertex 0 of the template carries heavier ones.  The gap
    after position p carries total weight d - p, so the template's
    outgoing-plus-bypassing weight bounds k_max.  nu(k) counts orderings of
    the template's black vertices inside its span, interleaved with the
    parallel weight-1 edges filling each gap up to its flow.
    """
    k_min = 1 if any(i == 0 and w > 1 for i, _, w in t.edges) else 0
    crossings = _crossings(t)
    k_max = min(d - v - c for v, c in enumerate(crossings))
    k_max = min(k_max, d - t.length)

    def nu(k: int) -> int:
        if not (k_min <= k <= k_max):
            return 0
        classes = [
            (i, j - 1, m) for (i, j, w), m in Counter(t.edges).items()
        ]
        for v, c in enumerate(crossings):
            shorts = d - k - v - c
            classes.append((v, v, shorts))
        return count_interleavings(t.length, classes)

    return k_min, k_max, nu


def severi_by_templates(d: int, delta: int) -> GWElement:
    """Node count via sequences of templates at valid start positions."""
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    templates = enumerate_templates(delta)
    by_cogenus: dict[int, list[Template]] = {}
    for t in templates:
        by_cogenus.setdefault(t.cogenus, []).append(t)

    placements: dict[Template, tuple[int, int, object]] = {
        t: template_placement_data(t, d) for t in templates
    }

    def sequences(remaining: int):
        if remaining == 0:
            yield ()
            return
        for c in range(1, remaining + 1):
            for t in by_cogenus.get(c, ()):
                for rest in sequences(remaining - c):
                    yield (t,) + rest

    rank = signature = 0
    for seq in sequences(delta):
        seq_rank = seq_signature = 1
        for t in seq:
            r, s = template_mult(t)
            seq_rank *= r * r
            seq_signature *= s * s

        def place(idx: int, k_start: int):
            if idx == len(seq):
                return 1
            t = seq[idx]
            k_min, k_max, nu = placements[t]
            subtotal = 0
            for k in range(max(k_start, k_min), k_max + 1):
                n = nu(k)
                if n:
                    subtotal += n * place(idx + 1, k + t.length)
            return subtotal

        ways = place(0, 0)
        rank += ways * seq_rank
        signature += ways * seq_signature
    return gw_from_pair((rank, signature))


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


def poly_str(coeffs, var: str = "d") -> str:
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
            part = f"{body}{var}"
        else:
            part = f"{body}{var}^{power}"
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


def fit_node_polynomial(
    delta: int,
    d_start: int | None = None,
    n_holdout: int = 2,
) -> NodePolynomialFit:
    """Interpolate the H- and <1>-coefficients of the delta-node counts.

    Samples 2*delta + 1 degrees starting at d_start (default delta + 1),
    checks the fit on n_holdout further degrees, and reports the smallest
    degree from which the computed values follow the polynomials.
    """
    if delta < 0 or n_holdout < 0:
        raise ValueError("delta and n_holdout must be nonnegative")
    if d_start is None:
        d_start = delta + 1
    degree = 2 * delta
    top = d_start + degree + n_holdout
    values = []
    for d in range(1, top + 1):
        value = severi_by_templates(d, delta)
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
