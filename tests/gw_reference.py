"""GW(Q)-valued reference evaluators for the counting pipelines.

The package evaluates every count on (rank, signature) pairs and builds
the GW(Q) element once at the end.  These evaluators compute the same
counts directly in the Grothendieck-Witt ring, with the factor formulas of
``curves.triangle_mult``, so that the tests compare two independently
computed values.  Floor counts walk one diagram at a time here:
``enumerate_diagrams`` builds every ``FloorDiagram`` and ``count_markings``
counts its markings, with their own end-attachment walker
(``end_attachments``) and interleaving count (``count_interleavings``).
The package's transfer builds no diagram, and its connected counts come
from the exponential formula.  The lattice
paths are enumerated here by brute force, with their own boundary chains
and point-tuple walker, and single paths are evaluated on the package's
index tables and side walker (``walker_path_mult``, ``path_subdivisions``,
which only tests call); the templates by filtering edge multisets through
``Template``, and each template sequence is placed on its own, with the
orderings counted per placement.  The package builds no template object
(its rows come from one transfer over the vertices), so ``Template``, the
definition of a valid template, lives here.  Explicit dual subdivisions
and the simple curves on them (``DualSubdivision``, ``SimpleCurve`` with
its complex, real and arithmetic multiplicities) live here too, with the
checks of a subdivision against its polygon (area and boundary end
weights), as only tests build subdivisions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product as cartesian
from math import comb, factorial, prod

from tropgw.ch import (
    _seq_add,
    max_genus,
    seq_stats,
    trim,
)
from tropgw.curves import triangle_mult
from tropgw.floors import edge_mult
from tropgw.gw import ONE, ZERO, GWElement, diag, gw_from_pair, hyperbolic
from tropgw.lattice import Point, Polygon, lattice_length
from tropgw.paths import (
    NEGATIVE,
    POSITIVE,
    _first_turn,
    _side_walker,
    _tables,
    lambda_key,
)


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


def dense_partitions(total: int, top: int | None = None):
    """Every partition of ``total`` into parts of at most ``top``, as its
    count sequence (n_1, n_2, ...) with trailing zeros dropped."""
    if total == 0:
        yield ()
        return
    for part in range(total if top is None else min(total, top), 0, -1):
        for n in range(total // part, 0, -1):
            for rest in dense_partitions(total - part * n, part - 1):
                yield rest + (0,) * (part - 1 - len(rest)) + (n,)


def seq_binom(a, b) -> int:
    """Entrywise product of binomial coefficients; 0 when b exceeds a."""
    a, b = trim(a), trim(b)
    if len(b) > len(a):
        return 0
    return prod(comb(x, y) for x, y in zip(a, b + (0,) * (len(a) - len(b))))


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
        for gamma in dense_partitions(target):
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


# -- dual subdivisions and simple curves -----------------------------------


def normalized_area(a: Point, b: Point, c: Point) -> int:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if det == 0:
        raise ValueError(f"collinear triangle {a}, {b}, {c}")
    return abs(det)


def triangle_boundary_count(a: Point, b: Point, c: Point) -> int:
    return lattice_length(a, b) + lattice_length(b, c) + lattice_length(c, a)


def interior_points(a: Point, b: Point, c: Point) -> int:
    """Lattice points strictly inside the triangle, via Pick's identity."""
    area = normalized_area(a, b, c)
    return (area - triangle_boundary_count(a, b, c) + 2) // 2


@dataclass(frozen=True)
class DualSubdivision:
    """Triangles and parallelograms tiling a polygon.

    A parallelogram is stored by three corners (a, b, c) with the fourth
    implied as a + c - b.
    """

    triangles: tuple[tuple[Point, Point, Point], ...]
    parallelograms: tuple[tuple[Point, Point, Point], ...] = ()

    def edge_lengths(self) -> list[int]:
        out = []
        for a, b, c in self.triangles:
            out += [lattice_length(a, b), lattice_length(b, c), lattice_length(c, a)]
        for a, b, c in self.parallelograms:
            out += [lattice_length(a, b), lattice_length(b, c)] * 2
        return out


@dataclass(frozen=True)
class SimpleCurve:
    """A simple tropical curve, recorded through its dual subdivision and
    the weights of its unbounded ends.

    Its quadratic-form multiplicity interpolates the complex count (its
    rank) and the signed real count (its signature, when all edge weights
    are odd): (m-1)/2 * H + <(-1)^i * w_1 ... w_k> for odd m and m/2 * H
    for even m, with m the product of the triangle areas and i the total
    number of interior lattice points of the triangles.
    """

    subdivision: DualSubdivision
    end_weights: tuple[int, ...]


def complex_mult(curve: SimpleCurve) -> int:
    return prod(normalized_area(*t) for t in curve.subdivision.triangles)


def real_mult(curve: SimpleCurve) -> int:
    if any(length % 2 == 0 for length in curve.subdivision.edge_lengths()):
        return 0
    i = sum(interior_points(*t) for t in curve.subdivision.triangles)
    return -1 if i % 2 else 1


def arith_mult(curve: SimpleCurve) -> GWElement:
    m = complex_mult(curve)
    if m % 2 == 0:
        return hyperbolic(m // 2)
    i = sum(interior_points(*t) for t in curve.subdivision.triangles)
    sign = -1 if i % 2 else 1
    return hyperbolic((m - 1) // 2) + diag(sign * prod(curve.end_weights))


def piece_area2(sub: DualSubdivision) -> int:
    """Twice the area covered by the subdivision's triangles and parallelograms."""
    s = sum(normalized_area(*t) for t in sub.triangles)
    s += sum(2 * normalized_area(*q) for q in sub.parallelograms)
    return s


def boundary_end_weights(sub: DualSubdivision, polygon: Polygon) -> tuple[int, ...]:
    """Lattice lengths of the subdivision edges lying on the polygon boundary."""

    def within(a, b, p) -> bool:
        return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= p[1] <= max(a[1], b[1])

    def on_boundary(p, q) -> bool:
        for a, b in polygon.edges():
            d = (b[0] - a[0], b[1] - a[1])
            if (
                (p[0] - a[0]) * d[1] == (p[1] - a[1]) * d[0]
                and (q[0] - a[0]) * d[1] == (q[1] - a[1]) * d[0]
                and within(a, b, p)
                and within(a, b, q)
            ):
                return True
        return False

    seen: dict = {}
    for tri in sub.triangles:
        corners = list(tri)
        for i in range(3):
            p, q = corners[i], corners[(i + 1) % 3]
            key = (min(p, q), max(p, q))
            seen[key] = seen.get(key, 0) + 1
    for a, b, c in sub.parallelograms:
        d = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
        for p, q in ((a, b), (b, c), (c, d), (d, a)):
            key = (min(p, q), max(p, q))
            seen[key] = seen.get(key, 0) + 1
    out = []
    for (p, q), mult in seen.items():
        if mult == 1 and on_boundary(p, q):
            out.append(lattice_length(p, q))
    return tuple(sorted(out))


# -- lattice paths ---------------------------------------------------------


def _cross(a, b, c) -> int:
    """Turn of the corner a, b, c: positive for a left turn."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def polygon_contains(polygon: Polygon, pt: Point) -> bool:
    """Whether pt lies in the polygon: on no edge's outer side, the vertices
    running counterclockwise."""
    return all(_cross(p, q, pt) >= 0 for p, q in polygon.edges())


def _sorted_points(polygon, tie_break):
    return sorted(polygon.lattice_points(), key=lambda p: lambda_key(p, tie_break))


def _chains(polygon, tie_break) -> dict:
    """The two boundary chains from the first to the last point of the path
    order: the positive side's chain runs right of the line through them,
    the negative side's left of it.  Boundary points on that line belong to
    the chain on the side away from the polygon."""
    points = _sorted_points(polygon, tie_break)
    start, end = points[0], points[-1]
    side = {p: _cross(start, end, p) for p in polygon.boundary_lattice_points()}
    polygon_left = any(s > 0 for s in side.values())
    positive = [p for p, s in side.items() if s < 0 or (s == 0 and polygon_left)]
    negative = [p for p, s in side.items() if s > 0 or (s == 0 and not polygon_left)]
    return {
        name: tuple(sorted({start, end, *chain}, key=lambda p: lambda_key(p, tie_break)))
        for name, chain in ((POSITIVE, positive), (NEGATIVE, negative))
    }


def _triangle(a, b, c) -> GWElement:
    lengths = (lattice_length(a, b), lattice_length(b, c), lattice_length(c, a))
    return triangle_mult(normalized_area(a, b, c), lengths, interior_points(a, b, c))


def _side(path, side, polygon, chain, memo) -> GWElement:
    if path in memo:
        return memo[path]
    want_left = side == NEGATIVE
    value = ONE if path == chain else ZERO
    for j in range(1, len(path) - 1):
        cr = _cross(path[j - 1], path[j], path[j + 1])
        if (cr > 0) if want_left else (cr < 0):
            a, b, c = path[j - 1], path[j], path[j + 1]
            value = _triangle(a, b, c) * _side(
                path[:j] + path[j + 1:], side, polygon, chain, memo
            )
            reflected = (a[0] + c[0] - b[0], a[1] + c[1] - b[1])
            if polygon_contains(polygon, reflected):
                shifted = path[:j] + (reflected,) + path[j + 1:]
                value = value + _side(shifted, side, polygon, chain, memo)
            break
    memo[path] = value
    return value


def path_mult(path, polygon, side, tie_break="ydesc") -> GWElement:
    path = tuple(tuple(p) for p in path)
    return _side(path, side, polygon, _chains(polygon, tie_break)[side], {})


def count_lattice_path(polygon, g, tie_break="ydesc") -> GWElement:
    """Brute force: every increasing path of the right length, both sides."""
    points = _sorted_points(polygon, tie_break)
    chains = _chains(polygon, tie_break)
    memos = {POSITIVE: {}, NEGATIVE: {}}
    n_steps = polygon.num_boundary_points() + g - 1
    total = ZERO
    for middle in combinations(points[1:-1], n_steps - 1):
        path = (points[0],) + middle + (points[-1],)
        pos = _side(path, POSITIVE, polygon, chains[POSITIVE], memos[POSITIVE])
        neg = _side(path, NEGATIVE, polygon, chains[NEGATIVE], memos[NEGATIVE])
        total = total + pos * neg
    return total


# -- one path on the package's tables ----------------------------------------

# walker_path_mult and path_subdivisions evaluate one path per call, so they
# share the tables of recent (polygon, tie-break) pairs, whose corner tables
# keep what earlier calls computed.
_shared_tables = lru_cache(maxsize=8)(_tables)


def _path_indices(path, tables) -> tuple[int, ...]:
    """The path as point indices; ValueError unless it is an increasing
    path of lattice points of the polygon."""
    indices = []
    for p in path:
        p = tuple(p)
        if p not in tables.index:
            raise ValueError(f"path leaves the polygon at {p}")
        indices.append(tables.index[p])
    if any(j <= i for i, j in zip(indices, indices[1:])):
        raise ValueError("path is not strictly increasing in the path order")
    return tuple(indices)


def walker_path_mult(path, polygon: Polygon, side: str, tie_break: str = "ydesc") -> GWElement:
    """Completion multiplicity of a path on one side, by the package's side
    walker.  Its class is that of the product of the lattice lengths of the
    path's segments."""
    if side not in (POSITIVE, NEGATIVE):
        raise ValueError(f"side must be {POSITIVE!r} or {NEGATIVE!r}")
    tables = _shared_tables(polygon, tie_break)
    indices = _path_indices(path, tables)
    value = _side_walker(tables, side)[0](indices, sum(1 << i for i in indices))
    points = [tables.points[i] for i in indices]
    return gw_from_pair(value, [lattice_length(p, q) for p, q in zip(points, points[1:])])


def _side_reductions(path: tuple[int, ...], tables, side: str):
    """All successful reductions of one side: (triangles, parallelograms)."""
    turn = _first_turn(path, tables.corners, side)
    if turn is None:
        if sum(1 << i for i in path) == tables.chain[side]:
            yield (), ()
        return
    j, (_, _, r) = turn
    corner = tuple(tables.points[i] for i in path[j - 1:j + 2])
    for tris, pars in _side_reductions(path[:j] + path[j + 1:], tables, side):
        yield tris + (corner,), pars
    if r >= 0:
        shifted = path[:j] + (r,) + path[j + 1:]
        for tris, pars in _side_reductions(shifted, tables, side):
            yield tris, pars + (corner,)


def path_subdivisions(path, polygon: Polygon, tie_break: str = "ydesc"):
    """Dual subdivisions realized by the path; one per successful branch pair."""
    tables = _shared_tables(polygon, tie_break)
    indices = _path_indices(path, tables)
    for tris_p, pars_p in _side_reductions(indices, tables, POSITIVE):
        for tris_n, pars_n in _side_reductions(indices, tables, NEGATIVE):
            yield DualSubdivision(
                triangles=tris_p + tris_n, parallelograms=pars_p + pars_n
            )


# -- floor diagrams and templates ------------------------------------------


Edge = tuple[int, int, int]  # (source floor, target floor, weight), source < target


def count_interleavings(num_gaps: int, classes) -> int:
    """Orderings of identical-within-class items in ordered gaps.

    ``classes`` lists (lo, hi, count): ``count`` alike items somewhere in
    gaps lo..hi.  Gap by gap, each class puts some of its items not yet
    placed into the gap (all of them in its last gap), and the items of
    one gap are ordered in (sum x)! / prod(x!) ways.
    """
    classes = tuple(classes)

    @lru_cache(maxsize=None)
    def fill(gap: int, left: tuple[int, ...]) -> int:
        if gap == num_gaps:
            return int(not any(left))
        choices = []
        for (lo, hi, _), n in zip(classes, left):
            if gap < lo:
                choices.append((0,))
            elif gap == hi:
                choices.append((n,))
            else:
                choices.append(range(n + 1))
        total = 0
        for xs in cartesian(*choices):
            ways = factorial(sum(xs)) // prod(factorial(x) for x in xs)
            total += ways * fill(gap + 1, tuple(n - x for n, x in zip(left, xs)))
        return total

    return fill(0, tuple(count for _, _, count in classes))


def end_attachments(k: int, a: int, w_left, w_right, caps, spare: int):
    """End attachments, floor by floor, with the flow profile they give.

    Yields (profile, lefts, rights): profile[p] is the weight c_p crossing
    the gap after floor p (profile[0] = 0), and lefts[v] and rights[v]
    count the left and right ends of each distinct weight, in increasing
    order, attached to floor v+1.  Every c_p satisfies 0 <= c_p <= caps[p],
    the shortfall sum(caps[p] - c_p) stays within ``spare``, and floor a
    takes the ends that are left.
    """
    n_left, n_right = Counter(w_left), Counter(w_right)
    l_weights, r_weights = sorted(n_left), sorted(n_right)

    def subsets(counts):
        return cartesian(*(range(m + 1) for m in counts))

    def walk(v, rest_l, rest_r, profile, lefts, rights, spare):
        if v == a:
            yield profile, lefts + (rest_l,), rights + (rest_r,)
            return
        for left in subsets(rest_l):
            for right in subsets(rest_r):
                gain = sum(w * n for w, n in zip(l_weights, left))
                loss = sum(w * n for w, n in zip(r_weights, right))
                c = profile[-1] - k + gain - loss
                if 0 <= c <= caps[v] and caps[v] - c <= spare:
                    yield from walk(
                        v + 1,
                        tuple(m - n for m, n in zip(rest_l, left)),
                        tuple(m - n for m, n in zip(rest_r, right)),
                        profile + (c,),
                        lefts + (left,),
                        rights + (right,),
                        spare - caps[v] + c,
                    )

    l_counts = tuple(n_left[w] for w in l_weights)
    r_counts = tuple(n_right[w] for w in r_weights)
    yield from walk(1, l_counts, r_counts, (0,), (), (), spare)


@dataclass(frozen=True)
class FloorDiagram:
    floors: int
    k: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        for i, j, w in self.edges:
            if not (1 <= i < j <= self.floors) or w < 1:
                raise ValueError(f"bad edge {(i, j, w)}")
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def div(self, v: int) -> int:
        return sum(w for i, j, w in self.edges if j == v) - sum(
            w for i, j, w in self.edges if i == v
        )

    @property
    def genus(self) -> int:
        """#edges - #floors + 1; for disconnected graphs this is the
        total genus sum(g_i) - #components + 1."""
        return len(self.edges) - self.floors + 1

    def is_connected(self) -> bool:
        if self.floors == 1:
            return True
        parent = list(range(self.floors + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in self.edges:
            parent[find(i)] = find(j)
        return len({find(v) for v in range(1, self.floors + 1)}) == 1


def marked_mult(diagram: FloorDiagram, w_left, w_right) -> tuple[int, int]:
    """(rank, signature) of any marking: bounded edges squared, ends once."""
    rank = signature = 1
    for _, _, w in diagram.edges:
        r, s = edge_mult(w)
        rank *= r * r
        signature *= s * s
    for w in tuple(w_left) + tuple(w_right):
        r, s = edge_mult(w)
        rank *= r
        signature *= s
    return rank, signature


def count_markings(diagram: FloorDiagram, w_left, w_right, free=()) -> int:
    """Number of markings up to equivalence fixing the floors.

    ``free`` lists the weights of horizontal line components (one marked
    point each, ordered freely against everything else).
    """
    a = diagram.floors
    if sum(w_left) != a * diagram.k + sum(w_right):
        raise ValueError("weights do not match the diagram degree")
    flows = [0] * a  # flows[p]: the diagram's weight across the gap after floor p
    for i, j, w in diagram.edges:
        for p in range(i, j):
            flows[p] += w
    fixed = [(i, j - 1, m) for (i, j, w), m in Counter(diagram.edges).items()]
    fixed += [(0, a, m) for m in Counter(free).values()]
    total = 0
    for _, lefts, rights in end_attachments(diagram.k, a, w_left, w_right, flows, 0):
        classes = list(fixed)
        for v in range(a):  # black end vertices before / after floor v+1
            classes += [(0, v, m) for m in lefts[v]]
            classes += [(v + 1, a, m) for m in rights[v]]
        total += count_interleavings(a + 1, classes)
    return total


def enumerate_diagrams(
    k: int, a: int, g: int, w_left, w_right, connected: bool = False
) -> list[FloorDiagram]:
    """All floor diagrams on a floors with a + g - 1 edges and an end attachment.

    Pass 1 attaches ends floor by floor and collects the distinct flow
    profiles c_p, the weight crossing gap p; pass 2 adds, floor by floor,
    outgoing edges carrying exactly the flow each gap still lacks.  The
    budget S = sum(cap_p) - (a + g - 1) pays both the shortfall
    sum(cap_p - c_p) and the costs (j - i)*w - 1 of the non-short edges,
    and a diagram has a + g - 1 edges exactly when nothing of S is left.
    """
    w_left, w_right = tuple(w_left), tuple(w_right)
    if sum(w_left) != a * k + sum(w_right):
        raise ValueError("sum(w_left) must equal a*k + sum(w_right)")
    caps = [min(sum(w_left) - p * k, (a - p) * k + sum(w_right)) for p in range(a)]
    budget = sum(caps[1:]) - (a + g - 1)
    if a + g - 1 < 0 or budget < 0:
        return []
    profiles = {p for p, _, _ in end_attachments(k, a, w_left, w_right, caps, budget)}
    diagrams = []
    for profile in sorted(profiles):
        c, flow, edges = profile + (0,), [0] * (a + 1), []

        def leave(p: int, need: int, last: tuple[int, int], spare: int, room: int):
            # edges out of floor p, in non-increasing (weight, target) order
            if p == a:  # every gap is full, so the edges spent the budget
                diagram = FloorDiagram(a, k, tuple(edges))
                if not connected or diagram.is_connected():
                    diagrams.append(diagram)
                return
            if need == 0:
                leave(p + 1, c[p + 1] - flow[p + 1], (c[p + 1], a), spare, room)
                return
            if need - room > spare:  # an edge of weight w costs at least w - 1
                return
            for w in range(min(need, last[0], spare + 1), 0, -1):
                if need > w * room:
                    return
                for j in range(p + 1, (last[1] if w == last[0] else a) + 1):
                    cost = (j - p) * w - 1
                    if cost > spare or (j - 1 > p and flow[j - 1] + w > c[j - 1]):
                        break
                    for q in range(p + 1, j):
                        flow[q] += w
                    edges.append((p, j, w))
                    leave(p, need - w, (w, j), spare - cost, room - 1)
                    edges.pop()
                    for q in range(p + 1, j):
                        flow[q] -= w

        leave(1, c[1], (c[1], a), sum(c) - (a + g - 1), a + g - 1)
    return diagrams


def marked_mult_gw(diagram, w_left, w_right) -> GWElement:
    bounded = [edge_factor(w) for _, _, w in diagram.edges]
    ends = [edge_factor(w) for w in tuple(w_left) + tuple(w_right)]
    return product(bounded + bounded + ends)


def _without(weights, removed) -> tuple[int, ...]:
    return tuple((Counter(weights) - Counter(removed)).elements())


def floor_count(k, a, w_left, w_right, g, connected=False) -> GWElement:
    """Every diagram and its markings, one at a time; ``connected`` keeps
    the connected diagrams and no horizontal lines."""
    total = ZERO
    shared = sorted((Counter(w_left) & Counter(w_right)).elements())
    lines = {c for n in range(len(shared) + 1) for c in combinations(shared, n)}
    for free in lines:  # the weights of the bare horizontal line components
        if connected and free:
            continue
        wl, wr = _without(w_left, free), _without(w_right, free)
        for diagram in enumerate_diagrams(k, a, g + len(free), wl, wr, connected):
            nu = count_markings(diagram, wl, wr, free)
            total = total + nu * marked_mult_gw(diagram, wl, wr)
    return total


def delta_floor_count(d, g) -> GWElement:
    return floor_count(1, d, (1,) * d, (), g)


def severi_count(d, delta) -> GWElement:
    return delta_floor_count(d, max_genus(d) - delta)


@dataclass(frozen=True)
class Template:
    """A gap-free block on vertices 0..length: no short edge (i, i + 1, 1),
    edges at both ends, and every inner vertex bypassed by some edge."""

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


def enumerate_templates(delta):
    """All templates of cogenus between 1 and delta, ordered by
    (cogenus, length, edges): every multiset of edges within the budget
    that ``Template`` accepts.  Every edge costs (j-i)*w - 1 >= 1, and the
    spans cover 1..l-1, so l <= delta + 1 and w <= delta + 1."""
    out = []
    for length in range(1, delta + 2):
        candidates = [
            (i, j, w)
            for i in range(length)
            for j in range(i + 1, length + 1)
            for w in range(1, delta + 2)
            if (j - i, w) != (1, 1) and (j - i) * w - 1 <= delta
        ]

        def rec(start, chosen, budget):
            if chosen:
                try:
                    out.append(Template(length, tuple(chosen)))
                except ValueError:
                    pass
            for idx in range(start, len(candidates)):
                i, j, w = candidates[idx]
                cost = (j - i) * w - 1
                if cost <= budget:
                    chosen.append(candidates[idx])
                    rec(idx, chosen, budget - cost)
                    chosen.pop()

        rec(0, [], delta)
    return tuple(sorted(set(out), key=lambda t: (t.cogenus, t.length, t.edges)))


def template_placement_data(t, d):
    """(k_min, k_max, nu) for placements of t in degree-d diagrams.

    Vertex 0 of the ambient diagram only has weight-1 outgoing edges, so
    k_min is 1 when vertex 0 of the template carries heavier ones.  The gap
    after position p carries total weight d - p, so the template's
    outgoing-plus-bypassing weight bounds k_max.  nu(k) counts orderings of
    the template's black vertices inside its span, interleaved with the
    parallel weight-1 edges filling each gap up to its flow.
    """
    k_min = 1 if any(i == 0 and w > 1 for i, _, w in t.edges) else 0
    crossings = [
        sum(w for i, j, w in t.edges if i <= v < j) for v in range(t.length)
    ]
    k_max = min(min(d - v - c for v, c in enumerate(crossings)), d - t.length)

    def nu(k):
        if not (k_min <= k <= k_max):
            return 0
        classes = [(i, j - 1, m) for (i, j, w), m in Counter(t.edges).items()]
        for v, c in enumerate(crossings):
            classes.append((v, v, d - k - v - c))
        return count_interleavings(t.length, classes)

    return k_min, k_max, nu


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
