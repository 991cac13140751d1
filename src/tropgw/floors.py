"""Floor diagrams, markings, and their quadratic-form counts.

A floor diagram lives on ordered floors 1..a; edges point to the larger
floor and carry positive weights.  A marking subdivides every edge with a
black vertex, attaches the left/right end weights to floors (so that every
floor ends up with divergence k), and totally orders all vertices
compatibly.  Markings are counted up to isomorphisms fixing the floors, so
parallel strands of identical weight are interchangeable.

One enumerator serves every degree.  A diagram is fixed by its flow
profile, the weight c_p crossing the gap after floor p (set by where the
ends attach), and its non-short edges, every edge other than a weight-1
edge p -> p+1; the short edges fill each gap up to c_p.  With cap_p the
most flow gap p can carry, #edges = sum(c_p) - sum over non-short edges
of ((j - i)*w - 1), so the budget S = sum(cap_p) - (a + g - 1) splits into
the shortfall sum(cap_p - c_p) plus the non-short costs.  Both parts are
non-negative, and for plane curves S is the number of nodes.  Only
diagrams with an end attachment are built, so every one has a marking.

One walker attaches the ends, floor by floor, for both the enumerator and
the marking count.  The enumerator keeps the flow profiles whose shortfall
fits S; the marking count caps every gap at the diagram's own flow with no
shortfall allowed, which leaves exactly the attachments that give every
floor divergence k, and counts the vertex orders of each.

The curve counted by a marked diagram has one trivalent vertex per
floor/edge incidence, and the dual triangle of that vertex has area equal
to the edge weight.  Its quadratic-form multiplicity is therefore the
product over bounded edges of the squared edge factor

    w odd:  (w-1)/2 * H + <w>        w even:  w/2 * H

times one unsquared factor per end weight.  The counts run on exact
(rank, signature) pairs, multiplied componentwise; the edge factor's pair
is (w, w mod 2).  ``floor_count`` turns the total into the GW(Q) element
p*H + q*<+-W> with W the product of all end weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import comb

from .ch import max_genus
from .gw import GWElement, gw_from_pair

Edge = tuple[int, int, int]  # (source floor, target floor, weight), source < target


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

    def to_json(self) -> dict:
        return {
            "floors": self.floors,
            "k": self.k,
            "edges": [list(e) for e in self.edges],
        }


def edge_mult(w: int) -> tuple[int, int]:
    """(rank, signature) of the edge factor of weight w."""
    return w, w % 2


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


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def count_interleavings(num_gaps: int, classes) -> int:
    """Orderings of indistinguishable-within-class items into ordered gaps.

    ``classes`` lists (lo, hi, count): each class puts ``count`` identical
    items somewhere in gaps lo..hi.  Items in one gap can be permuted
    arbitrarily, so putting c more items of a class into a gap that holds
    ``load`` items multiplies the number of orderings by C(load + c, c).
    """
    classes = [c for c in classes if c[2] > 0]
    loads = [0] * num_gaps

    def rec(idx: int) -> int:
        if idx == len(classes):
            return 1
        lo, hi, count = classes[idx]
        total = 0
        for comp in _compositions(count, hi - lo + 1):
            ways = 1
            for gap, c in enumerate(comp, lo):
                ways *= comb(loads[gap] + c, c)
                loads[gap] += c
            total += ways * rec(idx + 1)
            for gap, c in enumerate(comp, lo):
                loads[gap] -= c
        return total

    return rec(0)


def _attachments(k: int, a: int, w_left, w_right, caps, spare: int):
    """End attachments, floor by floor, with the flow profile they give.

    Yields (profile, lefts, rights): profile[p] is the weight c_p crossing
    the gap after floor p (profile[0] = 0), and lefts[v] and rights[v]
    count the left and right ends of each distinct weight, in increasing
    order, attached to floor v+1.  Every c_p satisfies 0 <= c_p <= caps[p],
    the shortfall sum(caps[p] - c_p) stays within ``spare``, and floor a
    takes the ends that are left.  With spare 0 every c_p is caps[p].
    """
    n_left, n_right = Counter(w_left), Counter(w_right)
    l_weights, r_weights = sorted(n_left), sorted(n_right)

    def walk(v: int, rest_l, rest_r, profile, lefts, rights, spare: int):
        if v == a:
            yield profile, lefts + (rest_l,), rights + (rest_r,)
            return
        lo = max(0, caps[v] - spare)
        for left in product(*(range(m + 1) for m in rest_l)):
            gain = profile[-1] - k + sum(w * n for w, n in zip(l_weights, left))
            if gain < lo:
                continue
            for right in product(*(range(m + 1) for m in rest_r)):
                c = gain - sum(w * n for w, n in zip(r_weights, right))
                if lo <= c <= caps[v]:
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
    for _, lefts, rights in _attachments(diagram.k, a, w_left, w_right, flows, 0):
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
    profiles = {p for p, _, _ in _attachments(k, a, w_left, w_right, caps, budget)}
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


def floor_count(
    k: int,
    a: int,
    w_left,
    w_right,
    g: int,
    connected: bool = False,
) -> GWElement:
    """Sum of marking counts weighted by marked multiplicities.

    By default disconnected curves are included (their total genus is
    #edges - #floors + 1 - #horizontal components), matching the lattice
    path and recursion counts.  A curve may have components that are bare
    horizontal lines: each pairs a left with an equal-weight right end,
    meets one point, and multiplies the count by <w^2> = <1>.
    ``connected=True`` restricts to connected single-component curves.
    """
    w_left, w_right = tuple(w_left), tuple(w_right)
    if a < 1:
        raise ValueError("need at least one floor")
    if any(w < 1 for w in w_left + w_right):
        raise ValueError("end weights must be positive")
    rank = signature = 0
    n_left, n_right = Counter(w_left), Counter(w_right)
    shared = n_left & n_right
    for lines in product(*(range(m + 1) for m in shared.values())):
        if connected and any(lines):
            continue
        n_free = Counter(dict(zip(shared, lines)))
        wl = tuple((n_left - n_free).elements())
        wr = tuple((n_right - n_free).elements())
        free = tuple(n_free.elements())
        for diagram in enumerate_diagrams(k, a, g + len(free), wl, wr, connected):
            nu = count_markings(diagram, wl, wr, free)
            r, s = marked_mult(diagram, wl, wr)
            rank += nu * r
            signature += nu * s
    return gw_from_pair((rank, signature), w_left + w_right)


def delta_floor_count(d: int, g: int, connected: bool = False) -> GWElement:
    """Degree-d plane curve count via floor diagrams (unit left ends)."""
    return floor_count(1, d, (1,) * d, (), g, connected=connected)


def severi_count(d: int, delta: int, connected: bool = False) -> GWElement:
    """Count of degree-d plane curves with delta nodes, via floor diagrams."""
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    return delta_floor_count(d, max_genus(d) - delta, connected=connected)


def hirzebruch_count(k: int, a: int, g: int, w_left, w_right) -> GWElement:
    """Floor diagram count for the trapezoid degree, all end weights odd."""
    w_left, w_right = tuple(w_left), tuple(w_right)
    if any(w % 2 == 0 for w in w_left + w_right):
        raise ValueError("all end weights must be odd")
    return floor_count(k, a, w_left, w_right, g)
