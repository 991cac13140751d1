"""Floor diagrams, markings, and their quadratic-form counts.

A floor diagram lives on ordered floors 1..a; edges point to the larger
floor and carry positive weights.  A marking subdivides every edge with a
black vertex, attaches the left/right end weights to floors (so that every
floor ends up with divergence k), and totally orders all vertices
compatibly.  Markings are counted up to isomorphisms fixing the floors, so
parallel strands of identical weight are interchangeable.

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
from math import factorial

from .ch import weighted_partitions, max_genus
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
    arbitrarily, so each distribution contributes the product over gaps of
    multinomial coefficients.
    """
    classes = [c for c in classes if c[2] > 0]

    def rec(idx: int, loads: tuple[tuple[int, ...], ...]) -> int:
        if idx == len(classes):
            value = 1
            for gap_loads in loads:
                n = sum(gap_loads)
                m = factorial(n)
                for c in gap_loads:
                    m //= factorial(c)
                value *= m
            return value
        lo, hi, count = classes[idx]
        total = 0
        for comp in _compositions(count, hi - lo + 1):
            new_loads = tuple(
                loads[g] + ((comp[g - lo],) if lo <= g <= hi else ())
                for g in range(num_gaps)
            )
            total += rec(idx + 1, new_loads)
        return total

    return rec(0, tuple(() for _ in range(num_gaps)))


def _distributions(weights, floors: int):
    """Multiset assignments of the given weights to floors 1..floors."""
    groups = sorted(Counter(weights).items())

    def rec(gi: int, acc: tuple[tuple[int, ...], ...]):
        if gi == len(groups):
            yield acc
            return
        w, count = groups[gi]
        for comp in _compositions(count, floors):
            yield from rec(
                gi + 1,
                tuple(acc[v] + (w,) * comp[v] for v in range(floors)),
            )

    empty = tuple(() for _ in range(floors))
    yield from rec(0, empty)


def _attachments(diagram: FloorDiagram, w_left, w_right):
    """End attachments making every floor's divergence equal to k."""
    a, k = diagram.floors, diagram.k
    needs = [k - diagram.div(v) for v in range(1, a + 1)]
    w_left, w_right = tuple(w_left), tuple(w_right)
    if not w_right and set(w_left) <= {1}:
        # unit left ends only: the assignment is forced
        if all(n >= 0 for n in needs) and sum(needs) == len(w_left):
            yield tuple((1,) * n for n in needs), tuple(() for _ in needs)
        return
    for left in _distributions(w_left, a):
        rights_needed = [sum(left[v]) - needs[v] for v in range(a)]
        if any(r < 0 for r in rights_needed) or sum(rights_needed) != sum(w_right):
            continue
        for right in _distributions(w_right, a):
            if all(sum(right[v]) == rights_needed[v] for v in range(a)):
                yield left, right


def count_markings(diagram: FloorDiagram, w_left, w_right, free=()) -> int:
    """Number of markings up to equivalence fixing the floors.

    ``free`` lists the weights of horizontal line components (one marked
    point each, ordered freely against everything else).
    """
    a = diagram.floors
    if sum(w_left) != a * diagram.k + sum(w_right):
        raise ValueError("weights do not match the diagram degree")
    total = 0
    for left, right in _attachments(diagram, w_left, w_right):
        classes = [(i, j - 1, m) for (i, j, w), m in Counter(diagram.edges).items()]
        for v in range(a):
            for w, m in Counter(left[v]).items():
                classes.append((0, v, m))  # black end vertex before floor v+1
            for w, m in Counter(right[v]).items():
                classes.append((v + 1, a, m))  # black end vertex after floor v+1
        for w, m in Counter(free).items():
            classes.append((0, a, m))
        total += count_interleavings(a + 1, classes)
    return total


def _free_line_multisets(w_left, w_right):
    """Multisets of weights usable as horizontal line components."""
    shared = Counter(w_left) & Counter(w_right)
    weights = sorted(shared)

    def rec(idx: int, acc: tuple[int, ...]):
        if idx == len(weights):
            yield acc
            return
        w = weights[idx]
        for count in range(shared[w] + 1):
            yield from rec(idx + 1, acc + (w,) * count)

    yield from rec(0, ())


def _remove_weights(weights, removed) -> tuple[int, ...]:
    c = Counter(weights)
    c.subtract(Counter(removed))
    out = []
    for w, m in sorted(c.items()):
        out.extend([w] * m)
    return tuple(out)


def _outgoing_multisets(v: int, a: int, max_total: int, max_count: int):
    """Multisets of (target, weight) edges leaving floor v, bounded total."""
    targets = range(v + 1, a + 1)

    def rec(min_item, total_left: int, count_left: int):
        yield ()
        if count_left == 0:
            return
        for j in targets:
            for w in range(1, total_left + 1):
                if (j, w) < min_item:
                    continue
                for rest in rec((j, w), total_left - w, count_left - 1):
                    yield ((j, w),) + rest

    yield from rec((0, 0), max_total, max_count)


def enumerate_diagrams(
    k: int,
    a: int,
    g: int,
    connected: bool = False,
    div_slack: int = 0,
    left_total: int | None = None,
):
    """All floor diagrams on a floors with #edges = a + g - 1.

    Divergence is capped by k plus ``div_slack`` (the total right-end
    weight: right ends lower the divergence during marking).  The total
    weight crossing the gap after floor p is capped by the flow bounds
    left_total - p*k and (a-p)*k + div_slack, which keeps the enumeration
    finite and sharp.
    """
    n_edges = a + g - 1
    if n_edges < 0:
        return []
    if left_total is None:
        left_total = a * k + div_slack
    caps = [
        min(left_total - p * k, (a - p) * k + div_slack) for p in range(a + 1)
    ]
    out = []

    def rec(v: int, in_weights: list[int], crossing: int, edges: list[Edge], left: int):
        if v == a:
            if left == 0 and in_weights[a] <= k + div_slack:
                diagram = FloorDiagram(a, k, tuple(edges))
                if not connected or diagram.is_connected():
                    out.append(diagram)
            return
        cap = caps[v] if v < len(caps) else 0
        max_out = cap - crossing + in_weights[v]
        if max_out < 0:
            return
        for outgoing in _outgoing_multisets(v, a, max_out, left):
            out_w = sum(w for _, w in outgoing)
            if in_weights[v] - out_w > k + div_slack:
                continue
            new_crossing = crossing + out_w - in_weights[v]
            if not 0 <= new_crossing <= cap:
                continue
            new_in = list(in_weights)
            for j, w in outgoing:
                new_in[j] += w
            rec(
                v + 1,
                new_in,
                new_crossing,
                edges + [(v, j, w) for j, w in outgoing],
                left - len(outgoing),
            )

    rec(1, [0] * (a + 1), 0, [], n_edges)
    return out


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
    if sum(w_left) != a * k + sum(w_right):
        raise ValueError("sum(w_left) must equal a*k + sum(w_right)")
    rank = signature = 0
    for free in _free_line_multisets(w_left, w_right):
        if connected and free:
            continue
        wl = _remove_weights(w_left, free)
        wr = _remove_weights(w_right, free)
        for diagram in enumerate_diagrams(
            k,
            a,
            g + len(free),
            connected=connected,
            div_slack=sum(wr),
            left_total=sum(wl),
        ):
            nu = count_markings(diagram, wl, wr, free)
            if nu:
                r, s = marked_mult(diagram, wl, wr)
                rank += nu * r
                signature += nu * s
    return gw_from_pair((rank, signature), w_left + w_right)


def delta_floor_count(d: int, g: int, connected: bool = False) -> GWElement:
    """Degree-d plane curve count via floor diagrams (unit left ends)."""
    return floor_count(1, d, (1,) * d, (), g, connected=connected)


def _severi_diagrams(d: int, delta: int):
    """Degree-d diagrams of cogenus delta, by their non-short content.

    A diagram is determined by its non-short edges plus, for each floor
    v >= 2, the shortfall 1 - div(v); both are bounded by the cogenus, and
    the parallel short edges fill every gap up to its exact crossing flow.
    """
    candidates = [
        (i, j, w)
        for i in range(1, d)
        for j in range(i + 1, d + 1)
        for w in range(1, delta + 2)
        if 1 <= (j - i) * w - 1 <= delta
    ]

    def nonshort_multisets(start: int, budget: int, chosen: list[Edge]):
        yield tuple(chosen), budget
        for idx in range(start, len(candidates)):
            cost = (candidates[idx][1] - candidates[idx][0]) * candidates[idx][2] - 1
            if cost <= budget:
                chosen.append(candidates[idx])
                yield from nonshort_multisets(idx, budget - cost, chosen)
                chosen.pop()

    for nonshort, rem in nonshort_multisets(0, delta, []):
        for gamma in weighted_partitions(rem):
            if len(gamma) > d - 1:
                continue
            deficits = [0] * (d + 1)
            for part, count in enumerate(gamma, start=1):
                deficits[part + 1] = count  # floor v = part + 1 lacks count
            edges = list(nonshort)
            feasible = True
            for p in range(1, d):
                crossing = sum(w for i, j, w in nonshort if i <= p < j)
                bypass = sum(deficits[v] for v in range(p + 1, d + 1))
                shorts = d - p - bypass - crossing
                if shorts < 0:
                    feasible = False
                    break
                edges.extend([(p, p + 1, 1)] * shorts)
            if feasible:
                diagram = FloorDiagram(d, 1, tuple(edges))
                assert diagram.genus == max_genus(d) - delta
                yield diagram


def severi_count(d: int, delta: int, connected: bool = False) -> GWElement:
    """Count of degree-d plane curves with delta nodes, via floor diagrams."""
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    rank = signature = 0
    w_left = (1,) * d
    for diagram in _severi_diagrams(d, delta):
        if connected and not diagram.is_connected():
            continue
        nu = count_markings(diagram, w_left, ())
        if nu:
            r, s = marked_mult(diagram, w_left, ())
            rank += nu * r
            signature += nu * s
    return gw_from_pair((rank, signature))


def hirzebruch_count(k: int, a: int, g: int, w_left, w_right) -> GWElement:
    """Floor diagram count for the trapezoid degree, all end weights odd."""
    w_left, w_right = tuple(w_left), tuple(w_right)
    if any(w % 2 == 0 for w in w_left + w_right):
        raise ValueError("all end weights must be odd")
    return floor_count(k, a, w_left, w_right, g)
