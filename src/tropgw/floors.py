"""Floor diagrams, markings, and their quadratic-form counts.

A floor diagram lives on ordered floors 1..a; edges point to the larger
floor and carry positive weights.  A marking subdivides every edge with a
black vertex, attaches the left/right end weights to floors (so that every
floor ends up with divergence k), and totally orders all vertices
compatibly.  Markings are counted up to isomorphisms fixing the floors, so
parallel strands of identical weight are interchangeable.

No diagram object is built.  A diagram is fixed by its flow
profile, the weight c_p crossing the gap after floor p (set by where the
ends attach), and its non-short edges, every edge other than a weight-1
edge p -> p+1; the short edges fill each gap up to c_p.  With cap_p the
most flow gap p can carry, #edges = sum(c_p) - sum over non-short edges
of ((j - i)*w - 1), so the budget S = sum(cap_p) - (a + g - 1) splits into
the shortfall sum(cap_p - c_p) plus the non-short costs.  Both parts are
non-negative, and for plane curves S is the number of nodes.

``_line_free`` counts the curves without bare horizontal lines: it alone
sets the caps and S, returns 0 when S or a + g - 1 is negative, runs one
of the two engines below and multiplies in the end factors.  ``_count``
adds the lines: a bare horizontal line pairs a left with an equal-weight
right end and meets one point, placed anywhere among the others.

Counts with right ends (the Hirzebruch rays) run ``_walk``.
``_attachments`` attaches the ends floor by floor, once, keeping the flow
profiles whose shortfall fits S, and the attachments are grouped by
profile.  ``_edge_tuples`` then adds, floor by floor, outgoing edges
carrying exactly the flow each gap still lacks.  Every attachment of a
profile gives each of its diagrams divergence k on every floor, so the
markings of one edge tuple are the vertex orders summed over the
profile's attachments (``count_interleavings``, the sum of the table
{load vector: orderings} that the templates share).

Counts without right ends (every plane curve count, the relative counts
with free left ends, left-end-only Hirzebruch counts) run one transfer,
``_sweep``, through gap 0, floor 1, gap 1, ..., floor a, which sums
nu(D) * mult(D) over all diagrams at once.  The left ends are the edges
out of a floor 0, as in the templates, and the state holds only counts of
edges not yet placed or not yet given a target, so diagrams that agree on
them share one entry.  Heavy, distinct end weights give every
state its own entry, so on the rays a transfer would share nothing and
only add its bookkeeping.  Where states do merge, the gain is large:
``severi_count(8, 8)`` took 74 s one diagram at a time and takes 0.1 s by
the transfer (Python 3.11, 2 CPUs).

Connected counts, which neither engine can see, follow from the
line-free counts by the exponential formula (``_connected``): a connected
curve with a floor has no line component, and a line-free curve splits
into its component through the first point, which has a floor, and a
line-free curve through the other points.

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

from collections import Counter, defaultdict
from itertools import product
from math import comb, factorial, prod

from .ch import max_genus, weighted_partitions
from .gw import GWElement, gw_from_pair


def edge_mult(w: int) -> tuple[int, int]:
    """(rank, signature) of the edge factor of weight w."""
    return w, w % 2


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _spread_table(num_gaps: int, classes) -> dict[tuple[int, ...], int]:
    """{load vector: orderings} of identical-within-class items in ordered gaps.

    ``classes`` lists (lo, hi, count): each class puts ``count`` identical
    items somewhere in gaps lo..hi.  Items in one gap can be permuted
    arbitrarily, so putting c more items of a class into a gap that holds
    ``load`` items multiplies the orderings by C(load + c, c).  A load
    vector maps to the orderings summed over the spreads that give it.
    """
    table = {(0,) * num_gaps: 1}
    for lo, hi, count in classes:
        if not count:
            continue
        grown: dict[tuple[int, ...], int] = {}
        for loads, ways in table.items():
            for comp in _compositions(count, hi - lo + 1):
                new = list(loads)
                spread = ways
                for gap, c in enumerate(comp, lo):
                    spread *= comb(new[gap] + c, c)
                    new[gap] += c
                key = tuple(new)
                grown[key] = grown.get(key, 0) + spread
        table = grown
    return table


def count_interleavings(num_gaps: int, classes) -> int:
    """Orderings of identical-within-class items in ordered gaps, summed
    over every load vector of ``_spread_table(num_gaps, classes)``."""
    return sum(_spread_table(num_gaps, classes).values())


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


def _edge_tuples(a: int, n_edges: int, profile):
    """The edges of every diagram on a floors with ``n_edges`` edges whose
    flow profile is ``profile``, one tuple of (i, j, w) per diagram.

    Floor by floor, the outgoing edges carry exactly the flow each gap
    still lacks.  The spare sum(c_p) - n_edges pays the costs (j - i)*w - 1
    of the non-short edges, and a diagram has ``n_edges`` edges exactly
    when nothing of it is left.
    """
    c, flow, edges = profile + (0,), [0] * (a + 1), []

    def leave(p: int, need: int, last: tuple[int, int], spare: int, room: int):
        # edges out of floor p, in non-increasing (weight, target) order
        if p == a:  # every gap is full, so the edges spent the spare
            yield tuple(edges)
            return
        if need == 0:
            yield from leave(p + 1, c[p + 1] - flow[p + 1], (c[p + 1], a), spare, room)
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
                yield from leave(p, need - w, (w, j), spare - cost, room - 1)
                edges.pop()
                for q in range(p + 1, j):
                    flow[q] -= w

    yield from leave(1, c[1], (c[1], a), sum(c) - n_edges, n_edges)


def _walk(
    k: int, a: int, w_left, w_right, n_edges: int, caps, budget: int
) -> tuple[int, int]:
    """(rank, signature) of sum nu(D) * mult(D) over every diagram with
    ends ``w_left`` and ``w_right`` and ``n_edges`` edges, no lines.

    The end attachments are walked once within the budget S and grouped
    by flow profile; every diagram of a profile has the profile's
    attachments, and nu(D) sums their vertex orders.
    """
    attachments = defaultdict(list)  # flow profile -> end classes per attachment
    for profile, lefts, rights in _attachments(k, a, w_left, w_right, caps, budget):
        ends = []
        for v in range(a):  # black end vertices before / after floor v+1
            ends += [(0, v, m) for m in lefts[v]]
            ends += [(v + 1, a, m) for m in rights[v]]
        attachments[profile].append(ends)
    rank = signature = 0
    for profile, ends in attachments.items():
        for edges in _edge_tuples(a, n_edges, profile):
            classes = [(i, j - 1, m) for (i, j, _), m in Counter(edges).items()]
            nu = sum(count_interleavings(a + 1, classes + e) for e in ends)
            r = s = nu
            for _, _, w in edges:  # bounded edges count twice
                er, es = edge_mult(w)
                r *= er * er
                s *= es * es
            rank += r
            signature += s
    return rank, signature


def _takes(items, need: int, ordered: bool):
    """Every way to take x_i <= n_i items of each class (w_i, n_i) in
    ``items`` whose taken weight sum(w_i * x_i) is at least ``need``.

    Returns (xs, weight, ways) triples.  ``ways`` is the number of
    orderings (sum x_i)! / prod(x_i!) of the taken items in one gap if
    ``ordered``, else the number prod C(n_i, x_i) of subsets taken.
    """
    reach = [0] * (len(items) + 1)  # reach[i]: the weight of classes i, i+1, ...
    for i in range(len(items) - 1, -1, -1):
        reach[i] = reach[i + 1] + items[i][0] * items[i][1]
    found = []

    def take(i: int, xs: tuple, weight: int, load: int, ways: int):
        if i == len(items):
            found.append((xs, weight, ways))
            return
        w, n = items[i]
        for x in range(max(0, -((weight + reach[i + 1] - need) // w)), n + 1):
            step = comb(load + x, x) if ordered else comb(n, x)
            take(i + 1, xs + (x,), weight + w * x, load + x, ways * step)

    take(0, (), 0, 0, 1)
    return found


def _sweep(k: int, a: int, w_left, n_edges: int, budget: int) -> tuple[int, int]:
    """(rank, signature) of sum nu(D) * mult(D) over every diagram with
    left ends ``w_left``, no right ends and ``n_edges`` edges.

    One transfer runs through gap 0, floor 1, gap 1, ..., floor a, and
    counts the orders of the markings of every diagram at once.  The left
    ends are the edges out of a floor 0, as in Fomin-Mikhalkin.  A state
    is (waiting, strands, started): the classes (w, n) of edges started at
    one floor whose black vertex is not yet placed, the left ends being
    floor 0's class of each weight (edges from different floors are
    different classes, so each class is kept apart, though not its
    floor); per weight, the placed black vertices of edges whose target is
    not yet chosen; and the number of edges started at floors 1..a.

    A gap places items, in load! / prod(n!) orders, and placed items of
    one weight join one strand count.  A floor picks the edges that end on
    it among the placed ones: picking C(placed, m) of them, gap by gap,
    counts every labelling of the placed items once (Vandermonde), and
    which of them are left ends changes nothing after.  It then starts
    edges whose weights partition its out-flow, at (w^2, w mod 2) each:
    the partitions come from ``ch.weighted_partitions`` with the
    part-count bounds below, and their classes (w, n) are read off once
    per (out-flow, bounds).  With cap_q = (a - q) * k the most flow gap q
    carries, the edges started at floors 1..v are at least
    sum(cap_q, q <= v) - S, where S is the budget of the module docstring,
    and at most ``n_edges``; at floor a - 1 the two bounds meet.  After
    floor v the edges not yet ended weigh (a - v) * k, so the gap before
    floor a, which must hand floor a at least k, places everything, and
    floor a ends every state with divergence k and no edge to start.
    """
    starts = {}  # (out-flow, fewest, most) -> [(classes, #edges, rank, signature)]

    def start_edges(out: int, fewest: int, most: int):
        key = (out, fewest, most)
        if key not in starts:
            starts[key] = []
            for gamma in weighted_partitions(out, fewest, most):
                classes = tuple((w, n) for w, n in enumerate(gamma, 1) if n)
                rank = prod(w ** (2 * n) for w, n in classes)
                signature = prod((w % 2) ** n for w, n in classes)
                starts[key].append((classes, sum(gamma), rank, signature))
        return starts[key]

    states = {(tuple(sorted(Counter(w_left).items())), (), 0): (1, 1)}
    least = -budget  # sum(cap_q, q <= v) - S: the fewest edges floors 1..v start
    for v in range(a):
        if v:  # floor v
            least += (a - v) * k
            after = {}
            for (waiting, strands, started), (r, s) in states.items():
                fewest, most = max(least - started, 0), n_edges - started
                for xs, inflow, ways in _takes(strands, k + fewest, False):
                    kept = tuple((w, n - x) for (w, n), x in zip(strands, xs) if n > x)
                    for classes, parts, rank, signature in start_edges(
                        inflow - k, fewest, most
                    ):
                        key = (tuple(sorted(waiting + classes)), kept, started + parts)
                        old_r, old_s = after.get(key, (0, 0))
                        after[key] = (
                            old_r + r * ways * rank,
                            old_s + s * ways * signature,
                        )
            states = after
        # gap v
        after = {}
        for (waiting, strands, started), (r, s) in states.items():
            # floor v + 1 takes k plus one unit per edge it must start
            held = sum(w * n for w, n in strands)
            fewest = max(least + (a - v - 1) * k - started, 0)
            for xs, _, ways in _takes(waiting, k + fewest - held, True):
                merged = dict(strands)
                rest = []
                for (w, n), x in zip(waiting, xs):
                    if x:
                        merged[w] = merged.get(w, 0) + x
                    if n > x:
                        rest.append((w, n - x))
                key = (tuple(sorted(rest)), tuple(sorted(merged.items())), started)
                old_r, old_s = after.get(key, (0, 0))
                after[key] = (old_r + r * ways, old_s + s * ways)
        states = after
    # floor a takes the weight k left, so every state ends here
    rank = sum(r for r, _ in states.values())
    signature = sum(s for _, s in states.values())
    return rank, signature


def _line_free(k: int, a: int, w_left, w_right, g: int) -> tuple[int, int]:
    """(rank, signature) of the count of curves of genus g without bare
    horizontal lines: sum nu(D) * mult(D) over every diagram with a + g - 1
    edges, times the end factors.

    The caps and the budget S of the module docstring are set here, for
    both engines: ``_walk`` when there are right ends, ``_sweep`` when
    there are none.
    """
    n_edges = a + g - 1
    caps = [min(sum(w_left) - p * k, (a - p) * k + sum(w_right)) for p in range(a)]
    budget = sum(caps[1:]) - n_edges
    if n_edges < 0 or budget < 0:
        return 0, 0
    # Right ends keep the walk: as edges into a floor a + 1 of the transfer,
    # each partition of a floor's heavy out-flow is its own state (the floors
    # benchmark batch ran 2.3x slower that way, ray 3 5.5x).
    if w_right:
        rank, signature = _walk(k, a, w_left, w_right, n_edges, caps, budget)
    else:
        rank, signature = _sweep(k, a, w_left, n_edges, budget)
    for w in w_left + w_right:
        er, es = edge_mult(w)
        rank *= er
        signature *= es
    return rank, signature


def _splits(weights):
    """Every split of the multiset ``weights`` in two, as sorted tuples."""
    n = Counter(weights)
    for taken in product(*(range(m + 1) for m in n.values())):
        part = Counter(dict(zip(n, taken)))
        yield tuple(sorted(part.elements())), tuple(sorted((n - part).elements()))


def _line_orders(n_points: int, lines) -> int:
    """The ways to put the horizontal lines of weights ``lines``, one point
    each, among ``n_points`` ordered points; lines of one weight are alike."""
    ways = factorial(n_points) // factorial(n_points - len(lines))
    return ways // prod(map(factorial, Counter(lines).values()))


def _count(k: int, a: int, w_left, w_right, g: int) -> tuple[int, int]:
    """(rank, signature) of the count of every curve, disconnected ones
    and bare horizontal lines included: per set of lines, the line-free
    count of the other ends, with each line given one of the points."""
    n_left, n_right = Counter(w_left), Counter(w_right)
    n_points = 2 * a + g - 1 + len(w_left) + len(w_right)
    rank = signature = 0
    for lines, _ in _splits((n_left & n_right).elements()):
        wl = tuple((n_left - Counter(lines)).elements())
        wr = tuple((n_right - Counter(lines)).elements())
        r, s = _line_free(k, a, wl, wr, g + len(lines))
        if r:
            ways = _line_orders(n_points, lines)
            rank += ways * r
            signature += ways * s
    return rank, signature


def _connected(k: int, a: int, w_left, w_right, g: int) -> tuple[int, int]:
    """(rank, signature) of the count of connected curves, by the
    exponential formula over line-free curves.

    A connected curve with a floor has no bare horizontal line, and every
    component of a line-free curve has a floor.  A line-free curve of the
    configuration C (a floors, the end lists, genus g) passes through
    n = 2a + g - 1 + #ends points.  Its component through the first point
    is a connected curve of a sub-configuration C_1 (1 <= a_1 <= a floors,
    a sub-multiset of each end list, genus g_1 >= 0) through n_1 of the
    points, and the rest is a line-free curve of C - C_1, of genus
    g - g_1 + 1, through the other n - n_1: C(n - 1, n_1 - 1) choices of
    points.  With a_1 = a the rest has no floor, so it is empty and C_1 is
    C.  So N_conn(C) is N'(C), the line-free count, less the splits with
    a_1 < a.  Ends of one weight carry no labels.  Both counts are kept per
    configuration for this call only.
    """
    if g < 0:  # a connected curve has genus >= 0
        return 0, 0
    counts, connected = {}, {}

    def count(a, wl, wr, g):
        key = (a, wl, wr, g)
        if key not in counts:
            counts[key] = _line_free(k, a, wl, wr, g)
        return counts[key]

    def conn(a, wl, wr, g):
        key = (a, wl, wr, g)
        if key in connected:
            return connected[key]
        rank, signature = count(a, wl, wr, g)
        if not rank:  # no line-free curve at all, so no connected one
            return 0, 0
        n_points = 2 * a + g - 1 + len(wl) + len(wr)
        for wl1, wl2 in _splits(wl):
            for wr1, wr2 in _splits(wr):
                for a1 in range(1, a):
                    least = 2 * a1 - 1 + len(wl1) + len(wr1)  # n_1 at genus 0
                    if sum(wl1) != a1 * k + sum(wr1):
                        continue
                    for g1 in range(n_points - least + 1):
                        r2, s2 = count(a - a1, wl2, wr2, g - g1 + 1)
                        if not r2:
                            continue
                        r1, s1 = conn(a1, wl1, wr1, g1)
                        ways = comb(n_points - 1, least + g1 - 1)
                        rank -= ways * r1 * r2
                        signature -= ways * s1 * s2
        connected[key] = rank, signature
        return connected[key]

    return conn(a, tuple(sorted(w_left)), tuple(sorted(w_right)), g)


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
    ``connected=True`` restricts to connected single-component curves,
    which have a floor and so no line.

    Each set of lines leaves a line-free count of the other ends
    (``_line_free``).  Without right ends it sums every diagram at once by
    the gap-by-gap transfer ``_sweep``; with right ends ``_walk`` counts
    the markings of each diagram, one flow profile at a time.  Connected
    counts follow from the line-free counts by the exponential formula.
    """
    w_left, w_right = tuple(w_left), tuple(w_right)
    if a < 1:
        raise ValueError("need at least one floor")
    if any(w < 1 for w in w_left + w_right):
        raise ValueError("end weights must be positive")
    if sum(w_left) != a * k + sum(w_right):
        raise ValueError("sum(w_left) must equal a*k + sum(w_right)")
    pair = (_connected if connected else _count)(k, a, w_left, w_right, g)
    return gw_from_pair(pair, w_left + w_right)


def delta_floor_count(d: int, g: int, connected: bool = False) -> GWElement:
    """Degree-d plane curve count via floor diagrams (unit left ends)."""
    return floor_count(1, d, (1,) * d, (), g, connected=connected)


def severi_count(d: int, delta: int) -> GWElement:
    """Count of degree-d plane curves with delta nodes, via floor diagrams."""
    if d < 1 or delta < 0:
        raise ValueError("need d >= 1 and delta >= 0")
    return delta_floor_count(d, max_genus(d) - delta)


def hirzebruch_count(k: int, a: int, g: int, w_left, w_right) -> GWElement:
    """Floor diagram count for the trapezoid degree, all end weights odd."""
    w_left, w_right = tuple(w_left), tuple(w_right)
    if any(w % 2 == 0 for w in w_left + w_right):
        raise ValueError("all end weights must be odd")
    return floor_count(k, a, w_left, w_right, g)
