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
sets the caps and S, returns 0 when S or a + g - 1 is negative, runs the
transfer below and multiplies in the end factors.  ``_count`` adds the
lines: a bare horizontal line pairs a left with an equal-weight right end
and meets one point, placed anywhere among the others.

Every line-free count runs one transfer, ``_sweep``, through gap 0, floor
1, gap 1, ..., floor a, gap a, which sums nu(D) * mult(D) over all
diagrams at once.  The left ends are the edges out of a floor 0, as in the
templates, and the right ends wait in a pool until a floor attaches them.
The state holds only counts of edges not yet placed or not yet given a
target, of right ends not yet attached or not yet placed, so diagrams that
agree on them share one entry.  Where states merge, the gain is large:
``severi_count(8, 8)`` took 74 s one diagram at a time and takes 0.1 s by
the transfer, and ``tropgw count --method floor --k 1 --a 5 --wl
1,1,1,1,1,1,1,1 --wr 1,1,1 --g 4``, whose small repeated end weights give
each flow profile many end attachments, took 12 min when every edge
tuple was summed over every attachment and takes 0.4 s (Python 3.11, 2
CPUs).  Heavy,
distinct end weights make every partition of a floor's out-flow its own
state; the transfer prunes the splits that later floors cannot take.

Connected counts, which the transfer cannot see, follow from the
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

from collections import Counter
from functools import cache
from itertools import product
from math import comb, factorial, prod
from operator import mul, sub

from .ch import max_genus, weighted_partitions
from .gw import GWElement, gw_from_pair


def edge_mult(w: int) -> tuple[int, int]:
    """(rank, signature) of the edge factor of weight w."""
    return w, w % 2


def _takes(items, need: int, ordered: bool, allowed: int | None = None):
    """Every way to take x_i <= n_i items of each class (w_i, n_i) in
    ``items`` whose taken weight sum(w_i * x_i) is at least ``need`` and,
    if ``allowed`` is given, one of its bits.

    Returns (xs, weight, load, ways) with load = sum x_i.  ``ways`` is the
    number of orderings load! / prod(x_i!) of the taken items in one gap if
    ``ordered``, else the number prod C(n_i, x_i) of subsets taken.
    """
    reach = sum(w * n for w, n in items)  # the weight of the classes not yet taken
    found = [((), 0, 0, 1)]  # (xs, weight, load, ways) over the classes so far
    for w, n in items:
        reach -= w * n
        grown = []
        for xs, weight, load, ways in found:
            for x in range(max(0, -((weight + reach - need) // w)), n + 1):
                step = comb(load + x, x) if ordered else comb(n, x)
                grown.append((xs + (x,), weight + w * x, load + x, ways * step))
        found = grown
    if allowed is not None:
        return [take for take in found if allowed >> take[1] & 1]
    return found


def _orders(sizes) -> int:
    """(sum n)! / prod(n!): the orders of items in one gap, alike within
    each class of ``sizes``."""
    ways = factorial(sum(sizes))
    for n in sizes:
        ways //= factorial(n)
    return ways


def _place_edges(waiting, strands, need: int):
    """A gap's placements of the waiting edge vertices, at least ``need``
    in weight: (waiting left, strands after, #placed, orders)."""
    found = []
    for xs, _, placed, ways in _takes(waiting, need, True):
        merged = dict(strands)
        rest = []
        for (w, n), x in zip(waiting, xs):
            if x:
                merged[w] = merged.get(w, 0) + x
            if n > x:
                rest.append((w, n - x))
        found.append((tuple(sorted(rest)), tuple(sorted(merged.items())), placed, ways))
    return found


@cache
def _place_ends(rwait):
    """A gap's placements of y of the right-end vertices of the classes of
    sizes ``rwait``: (y, orders among themselves, the sizes left)."""
    return [
        (sum(ys), _orders(ys), tuple(sorted(n - y for n, y in zip(rwait, ys) if n > y)))
        for ys in product(*(range(n + 1) for n in rwait))
    ]


@cache
def _start_edges(out: int, fewest: int, most: int) -> tuple:
    """The edges a floor may start on out-flow ``out``, between ``fewest``
    and ``most`` of them: (classes, #edges, rank, signature) per partition
    of ``out``, with the classes (w, n) of ``ch.weighted_partitions`` and
    the pair of the edges' squared factors (w^2, w mod 2)."""
    return tuple(
        (
            classes,
            sum(n for _, n in classes),
            prod(w ** (2 * n) for w, n in classes),
            prod((w % 2) ** n for w, n in classes),
        )
        for classes in weighted_partitions(out, fewest, most)
    )


@cache
def _pick_strands(strands, need: int, allowed) -> tuple:
    """A floor's picks of the strands that end on it, weighing at least
    ``need`` (and one of the bits of ``allowed`` if given): (the strands
    kept, the picked weight, the subsets picked)."""
    return tuple(
        (tuple((w, n - x) for (w, n), x in zip(strands, xs) if n > x), inflow, ways)
        for xs, inflow, _, ways in _takes(strands, need, False, allowed)
    )


@cache
def _sums(items) -> int:
    """Bit e is set if some sub-multiset of the classes (w, n) of
    ``items`` weighs e."""
    bits = 1
    for w, n in items:
        for _ in range(n):
            bits |= bits << w
    return bits


def _sweep(
    k: int, a: int, w_left, w_right, n_edges: int, caps, budget: int
) -> tuple[int, int]:
    """(rank, signature) of sum nu(D) * mult(D) over every diagram with
    ends ``w_left`` and ``w_right`` and ``n_edges`` edges, no lines.

    One transfer runs through gap 0, floor 1, gap 1, ..., floor a, gap a,
    and counts the markings of every diagram at once.  A state is
    (waiting, strands, started, pool, rwait):
    - waiting: the classes (w, n) of edges started at one floor whose
      black vertex is not yet placed.  The left ends are floor 0's class
      of each weight, as in Fomin-Mikhalkin.  Edges from different floors
      are different classes, so each class is kept apart, though not its
      floor;
    - strands: per weight, the placed black vertices of edges whose target
      is not yet chosen;
    - started: the number of edges started at floors 1..v;
    - pool: per right-end weight, the right ends not yet attached;
    - rwait: the sizes of the classes of attached right ends whose black
      vertex is not yet placed, one class per floor and weight.

    A gap places edge and right-end vertices, in load! / prod(n!) orders.
    Placed edge vertices of one weight join one strand count, and placed
    right-end vertices leave the state.  A floor picks the edges that end
    on it among the placed ones: picking C(placed, m) of them, gap by gap,
    counts every labelling of the placed items once (Vandermonde), and
    which of them are left ends changes nothing after.  It attaches a
    sub-multiset of the pool, one way per count vector since ends of one
    weight are alike, and starts edges whose weights partition the rest of
    its out-flow, at (w^2, w mod 2) each.  The partitions come from
    ``ch.weighted_partitions`` with the part-count bounds below.

    With cap_q the most flow gap q carries, the edges started at floors
    1..v are at least sum(cap_q, q <= v) - S, where S is the budget of the
    module docstring, and at most ``n_edges``; at floor a - 1 the two
    bounds meet.  After floor v the edges not yet ended weigh (a - v) * k
    plus the weight of the pool, and floor a takes k plus the whole pool.
    So a floor that starts no edge takes k plus the right ends it attaches:
    a split that starts the last edge, or a placement before such a floor,
    survives only if that floor can take some of the edges not yet ended.
    After floor a - 1 every edge ends on floor a, so only class sizes
    matter and the last two gaps close in one sum (``finish``).  The
    tables of edge starts, strand picks and sub-multiset weights are pure
    functions of their arguments, kept for the process (``_start_edges``,
    ``_pick_strands``, ``_sums``); the tables below depend on k and the
    right weights and live for one call.  The placements of the waiting
    edges (``_place_edges``) are not kept at all: they are many and
    rarely asked twice, and a process-wide table of them raised the peak
    RSS of ``floor_count(7, 4, (10, 6, 5, 3, 3, 1), (), 3)`` from 49 to
    124 MiB.
    """
    r_weights = sorted(set(w_right))

    @cache
    def sub_pools(pool, rwait):
        # the sub-multisets a floor may attach, by increasing weight, with
        # the pool they leave, rwait after and the next floor's takes_of
        found = []
        for taken in product(*(range(n + 1) for n in pool)):
            left = tuple(map(sub, pool, taken))
            attached = tuple(sorted(rwait + tuple(n for n in taken if n)))
            found.append((sum(map(mul, r_weights, taken)), left, attached, takes_of(left)))
        return sorted(found)

    def takes_of(pool) -> int:
        # bit e: a floor that starts no edge may take in-flow e
        bits = _sums(tuple(zip(r_weights, pool)))
        return bits << k if k >= 0 else bits >> -k

    @cache
    def finish(waits, pool, rwait, most: int, inflow: int):
        # floor a - 1 with in-flow ``inflow``, then gaps a - 1 and a
        rank = signature = 0
        for weight, left, attached, _ in sub_pools(pool, rwait):
            out = inflow - k - weight
            if out < most:
                break
            rest = tuple(n for n in left if n)
            by_sizes = {}  # only the class sizes of the new edges matter
            for classes, _, r, s in _start_edges(out, most, most):
                sizes = waits + tuple(n for _, n in classes)
                old_r, old_s = by_sizes.get(sizes, (0, 0))
                by_sizes[sizes] = (old_r + r, old_s + s)
            for sizes, (r, s) in by_sizes.items():
                # gaps a - 1 and a: y of rwait go to gap a - 1 with every
                # edge vertex, and gap a takes the rest and the pool left
                ways = sum(
                    _orders(sizes + ys) * _orders(tuple(map(sub, attached, ys)) + rest)
                    for ys in product(*(range(n + 1) for n in attached))
                )
                rank += r * ways
                signature += s * ways
        return rank, signature

    pool = tuple(Counter(w_right)[w] for w in r_weights)
    waiting = tuple(sorted(Counter(w_left).items()))
    if a == 1:  # gap 0 places every left end, and floor 1 takes the pool
        return finish(tuple(n for _, n in waiting), pool, (), 0, k)
    states = {(waiting, (), 0, pool, ()): (1, 1)}
    least = -budget  # sum(cap_q, q <= v) - S: the fewest edges floors 1..v start
    rank = signature = 0
    for v in range(1, a):
        # gap v - 1: floor v takes k plus one unit per edge it must start
        after = {}
        for (waiting, strands, started, pool, rwait), (r, s) in states.items():
            held = sum(w * n for w, n in strands)
            need = max(k + least + caps[v] - started - held, k - held, 0)
            fits = takes_of(pool) if started == n_edges else 0
            for rest, merged, placed, ways in _place_edges(waiting, strands, need):
                if fits and not _sums(merged) & fits:
                    continue  # floor v cannot take k plus some of the pool
                if v == a - 1:  # an edge not placed by now ends on floor a:
                    rest = tuple(sorted(n for _, n in rest))  # only sizes matter
                for y, orders, unplaced in _place_ends(rwait):
                    ways_y = ways * orders * comb(placed + y, y)
                    key = (rest, merged, started, pool, unplaced)
                    old_r, old_s = after.get(key, (0, 0))
                    after[key] = (old_r + r * ways_y, old_s + s * ways_y)
        states = after
        # floor v
        least += caps[v]
        after = {}
        for (waiting, strands, started, pool, rwait), (r, s) in states.items():
            fewest, most = max(least - started, 0), n_edges - started
            allowed = None if most else takes_of(pool)
            for kept, inflow, ways in _pick_strands(strands, max(k + fewest, 0), allowed):
                if v == a - 1:
                    r_f, s_f = finish(waiting, pool, rwait, most, inflow)
                    rank += r * ways * r_f
                    signature += s * ways * s_f
                    continue
                for weight, left, attached, fits in sub_pools(pool, rwait):
                    out = inflow - k - weight
                    if out < fewest:
                        break
                    if out and not most:
                        continue
                    for classes, parts, r_e, s_e in _start_edges(out, fewest, most):
                        new_waiting = tuple(sorted(waiting + classes))
                        if started + parts == n_edges and not (
                            _sums(tuple(sorted(new_waiting + kept))) & fits
                        ):
                            continue  # floor v + 1 cannot take from the edges not yet ended
                        key = (new_waiting, kept, started + parts, left, attached)
                        old_r, old_s = after.get(key, (0, 0))
                        after[key] = (old_r + r * ways * r_e, old_s + s * ways * s_e)
        states = after
    return rank, signature


def _line_free(k: int, a: int, w_left, w_right, g: int) -> tuple[int, int]:
    """(rank, signature) of the count of curves of genus g without bare
    horizontal lines: sum nu(D) * mult(D) over every diagram with a + g - 1
    edges, times the end factors.  The caps and the budget S of the module
    docstring are set here for ``_sweep``.
    """
    n_edges = a + g - 1
    caps = [min(sum(w_left) - p * k, (a - p) * k + sum(w_right)) for p in range(a)]
    budget = sum(caps[1:]) - n_edges
    if n_edges < 0 or budget < 0:
        return 0, 0
    rank, signature = _sweep(k, a, w_left, w_right, n_edges, caps, budget)
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

    try:
        return conn(a, tuple(sorted(w_left)), tuple(sorted(w_right)), g)
    finally:
        conn = None  # the closure refers to itself through this cell


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
    (``_line_free``), which the gap-by-gap transfer ``_sweep`` sums over
    every diagram at once.  Connected counts follow from the line-free
    counts by the exponential formula.
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
