"""Caporaso-Harris style recursion for quadratic-form counts of plane curves.

Counts are indexed by degree d, genus g and two finitely supported
sequences: alpha (left ends of prescribed position, by weight) and beta
(free left ends, by weight), subject to I(alpha) + I(beta) = d.  Values are
exact (rank, signature) pairs, multiplied componentwise.  The recursion
either fixes one free end of weight k, at the cost of the pair of
(k-1)/2 * H + <k> (k odd) or k/2 * H (k even), which is (k, k mod 2),
or splits off a floor, passing to degree d - 1 with alpha' <= alpha,
beta' >= beta.  The degree-(d-1) term is weighted by the floor's own
multiplicity, binom(alpha, alpha') * binom(beta', beta) times the pair
(m, m mod 2) with m = I^(beta'-beta).

Genus bookkeeping allows negative g (counts of disconnected curves), so
the base case is the single line: degree 1 counts <1> at genus 0 and
nothing otherwise.  ``ch_count`` returns p*H + q*<+-I^beta>.

The genus enters each term only as a shift: fixing an end keeps g, and a
floor with |gamma| new free ends passes to g' = g - |gamma| + 1.  So the
recursion runs once per (d, alpha, beta) and returns the counts at every
genus.  Its range starts at 1 - 2d - |beta| and ends at max_genus(d),
outside of which nothing is counted, and both zero ends are trimmed.  A
term adds its child's counts, shifted by the floor's |gamma| - 1 and scaled
by the term's pair; every shifted child lies within the parent's range.

The counts of one entry are packed into two integers (Kronecker
substitution): R = sum r_i 2^(W i) and S = sum s_i 2^(W i), slot i holding
genus g_lo + i, so a term is one multiply, shift and add on each (none on
S when the term has an even weight, whose signature factor is 0).  Every
rank is >= 0 and |s_i| <= r_i, so the slots decode exactly while the total
T = sum r_i, which the terms carry as sum factor * T(child), stays below
2^(W-1).  The width W belongs to one count: each starts at ``_WIDTH`` bits
and, when an entry's total reaches the bound, doubles W and reruns.  An
entry records the width it is packed at, and a count that reads an entry
of another width, or a (g_lo, ranks, signatures) tuple as a cache loads
it, repacks it at its own width and stores it back.  A parent's total is
at least each child's, so a child that does not fit means the count needs
a wider W anyway.

What a term needs besides the child's counts depends on less than the
memo key, so it is built once per process: the floors of one
(d, beta, target), with their binomials (``_floor_terms``), and the
sub-sequences alpha' <= alpha with I(alpha') and binom(alpha, alpha')
(``_sub_alphas``).  Both are cached pure functions returning tuples.
The floors read the partitions gamma from one process-wide table,
``weighted_partitions``, which the floor transfer of ``floors`` reads
too: each partition is its sparse classes ((w, n), ...), so a floor
costs the number of its distinct weights, not its largest weight.

Sequences are checked once, where they enter: in ``ch_count`` (``trim``
and ``check_key``) and in the CLI's cache loader (``check_key``).  A canonical
sequence has no negative entry and no trailing zero; the recursion
receives canonical tuples and builds only canonical tuples, so every memo
key is canonical.

The memo table, keyed by (d, alpha, beta), is the only state a count
leaves behind besides those caches, and evaluation is single-threaded.
Merging tuple entries through ``memo_load`` is safe, since every insertion
for a key writes the same counts.
"""

from __future__ import annotations

from functools import cache
from itertools import count, product
from math import comb, prod
from operator import index, mul

from .gw import GWElement, gw_from_pair

Sequence = tuple[int, ...]


def _strip(seq) -> Sequence:
    """Drop trailing zeros; checks nothing."""
    seq = tuple(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def trim(seq) -> Sequence:
    """Canonical form: check that every entry is a nonnegative integer, drop
    trailing zeros."""
    seq = tuple(seq)
    try:
        seq = tuple(map(index, seq))
    except TypeError:
        raise ValueError("sequence entries must be integers") from None
    if any(n < 0 for n in seq):
        raise ValueError("sequence entries must be nonnegative")
    return _strip(seq)


def seq_stats(a) -> tuple[int, int, int]:
    """(|a|, I a, I^a) = (sum, weighted sum, weighted product)."""
    a = trim(a)
    size = sum(a)
    weighted = sum((i + 1) * n for i, n in enumerate(a))
    power = prod((i + 1) ** n for i, n in enumerate(a))
    return size, weighted, power


def _seq_add(a: Sequence, k: int, delta: int) -> Sequence:
    lst = list(a) + [0] * max(0, k - len(a))
    lst[k - 1] += delta
    return _strip(lst)


def _partitions(remaining: int, top: int, fewest: int, most: int):
    # parts of size at most ``top`` make up ``remaining``, as classes
    # (w, n) by increasing w
    if remaining == 0:
        if fewest <= 0 <= most:
            yield ()
        return
    for part in range(min(remaining, top), 0, -1):
        if remaining > part * most:  # smaller parts need even more of them
            return
        for n in range(min(remaining // part, most), 0, -1):
            rest = remaining - part * n
            if rest > (part - 1) * (most - n) or rest < fewest - n:
                continue
            for classes in _partitions(rest, part - 1, fewest - n, most - n):
                yield classes + ((part, n),)


# the table behind ``weighted_partitions``, which stays a plain function so
# that a wrapper around it sees every call
@cache
def _partition_table(total: int, fewest: int, most: int) -> tuple:
    return tuple(_partitions(total, total, fewest, most))


def weighted_partitions(total: int, fewest: int = 0, most: int | None = None) -> tuple:
    """Every partition of ``total`` with between ``fewest`` and ``most``
    parts (``most=None``: no bound), as its classes ((w, n), ...): n >= 1
    parts of weight w, w increasing.  One table per process and arguments."""
    return _partition_table(total, fewest, total if most is None else most)


_memo: dict = {}
_WIDTH = 80  # bits per genus slot a count starts at; every entry of degree <= 9 fits


def max_genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def check_key(d: int, alpha: Sequence, beta: Sequence) -> None:
    """ValueError unless d >= 1, alpha and beta are canonical tuples and
    I(alpha) + I(beta) = d."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if min(alpha + beta, default=0) < 0 or 0 in alpha[-1:] + beta[-1:]:
        raise ValueError(f"{alpha}, {beta}: a negative entry or a trailing zero")
    weight = sum(map(mul, alpha, count(1))) + sum(map(mul, beta, count(1)))
    if weight != d:
        raise ValueError(f"I(alpha) + I(beta) = {weight} != d = {d}")


def ch_count(d: int, g: int, alpha=(), beta=None) -> GWElement:
    """Count of degree-d genus-g curves with end data (alpha, beta).

    ``alpha`` lists prescribed-position left ends by weight, ``beta`` free
    left ends by weight; ``beta`` defaults to d ends of weight one.
    """
    alpha = trim(alpha)
    beta = trim(beta) if beta is not None else (d,)
    check_key(d, alpha, beta)
    g_lo, ranks, signatures, _, width = _counts(d, alpha, beta)
    i = g - g_lo
    if i < 0:
        pair = (0, 0)
    else:
        mask, at = (1 << width) - 1, width * i
        rank = (ranks >> at) & mask
        pair = (rank, ((ranks + signatures >> at) & mask) - rank)
    free_weights = [w for w, n in enumerate(beta, start=1) for _ in range(n)]
    return gw_from_pair(pair, free_weights)


def genus_floor(d: int, beta: Sequence) -> int:
    """Lowest genus at which (d, alpha, beta) can count anything."""
    return 1 - 2 * d - sum(beta)


@cache
def _floor_terms(d: int, beta: Sequence, target: int) -> tuple[tuple, ...]:
    """The floors of degree d whose new free ends gamma have I(gamma) =
    target: (|gamma| - 1, beta + gamma, b * I^gamma, b * (I^gamma mod 2))
    with b = binom(beta + gamma, beta); a floor shifts the genus by
    |gamma| - 1, at most d - 2, so gamma has at most d - 1 parts.  Only the
    classes (w, n) of gamma enter: b is the product of C(beta_w + n, n)."""
    terms = []
    for gamma in weighted_partitions(target, most=d - 1):
        beta_p = list(beta) + [0] * (gamma[-1][0] - len(beta) if gamma else 0)
        binom_beta = prod_gamma = 1
        for w, n in gamma:
            beta_p[w - 1] += n
            binom_beta *= comb(beta_p[w - 1], n)
            prod_gamma *= w**n
        terms.append((
            sum(n for _, n in gamma) - 1,
            tuple(beta_p),
            binom_beta * prod_gamma,
            binom_beta * (prod_gamma % 2),
        ))
    return tuple(terms)


@cache
def _sub_alphas(alpha: Sequence) -> tuple[tuple[int, Sequence, int], ...]:
    """Every alpha' <= alpha, as (I(alpha'), alpha' trimmed, binom(alpha, alpha'))."""
    return tuple(
        (sum(map(mul, alpha_p, count(1))), _strip(alpha_p), prod(map(comb, alpha, alpha_p)))
        for alpha_p in product(*(range(n + 1) for n in alpha))
    )


class _Overflow(Exception):
    """A total reached 2^(width - 1), so slots of this width may not decode.
    Raised out of the recursion, to ``_counts``."""


def _pack(values, width: int) -> int:
    """Sum of values[i] * 2^(width * i)."""
    return sum(v << (width * i) for i, v in enumerate(values))


def _unpack(entry: tuple) -> tuple[int, Sequence, Sequence]:
    """(g_lo, ranks, signatures) of a packed entry, zero ends trimmed."""
    g_lo, ranks, signatures, _, width = entry
    mask = (1 << width) - 1
    slots = range(0, ranks.bit_length(), width)
    r = tuple((ranks >> at) & mask for at in slots)
    both = ranks + signatures  # slot i holds r_i + s_i, from 0 to 2 r_i
    return g_lo, r, tuple(((both >> at) & mask) - r_i for at, r_i in zip(slots, r))


def _repack(key: tuple, entry: tuple, width: int) -> tuple:
    """Store the entry of ``key``, a cache tuple or packed at another width,
    packed at ``width``; _Overflow if its total does not fit."""
    g_lo, ranks, signatures = entry if len(entry) == 3 else _unpack(entry)
    total = sum(ranks)
    if total >> (width - 1):
        raise _Overflow
    entry = _memo[key] = (g_lo, _pack(ranks, width), _pack(signatures, width), total, width)
    return entry


def _ch(d: int, alpha: Sequence, beta: Sequence, width: int) -> tuple:
    """Counts at every genus, packed at ``width`` bits per slot:
    (g_lo, R, S, T, width) with R and S holding the rank and signature at
    genus g_lo + i in slot i, T the sum of the ranks, and slot 0 the lowest
    nonzero rank."""
    if d == 1:
        return 0, 1, 1, 1, width
    key = (d, alpha, beta)
    cached = _memo.get(key)
    if cached is not None:
        # a cache tuple ends in its signatures, never equal to a width
        return cached if cached[-1] == width else _repack(key, cached, width)
    g_lo = genus_floor(d, beta)
    ranks = signatures = total = 0
    for k, bk in enumerate(beta, start=1):
        if bk:
            c_lo, c_ranks, c_signatures, c_total, _ = _ch(
                d, _seq_add(alpha, k, 1), _seq_add(beta, k, -1), width
            )
            at = width * (c_lo - g_lo)
            ranks += c_ranks * k << at
            if k % 2:
                signatures += c_signatures << at
            total += c_total * k
    top = d - 1 - sum(map(mul, beta, count(1)))
    for ia_p, alpha_p, binom_alpha in _sub_alphas(alpha):
        if ia_p <= top:
            for shift, beta_p, rf, sf in _floor_terms(d, beta, top - ia_p):
                c_lo, c_ranks, c_signatures, c_total, _ = _ch(
                    d - 1, alpha_p, beta_p, width
                )
                at = width * (c_lo + shift - g_lo)
                rank_factor = binom_alpha * rf
                ranks += c_ranks * rank_factor << at
                if sf:
                    signatures += c_signatures * (binom_alpha * sf) << at
                total += c_total * rank_factor
    if total >> (width - 1):  # a rank may fill its slot: nothing decodes
        raise _Overflow
    if ranks:  # trim the zero slots below the lowest nonzero rank
        low = ((ranks & -ranks).bit_length() - 1) // width
        g_lo += low
        ranks >>= width * low
        signatures >>= width * low  # |s_i| <= r_i: these slots are 0 too
    value = _memo[key] = (g_lo, ranks, signatures, total, width)
    return value


def _counts(d: int, alpha: Sequence, beta: Sequence) -> tuple:
    """The entry of (d, alpha, beta), computed if missing, packed at the
    narrowest width in _WIDTH, 2 _WIDTH, 4 _WIDTH, ... that it fits: the
    count reruns at twice the width while a total outgrows it.  Entries of
    the failed runs stay in the memo, at the width they fit."""
    width = _WIDTH
    while True:
        try:
            return _ch(d, alpha, beta, width)
        except _Overflow:
            width *= 2


def memo_snapshot() -> dict:
    """Copy of the memo table, (d, alpha, beta) -> (g_lo, ranks, signatures),
    the form ``memo_load`` takes; the table itself is left as it is."""
    return {
        key: entry if len(entry) == 3 else _unpack(entry)
        for key, entry in _memo.items()
    }


def memo_size() -> int:
    """Number of entries in the memo table."""
    return len(_memo)


def memo_load(entries: dict) -> None:
    _memo.update(entries)
