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
genus, as (g_lo, ranks, signatures) with entry i at genus g_lo + i.  Its
range starts at 1 - 2d - |beta| and ends at max_genus(d), outside of which
nothing is counted, and both zero ends are trimmed.  A term adds its
child's vectors, shifted by the floor's |gamma| - 1 and scaled by the
term's pair; every shifted child lies within the parent's range.

Sequences are checked once, where they enter: in ``ch_count`` (``trim``
and ``check_key``) and in the CLI's cache loader (``check_key``).  A canonical
sequence has no negative entry and no trailing zero; the recursion
receives canonical tuples and builds only canonical tuples, so every memo
key is canonical.

The memo table, keyed by (d, alpha, beta), is an associative cache: every
insertion for a key writes the same counts at every genus, so concurrent
evaluation and cache merging are safe.
"""

from __future__ import annotations

from itertools import count, product, zip_longest
from math import comb, prod
from operator import mul

from .gw import GWElement, gw_from_pair

Sequence = tuple[int, ...]


def _strip(seq) -> Sequence:
    """Drop trailing zeros; checks nothing."""
    seq = tuple(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def trim(seq) -> Sequence:
    """Canonical form: check that no entry is negative, drop trailing zeros."""
    seq = tuple(int(n) for n in seq)
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


def seq_binom(a, b) -> int:
    """Entrywise product of binomial coefficients; 0 when b exceeds a."""
    a, b = trim(a), trim(b)
    if len(b) > len(a):
        return 0
    return prod(comb(x, y) for x, y in zip(a, b + (0,) * (len(a) - len(b))))


def _seq_add(a: Sequence, k: int, delta: int) -> Sequence:
    lst = list(a) + [0] * max(0, k - len(a))
    lst[k - 1] += delta
    return _strip(lst)


def weighted_partitions(total: int, fewest: int = 0, most: int | None = None):
    """All trimmed sequences gamma with sum_i i*gamma_i = total and between
    ``fewest`` and ``most`` parts sum_i gamma_i (``most=None``: no bound)."""
    def rec(remaining: int, top: int, fewest: int, most: int):
        # parts of size at most ``top`` make up ``remaining``
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
                for seq in rec(rest, part - 1, fewest - n, most - n):
                    yield seq + (0,) * (part - 1 - len(seq)) + (n,)

    yield from rec(total, total, fewest, total if most is None else most)


_memo: dict = {}


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
    g_lo, ranks, signatures = _ch(d, alpha, beta)
    i = g - g_lo
    pair = (ranks[i], signatures[i]) if 0 <= i < len(ranks) else (0, 0)
    free_weights = [w for w, n in enumerate(beta, start=1) for _ in range(n)]
    return gw_from_pair(pair, free_weights)


def genus_floor(d: int, beta: Sequence) -> int:
    """Lowest genus at which (d, alpha, beta) can count anything."""
    return 1 - 2 * d - sum(beta)


def _floor_terms(d: int, beta: Sequence, target: int) -> list[tuple]:
    """The floors of degree d whose new free ends gamma have I(gamma) =
    target: (|gamma| - 1, beta + gamma, b * I^gamma, b * (I^gamma mod 2))
    with b = binom(beta + gamma, beta); a floor shifts the genus by
    |gamma| - 1, at most d - 2, so gamma has at most d - 1 parts."""
    terms = []
    for gamma in weighted_partitions(target, most=d - 1):
        shift = sum(gamma) - 1
        beta_p = tuple(map(sum, zip_longest(beta, gamma, fillvalue=0)))
        prod_gamma = prod(k**n for k, n in enumerate(gamma, start=1))
        binom_beta = prod(map(comb, beta_p, beta))
        terms.append(
            (shift, beta_p, binom_beta * prod_gamma, binom_beta * (prod_gamma % 2))
        )
    return terms


def _ch(d: int, alpha: Sequence, beta: Sequence) -> tuple[int, Sequence, Sequence]:
    """Counts at every genus: (g_lo, ranks, signatures), entry i at genus
    g_lo + i, zero ends trimmed; every other genus counts nothing."""
    if d == 1:
        return 0, (1,), (1,)
    key = (d, alpha, beta)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    g_lo = genus_floor(d, beta)
    ranks = [0] * (max_genus(d) - g_lo + 1)
    signatures = ranks[:]

    def add(child, shift, rank_factor, signature_factor):
        c_lo, c_ranks, c_signatures = child
        for i, r, s in zip(count(c_lo + shift - g_lo), c_ranks, c_signatures):
            ranks[i] += rank_factor * r
            signatures[i] += signature_factor * s

    for k, bk in enumerate(beta, start=1):
        if bk > 0:
            add(_ch(d, _seq_add(alpha, k, 1), _seq_add(beta, k, -1)), 0, k, k % 2)
    terms: dict = {}  # target -> its floor terms, built once per call
    ib = sum(map(mul, beta, count(1)))
    for alpha_p in product(*(range(n + 1) for n in alpha)):
        target = d - 1 - ib - sum(map(mul, alpha_p, count(1)))
        if target < 0:
            continue
        if target not in terms:
            terms[target] = _floor_terms(d, beta, target)
        binom_alpha = prod(map(comb, alpha, alpha_p))
        alpha_p = _strip(alpha_p)
        for shift, beta_p, rank_factor, signature_factor in terms[target]:
            add(
                _ch(d - 1, alpha_p, beta_p), shift,
                binom_alpha * rank_factor, binom_alpha * signature_factor,
            )
    live = [i for i, r in enumerate(ranks) if r]  # a form of rank 0 is zero
    lo, hi = (live[0], live[-1] + 1) if live else (0, 0)
    value = (g_lo + lo, tuple(ranks[lo:hi]), tuple(signatures[lo:hi]))
    _memo[key] = value
    return value


def memo_snapshot() -> dict:
    """Copy of the memo table, (d, alpha, beta) -> (g_lo, ranks, signatures)."""
    return dict(_memo)


def memo_size() -> int:
    """Number of entries in the memo table."""
    return len(_memo)


def memo_load(entries: dict) -> None:
    _memo.update(entries)
