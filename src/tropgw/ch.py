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

Sequences are checked once, where they enter: in ``ch_count`` (``trim``
and ``check_key``) and in the CLI's cache loader (``check_key``).  A canonical
sequence has no negative entry and no trailing zero; the recursion
receives canonical tuples and builds only canonical tuples, so every memo
key is canonical.

The memo table is an associative cache: every insertion for a key writes
the same value, so concurrent evaluation and cache merging are safe.
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


def weighted_partitions(total: int):
    """All trimmed sequences gamma with sum_i i*gamma_i = total."""
    def rec(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for count in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * count, part - 1):
                    seq = [0] * part
                    seq[part - 1] = count
                    for i, n in enumerate(rest):
                        seq[i] += n
                    yield tuple(seq)

    yield from rec(total, total)


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
    free_weights = [w for w, n in enumerate(beta, start=1) for _ in range(n)]
    return gw_from_pair(_ch(d, g, alpha, beta), free_weights)


def _ch(d: int, g: int, alpha: Sequence, beta: Sequence) -> tuple[int, int]:
    if d == 1:
        return (1, 1) if g == 0 else (0, 0)
    if g > max_genus(d):
        return (0, 0)
    if 2 * d + g + sum(beta) - 1 < 0:
        return (0, 0)
    key = (d, g, alpha, beta)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    rank = signature = 0
    for k, bk in enumerate(beta, start=1):
        if bk > 0:
            r, s = _ch(d, g, _seq_add(alpha, k, 1), _seq_add(beta, k, -1))
            rank += k * r
            signature += (k % 2) * s
    ib = sum(map(mul, beta, count(1)))
    for alpha_p in product(*(range(n + 1) for n in alpha)):
        target = d - 1 - ib - sum(map(mul, alpha_p, count(1)))
        if target < 0:
            continue
        binom_alpha = prod(map(comb, alpha, alpha_p))
        alpha_p = _strip(alpha_p)
        for gamma in weighted_partitions(target):
            size_gamma = sum(gamma)
            if size_gamma - 1 > d - 2:
                continue
            beta_p = tuple(map(sum, zip_longest(beta, gamma, fillvalue=0)))
            prod_gamma = prod(k**n for k, n in enumerate(gamma, start=1))
            coeff = binom_alpha * prod(map(comb, beta_p, beta))
            r, s = _ch(d - 1, g - size_gamma + 1, alpha_p, beta_p)
            rank += coeff * prod_gamma * r
            signature += coeff * (prod_gamma % 2) * s
    value = (rank, signature)
    _memo[key] = value
    return value


def memo_snapshot() -> dict:
    """Copy of the memo table, (d, g, alpha, beta) -> (rank, signature)."""
    return dict(_memo)


def memo_size() -> int:
    """Number of entries in the memo table."""
    return len(_memo)


def memo_load(entries: dict) -> None:
    _memo.update(entries)
