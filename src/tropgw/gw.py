"""Exact model of the Grothendieck-Witt ring of the rationals.

An element is a virtual quadratic form, stored as an integer linear
combination of square classes ``<a>`` with ``a`` a nonzero square-free
integer.  The hyperbolic plane is ``H = <1> + <-1>``.  Equality of two
elements is decided by the complete set of classical invariants over Q:
rank, signature, discriminant and Hasse invariants at the finitely many
relevant primes.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd

REAL_PLACE = "real"


@cache
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``|n|`` as ``((p, exponent), ...)``, n != 0."""
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def square_free(n: int) -> int:
    """The square-free integer s with n = s*m^2, same sign as n."""
    if n == 0:
        raise ValueError("square class of 0 is undefined")
    s = -1 if n < 0 else 1
    for p, e in prime_factors(n):
        if e % 2:
            s *= p
    return s


def _class_product(r1: int, r2: int) -> int:
    """Square-free representative of r1*r2 for square-free r1 and r2.

    r1*r2 = g^2 * (r1/g) * (r2/g) with g = gcd(r1, r2), and the two
    cofactors are coprime, so no factorization is needed.
    """
    g = gcd(r1, r2)
    return (r1 // g) * (r2 // g)


def _term_key(item: tuple[int, int]) -> tuple[int, int]:
    rep = item[0]
    return (abs(rep), 0 if rep > 0 else 1)


class GWElement:
    """Virtual quadratic form over Q, canonical up to square classes.

    ``terms`` maps square-free representatives to integer multiplicities
    (negative multiplicities encode virtual summands).  Structural ``==``
    compares this normal form only; use :func:`gw_equal` for equality in
    the Grothendieck-Witt ring.  An element is falsy exactly when it is 0
    in GW(Q).  Elements are immutable and hash by ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to GWElement.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete GWElement.{name}")

    def __reduce__(self):
        return GWElement, (self.terms,)

    def __repr__(self) -> str:
        return f"GWElement(terms={self.terms!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GWElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "GWElement":
        items = tuple(sorted(((r, m) for r, m in d.items() if m != 0), key=_term_key))
        return GWElement(items)

    @property
    def rank(self) -> int:
        return sum(m for _, m in self.terms)

    @property
    def signature(self) -> int:
        return sum(m if r > 0 else -m for r, m in self.terms)

    def __add__(self, other: "GWElement") -> "GWElement":
        if not isinstance(other, GWElement):
            return NotImplemented
        d = dict(self.terms)
        for r, m in other.terms:
            d[r] = d.get(r, 0) + m
        return GWElement.from_dict(d)

    def __neg__(self) -> "GWElement":
        return GWElement(tuple((r, -m) for r, m in self.terms))

    def __sub__(self, other: "GWElement") -> "GWElement":
        return self + (-other)

    def __mul__(self, other: "GWElement | int") -> "GWElement":
        if isinstance(other, int):
            return GWElement(tuple((r, m * other) for r, m in self.terms)) if other else ZERO
        if not isinstance(other, GWElement):
            return NotImplemented
        d: dict[int, int] = {}
        for r1, m1 in self.terms:
            for r2, m2 in other.terms:
                r = _class_product(r1, r2)
                d[r] = d.get(r, 0) + m1 * m2
        return GWElement.from_dict(d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return not gw_equal(self, ZERO)

    def __str__(self) -> str:
        return render(self)


def diag(*entries: int) -> GWElement:
    """The diagonal form <a1> + <a2> + ... for nonzero integers ai."""
    d: dict[int, int] = {}
    for a in entries:
        r = square_free(a)
        d[r] = d.get(r, 0) + 1
    return GWElement.from_dict(d)


def hyperbolic(n: int = 1) -> GWElement:
    """n copies of the hyperbolic plane <1> + <-1>."""
    return GWElement.from_dict({1: n, -1: n})


ZERO = GWElement()
ONE = diag(1)
H = hyperbolic(1)


def gw_from_pair(pair: tuple[int, int], weights=()) -> GWElement:
    """The count p*H + q*<s*W> with the given (rank, signature).

    q = |signature|, p = (rank - q)/2, s is the sign of the signature and W
    the product of ``weights`` (only its square class matters).  Every
    pipeline evaluates an exact (rank, signature) pair and builds its
    result here, once.
    """
    rank, signature = pair
    q = abs(signature)
    p, odd = divmod(rank - q, 2)
    if odd or p < 0:
        raise ValueError(f"no form of this shape has rank {rank}, signature {signature}")
    w = 1
    for weight in weights:
        w = _class_product(w, square_free(weight))
    d = {1: p, -1: p}
    if q:
        cls = w if signature > 0 else -w
        d[cls] = d.get(cls, 0) + q
    return GWElement.from_dict(d)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return prime_factors(p) == ((p, 1),)


def _legendre(u: int, p: int) -> int:
    s = pow(u % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def hilbert_symbol(a: int, b: int, place: int | str) -> int:
    """Local Hilbert symbol (a, b) at a prime or at the real place.

    Returns +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the
    completion of Q at the given place, computed by the closed formulas.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero entries")
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(place, int) or not _is_prime(place):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}: {place!r}")
    p = place
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, v = 0, b
    while v % p == 0:
        v //= p
        beta += 1
    if p == 2:
        eps_u, eps_v = (u - 1) // 2, (v - 1) // 2
        omega_u, omega_v = (u * u - 1) // 8, (v * v - 1) // 8
        exp = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if exp % 2 else 1
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def _hasse_invariant(entries: tuple[tuple[int, int], ...], p: int) -> int:
    """Hasse invariant prod_{i<j} (c_i, c_j)_p of a diagonal form.

    ``entries`` lists (square-free rep, positive multiplicity).
    """
    exp = 0
    reps = [r for r, _ in entries]
    mults = [m for _, m in entries]
    for i, (ri, mi) in enumerate(zip(reps, mults)):
        if comb(mi, 2) % 2 and hilbert_symbol(ri, ri, p) == -1:
            exp += 1
        for rj, mj in zip(reps[i + 1:], mults[i + 1:]):
            if (mi * mj) % 2 and hilbert_symbol(ri, rj, p) == -1:
                exp += 1
    return -1 if exp % 2 else 1


def gw_equal(x: GWElement, y: GWElement) -> bool:
    """Equality in GW(Q) via rank, signature, discriminant and Hasse invariants."""
    if x.terms == y.terms:
        return True
    z = x - y
    pos = tuple((r, m) for r, m in z.terms if m > 0)
    neg = tuple((r, -m) for r, m in z.terms if m < 0)
    if sum(m for _, m in pos) != sum(m for _, m in neg):
        return False
    if sum(m * (1 if r > 0 else -1) for r, m in pos) != sum(
        m * (1 if r > 0 else -1) for r, m in neg
    ):
        return False
    disc_pos = disc_neg = 1
    for r, m in pos:
        if m % 2:
            disc_pos = _class_product(disc_pos, r)
    for r, m in neg:
        if m % 2:
            disc_neg = _class_product(disc_neg, r)
    if disc_pos != disc_neg:
        return False
    primes = {2}
    for r, _ in pos + neg:
        primes.update(p for p, _ in prime_factors(r))
    return all(_hasse_invariant(pos, p) == _hasse_invariant(neg, p) for p in primes)


def hyperbolic_decomposition(x: GWElement) -> tuple[int, GWElement]:
    """Greedily split x as n*H + remainder, pairing <c> + <-c>, c = 1 first."""
    d = dict(x.terms)
    n = 0
    reps = [1] + sorted((r for r in d if r > 1), key=abs)
    for c in reps:
        t = min(d.get(c, 0), d.get(-c, 0))
        if t > 0:
            n += t
            d[c] -= t
            d[-c] -= t
    return n, GWElement.from_dict(d)


def render(x: GWElement) -> str:
    """Canonical display string, e.g. ``2H + 8<1>`` printed with unicode."""
    n_hyp, rest = hyperbolic_decomposition(x)
    parts: list[tuple[int, str]] = []
    if n_hyp:
        parts.append((n_hyp, "ℍ"))
    for r, m in rest.terms:
        parts.append((m, f"⟨{r}⟩"))
    if not parts:
        return "0"
    out = []
    for i, (coeff, sym) in enumerate(parts):
        mag, neg = abs(coeff), coeff < 0
        body = sym if mag == 1 else f"{mag}{sym}"
        if i == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)
