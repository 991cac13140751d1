import copy
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tropgw.gw import (
    H,
    ONE,
    REAL_PLACE,
    ZERO,
    GWElement,
    diag,
    gw_equal,
    gw_from_pair,
    hilbert_symbol,
    hyperbolic,
    hyperbolic_decomposition,
    prime_factors,
    render,
    square_free,
)

nonzero = st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0)


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def local_solvable(a: int, b: int, place) -> bool:
    """Brute-force oracle: does z^2 = a x^2 + b y^2 have a nontrivial local zero?

    Searches for primitive solutions modulo p^k at the Hensel precision of
    each valuation case (square-free reduced coefficients), so every answer
    comes from an exhaustive search of the defining congruence rather than
    from the symbol formulas.
    """
    if place == REAL_PLACE:
        return a > 0 or b > 0
    p = place
    a, b = square_free(a), square_free(b)
    if a > b:
        a, b = b, a
    key = (a, b, p)
    if key not in _oracle_cache:
        _oracle_cache[key] = _solvable(a, b, p)
    return _oracle_cache[key]


_oracle_cache: dict[tuple[int, int, int], bool] = {}


def _solvable(a: int, b: int, p: int) -> bool:
    if p == 2:
        # Solutions mod 2^k with (x, y, z) not all even lift for k past the
        # gradient valuation; k = v2(4ab) + 3 is ample for square-free a, b.
        m = 2 ** (valuation(4 * a * b, 2) + 3)
        sq = bytearray(m)
        sq_odd = bytearray(m)
        for z in range(m):
            sq[z * z % m] = 1
            if z % 2:
                sq_odd[z * z % m] = 1
        for x in range(m):
            ax = a * x * x % m
            for y in range(m):
                s = (ax + b * y * y) % m
                if (sq[s] if (x % 2 or y % 2) else sq_odd[s]):
                    return True
        return False
    va, vb = valuation(a, p) > 0, valuation(b, p) > 0
    if va and vb:
        # Primitive solutions force p | z; dividing out one p leaves
        # (a/p) x^2 + (b/p) y^2 = p z'^2 with (x, y) not both divisible,
        # whose smooth zeros mod p decide solvability.
        u, v = a // p, b // p
        return any(
            (u * x * x + v * y * y) % p == 0
            for x in range(p)
            for y in range(p)
            if (x, y) != (0, 0)
        )
    if va or vb:
        if vb:
            a, b = b, a
        # p | a: a primitive solution must have (y, z) a unit pair, and its
        # reduction solves z^2 = b y^2 over F_p; such smooth zeros lift.
        return any(
            (z * z - b * y * y) % p == 0
            for y in range(p)
            for z in range(p)
            if (y, z) != (0, 0)
        )
    return any(
        (z * z - a * x * x - b * y * y) % p == 0
        for x in range(p)
        for y in range(p)
        for z in range(p)
        if (x, y, z) != (0, 0, 0)
    )


def test_square_free_reduce_examples():
    assert square_free(12) == 3
    assert square_free(-8) == -2
    assert square_free(1) == 1
    with pytest.raises(ValueError):
        square_free(0)


def test_add_examples():
    assert diag(1) + diag(-1) == H
    assert diag(2, 3) + ZERO == diag(2, 3)
    assert H + H == hyperbolic(2)


def test_mul_examples():
    assert diag(2) * diag(2) == ONE
    # (<1> + <-1>)^2 expands to <1> + <-1> + <-1> + <1> = 2H
    assert H * H == hyperbolic(2)
    assert gw_equal(diag(3) * H, H)


def test_hyperbolic_examples():
    assert hyperbolic(0) == ZERO
    assert hyperbolic(1) == diag(1, -1)
    assert hyperbolic(2).terms == ((1, 2), (-1, 2))


def test_rank_signature_examples():
    assert diag(1).rank == 1
    twelve = hyperbolic(2) + 8 * ONE
    assert twelve.rank == 12
    assert twelve.signature == 8
    assert H.rank == 2
    assert H.signature == 0
    assert diag(-3).signature == -1


def test_scalar_multiplication_matches_ring_multiplication():
    x = diag(2, -3, 5)
    assert 3 * x == x + x + x
    assert (-2) * x == -(x + x)
    assert 3 * x == (3 * ONE) * x


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    for place in (2, 3, 7, REAL_PLACE):
        assert hilbert_symbol(1, -6, place) == 1
    # frozen from the mod-3^k solvability oracle
    assert local_solvable(2, 3, 3) is False
    assert hilbert_symbol(2, 3, 3) == -1


def test_hilbert_symbol_place_validation():
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 4)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 5)


def test_hilbert_symbol_against_oracle_full_grid():
    primes = (2, 3, 5, 7, 11, 13)
    for a in range(-30, 31):
        if a == 0:
            continue
        for b in range(-30, 31):
            if b == 0:
                continue
            assert (hilbert_symbol(a, b, REAL_PLACE) == 1) == local_solvable(
                a, b, REAL_PLACE
            )
            for p in primes:
                assert (hilbert_symbol(a, b, p) == 1) == local_solvable(a, b, p), (
                    a,
                    b,
                    p,
                )


@given(nonzero, nonzero, nonzero, st.sampled_from([2, 3, 5, 7, 11, 13, REAL_PLACE]))
def test_hilbert_symmetric_and_bimultiplicative(a, b, c, place):
    assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
    assert hilbert_symbol(a, b * c, place) == hilbert_symbol(
        a, b, place
    ) * hilbert_symbol(a, c, place)


def test_gw_equal_examples():
    assert gw_equal(diag(2, 3), diag(5, 30))
    assert gw_equal(diag(7, -7), H)
    assert not gw_equal(diag(1), diag(-1))
    assert not gw_equal(diag(2), diag(3))


def test_truth_is_ring_nonzero():
    x = diag(2, 2) - diag(1, 1)
    assert x.terms and gw_equal(x, ZERO)
    assert not x
    assert not ZERO
    assert H and ONE
    assert diag(2) - diag(3)



def test_element_is_an_immutable_hashable_value():
    x = hyperbolic(2) + diag(-6)
    with pytest.raises(AttributeError):
        x.terms = ()
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        del x.terms
    assert x.terms == ((1, 2), (-1, 2), (-6, 1))
    # built along another path: structurally equal, so equal hashes
    y = diag(1, -1, -6) + H
    assert y is not x and y == x and hash(y) == hash(x) and len({x, y}) == 1
    assert x != diag(-6) and x != x.terms
    for z in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(z) is GWElement and z == x and hash(z) == hash(x)
    assert repr(x) == "GWElement(terms=((1, 2), (-1, 2), (-6, 1)))"
    assert repr(ZERO) == "GWElement(terms=())"


def test_sum_relation_bulk_randomized():
    rng = random.Random(20240)
    checked = 0
    while checked < 10_000:
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 or b == 0 or a + b == 0:
            continue
        assert gw_equal(diag(a, b), diag(a + b, a * b * (a + b))), (a, b)
        assert gw_equal(diag(a, -a), H), a
        checked += 1


@given(nonzero, nonzero)
def test_sum_relation_property(a, b):
    if a + b != 0:
        assert gw_equal(diag(a, b), diag(a + b, a * b * (a + b)))


@given(nonzero)
def test_opposite_pair_is_hyperbolic(a):
    assert gw_equal(diag(a, -a), H)


def random_element(rng: random.Random) -> GWElement:
    x = ZERO
    for _ in range(rng.randint(0, 4)):
        a = rng.randint(-30, 30)
        if a:
            x = x + rng.randint(-3, 3) * diag(a)
    return x


def test_rank_and_signature_are_ring_homomorphisms():
    rng = random.Random(7)
    for _ in range(300):
        x, y = random_element(rng), random_element(rng)
        assert (x * y).rank == x.rank * y.rank
        assert (x + y).rank == x.rank + y.rank
        assert (x * y).signature == x.signature * y.signature
        assert (x + y).signature == x.signature + y.signature


def test_gw_equal_is_congruence():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(1, 40)
        b = rng.randint(1, 40)
        x, y = diag(a, b), diag(a + b, a * b * (a + b))
        z = random_element(rng)
        assert gw_equal(x, x)
        assert gw_equal(x, y) == gw_equal(y, x)
        assert gw_equal(x + z, y + z)
        assert gw_equal(x * z, y * z)


def test_gw_equal_transitive_on_rewrites():
    x = diag(3, -3) + diag(5, -5)
    y = hyperbolic(2)
    z = diag(1, -1, 7, -7)
    assert gw_equal(x, y) and gw_equal(y, z) and gw_equal(x, z)


def test_render_examples():
    assert render(GWElement.from_dict({1: 3, -1: 2})) == "2ℍ + ⟨1⟩"
    assert render(ZERO) == "0"
    assert render(diag(3, -3)) == "ℍ"
    assert render(hyperbolic(2) + 8 * ONE) == "2ℍ + 8⟨1⟩"
    assert render(diag(-5)) == "⟨-5⟩"
    assert render(ONE - diag(3) - diag(3)) == "⟨1⟩ - 2⟨3⟩"


def test_hyperbolic_decomposition_prefers_one():
    n, rest = hyperbolic_decomposition(GWElement.from_dict({1: 3, -1: 2}))
    assert n == 2 and rest == diag(1)
    n, rest = hyperbolic_decomposition(diag(3, -3))
    assert n == 1 and rest == ZERO


def test_json_round_trip():
    # the CLI's JSON "classes" list is ``terms`` in order: square-free reps
    # sorted by (|rep|, sign), which decodes back to the element itself
    x = hyperbolic(2) + 8 * ONE + diag(-6)
    classes = [{"rep": r, "mult": m} for r, m in x.terms]
    assert classes == [
        {"rep": 1, "mult": 10},
        {"rep": -1, "mult": 2},
        {"rep": -6, "mult": 1},
    ]
    decoded = json.loads(json.dumps({"classes": classes, "display": render(x)}))
    assert GWElement.from_dict({c["rep"]: c["mult"] for c in decoded["classes"]}) == x
    assert decoded["display"] == render(x)


def test_gw_from_pair_shapes():
    assert gw_from_pair((12, 8)) == hyperbolic(2) + 8 * ONE
    assert gw_from_pair((0, 0)) == ZERO
    assert gw_from_pair((4, 0), (3,)) == hyperbolic(2)
    assert gw_from_pair((5, -1), (2, 3)) == hyperbolic(2) + diag(-6)
    assert gw_from_pair((3, 3), (2, 6, 3)) == 3 * ONE  # 2*6*3 = 36 is a square
    for rank, signature in ((3, 2), (1, 3), (-2, 0), (2, -4)):
        with pytest.raises(ValueError):
            gw_from_pair((rank, signature))


def test_square_classes_multiply_without_factoring_the_product():
    p, q = 1_000_000_007, 1_000_000_009
    x, y = diag(p), diag(q)
    misses = prime_factors.cache_info().misses
    assert x * y == GWElement.from_dict({p * q: 1})
    assert gw_from_pair((1, 1), (p, q, p)) == diag(q)
    assert gw_equal(x * x, ONE)
    assert prime_factors.cache_info().misses == misses
