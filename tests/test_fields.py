import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from eulercs import fields
from eulercs.errors import Infeasible, InvalidInput
from eulercs.fields import (_code_to_poly, _poly_mod, build_field, factorize,
                            find_irreducible, is_prime)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def test_find_irreducible_degree_one_is_x():
    assert find_irreducible(2, 1) == [0, 1]
    assert find_irreducible(7, 1) == [0, 1]


def test_find_irreducible_gf4():
    # x^2 + x + 1; the other three monic quadratics over GF(2) have roots
    assert find_irreducible(2, 2) == [1, 1, 1]


def test_find_irreducible_gf9():
    # x^2 + 1 has no root mod 3
    assert find_irreducible(3, 2) == [1, 0, 1]


def test_find_irreducible_rejects_composite():
    with pytest.raises(InvalidInput, match="^p=4 is not prime$"):
        find_irreducible(4, 2)


def test_gf2_is_xor_and():
    F = build_field(2, 1)
    for a in range(2):
        for b in range(2):
            assert F.add_table[a, b] == a ^ b
            assert F.mul_table[a, b] == a & b


def test_gf4_multiplication():
    F = build_field(2, 2)
    assert F.mul_table[2, 2] == 3  # x * x = x + 1 mod x^2+x+1


def test_gf5_matches_mod5():
    F = build_field(5, 1)
    assert F.add_table[3, 4] == 2
    assert F.mul_table[3, 4] == 2


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_prime_fields_are_mod_p(p):
    F = build_field(p, 1)
    a = np.arange(p)
    assert np.array_equal(F.add_table, (a[:, None] + a[None, :]) % p)
    assert np.array_equal(F.mul_table, (a[:, None] * a[None, :]) % p)


@pytest.mark.parametrize("p, r", [(2, 1), (2, 8), (257, 1), (2, 9)])
def test_tables_are_stored_in_the_narrowest_type(p, r):
    # q = 2, 256: uint8; q = 257, 512: uint16
    F = build_field(p, r)
    narrow = np.min_scalar_type(F.q - 1)
    assert F.add_table.dtype == F.mul_table.dtype == narrow
    assert narrow.itemsize == (1 if F.q <= 256 else 2)


def test_field_cap():
    with pytest.raises(Infeasible, match="^q=131072 exceeds cap 65536$"):
        build_field(2, 17)


@pytest.mark.parametrize("fn", [find_irreducible, build_field])
@pytest.mark.parametrize("r, message", [
    (17, "q=131072 exceeds cap 65536"),
    (10 ** 9, "q=2**1000000000 exceeds cap 65536"),
], ids=["r17", "r1e9"])
def test_field_above_cap_is_refused_before_any_work(monkeypatch, fn, r, message):
    monkeypatch.setattr(fields, "_monic_polys",
                        lambda *a: pytest.fail("candidate polynomials enumerated"))
    tracemalloc.start()
    try:
        with pytest.raises(Infeasible, match=f"^{re.escape(message)}$"):
            fn(2, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20       # 2**(10**9) alone would take 125 MB


def check_field_axioms(F):
    """Exhaustive abelian-group + distributivity check over all triples."""
    q = F.q
    add, mul = F.add_table, F.mul_table
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], np.arange(q))
    assert np.array_equal(mul[1], np.arange(q))
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int64))
    # every element has an additive inverse; every nonzero a multiplicative one
    assert all((add[a] == 0).any() for a in range(q))
    assert all((mul[a] == 1).any() for a in range(1, q))
    # nonzero elements closed under multiplication
    assert (mul[1:, 1:] != 0).all()
    a = np.arange(q)
    A, B, C = np.ix_(a, a, a)
    assert np.array_equal(add[add[A, B], C], add[A, add[B, C]])
    assert np.array_equal(mul[mul[A, B], C], mul[A, mul[B, C]])
    assert np.array_equal(mul[A, add[B, C]], add[mul[A, B], mul[A, C]])


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4),
                                 (3, 3), (7, 2), (2, 5), (2, 6)])
def test_extension_field_axioms(p, r):
    check_field_axioms(build_field(p, r))


def test_is_prime_small():
    primes = {n for n in range(200) if is_prime(n)}
    assert 2 in primes and 97 in primes
    assert all(not is_prime(a * b) for a in range(2, 14) for b in range(2, 14))


PRIME_POWERS_TO_64 = [(p, r) for p in range(2, 65) if is_prime(p)
                      for r in range(1, 7) if p ** r <= 64]


def _code(coeffs, p):
    return sum(int(c) % p * p ** t for t, c in enumerate(coeffs))


@pytest.mark.parametrize("p,r", PRIME_POWERS_TO_64)
def test_tables_match_polynomial_oracle(p, r):
    """Every pair against schoolbook GF(p)[x] arithmetic mod the irreducible."""
    F = build_field(p, r)
    irr = list(F.irreducible)
    polys = [_code_to_poly(e, p, r) for e in range(F.q)]
    want_add = [[_code([x + y for x, y in zip(pa, pb)], p) for pb in polys]
                for pa in polys]
    want_mul = [[_code(_poly_mod(np.convolve(pa, pb) % p, irr, p), p) for pb in polys]
                for pa in polys]
    assert np.array_equal(F.add_table, want_add)
    assert np.array_equal(F.mul_table, want_mul)


# SHA-256 of the int64 table bytes; pins the element encoding.
TABLE_SHA256 = {
    (2, 6): ("779fcd7c371f9badc62ec28c6b7e8058ef9af8b70316813a8982a39b9da0522c",
             "9acd8acc8ab7fd85c547e23b9434dd56ad81d7f96083dffa48ae285f9825df49"),
    (2, 8): ("8789a1484021cb8c8d76e4ebd76cfc782111d57cd7969c1fe59e0b58c9f46e6a",
             "23fd2bfb28904303c8ad64cec3dff35b2301ab5872d7212fc4aa205f0adac99c"),
    (2, 9): ("8de02dc53cbc62a04714e7f6e1cad9e67b1ed41e99e6a9ebcc4f0dcf513bab41",
             "9e8918e7da5a0db6b6748383d3c64a42dfdc190afb84147105f197192581f4c0"),
}


@pytest.mark.parametrize("p,r", sorted(TABLE_SHA256))
def test_table_bytes_pinned(p, r):
    F = build_field(p, r)
    digests = tuple(hashlib.sha256(t.astype(np.int64).tobytes()).hexdigest()
                    for t in (F.add_table, F.mul_table))
    assert digests == TABLE_SHA256[(p, r)]


def test_factorize_exact_below_the_cap_squared():
    # 65521 is the largest prime up to the cap, 65537 the smallest above it
    assert factorize(65521 * 65537).components == ((65521, 1, 65521), (65537, 1, 65537))
    assert factorize(2 ** 40).components == ((2, 40, 2 ** 40),)


def test_factorize_refuses_two_primes_above_the_cap():
    with pytest.raises(Infeasible,
                       match=f"^{65537 * 65539} has a prime factor above cap 65536$"):
        factorize(65537 * 65539)


def test_is_prime_matches_a_sieve():
    sieve = np.ones(20000, dtype=bool)
    sieve[:2] = False
    for d in range(2, 142):
        sieve[d * d::d] = False
    assert [is_prime(n) for n in range(20000)] == sieve.tolist()
