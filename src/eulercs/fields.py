"""Finite field arithmetic GF(p^r) via dense lookup tables.

Elements are encoded as integers 0..q-1: the code e represents the
polynomial whose coefficient of x^t is the t-th base-p digit of e
(least significant digit = constant term), modulo the smallest monic
irreducible of degree r.  `build_field` fills row a of the add and mul
tables from row a // p, by poly(a) = (a mod p) + x*poly(a // p).  Each
table is a dense q x q array of the narrowest unsigned type that holds
q - 1: q^2 bytes up to q = 256 and 2*q^2 above, so 32 MiB at q = 4096 and
8 GiB at the 2^16 cap, where memory bounds the largest usable field;
GF(2^13)'s two tables fit in 256 MiB.
`factorize`, the package's one trial division, stops at that cap too.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import Infeasible, InvalidInput

DEFAULT_FIELD_CAP = 2 ** 16


@dataclass(frozen=True)
class PrimePowerFactorization:
    m: int
    components: tuple  # ((prime, exponent, prime**exponent), ...) primes increasing

    @property
    def values(self):
        return tuple(v for _, _, v in self.components)

    @property
    def min_value(self):
        return min(self.values)


def factorize(m: int) -> PrimePowerFactorization:
    """Prime-power decomposition by trial division up to DEFAULT_FIELD_CAP.

    Exact while the part left after the divisors up to the cap is below
    (cap+1)^2.  A larger part has only prime factors above the cap, which
    no field table can hold, so Infeasible is raised at once.
    """
    if m < 2:
        raise InvalidInput(f"m={m} must be >= 2")
    comps = []
    rest = m
    d = 2
    while d * d <= rest:
        if d > DEFAULT_FIELD_CAP:
            raise Infeasible(
                f"{m} has a prime factor above cap {DEFAULT_FIELD_CAP}")
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            comps.append((d, e, d ** e))
        d += 1
    if rest > 1:
        comps.append((rest, 1, rest))
    return PrimePowerFactorization(m=m, components=tuple(comps))


def is_prime(n: int) -> bool:
    """Whether n is prime, decided by `factorize`.

    An n that `factorize` refuses raises Infeasible; no field
    characteristic, Paley-core order or row size can be built that large.
    """
    return n >= 2 and factorize(n).components == ((n, 1, n),)


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, mod, p):
    # mod is monic; coefficients constant-term first
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a[:dm] if dm > 0 else [0])


def _code_to_poly(e, p, r):
    digits = []
    for _ in range(r):
        digits.append(e % p)
        e //= p
    return digits


def _divides(a, b, p):
    """True if monic polynomial b divides a over GF(p)."""
    rem = _poly_mod(a, b, p)
    return rem == [0]


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, lexicographic in code."""
    for low in range(p ** degree):
        yield _code_to_poly(low, p, degree) + [1]


def find_irreducible(p: int, r: int) -> list:
    """Lexicographically smallest monic irreducible degree-r polynomial.

    Brute force: candidates enumerated in ascending order of their
    low-coefficient code, each tested by trial division against every
    monic polynomial of degree 1..r//2.  Before any of that, p must be
    prime, r at least 1 and p**r at most DEFAULT_FIELD_CAP, the largest
    field `build_field` makes; an r so large that p**r is costly to form
    is refused from r alone.
    """
    if not is_prime(p):
        raise InvalidInput(f"p={p} is not prime")
    if r < 1:
        raise InvalidInput(f"degree r={r} must be >= 1")
    if r > DEFAULT_FIELD_CAP.bit_length():    # then p**r >= 2**r > the cap
        raise Infeasible(f"q={p}**{r} exceeds cap {DEFAULT_FIELD_CAP}")
    if p ** r > DEFAULT_FIELD_CAP:
        raise Infeasible(f"q={p ** r} exceeds cap {DEFAULT_FIELD_CAP}")
    if r == 1:
        return [0, 1]  # x; degree-1 polynomials are always irreducible
    divisors = [d for deg in range(1, r // 2 + 1) for d in _monic_polys(p, deg)]
    for cand in _monic_polys(p, r):
        if not any(_divides(cand, d, p) for d in divisors):
            return cand
    raise InvalidInput(f"no irreducible polynomial found for p={p}, r={r}")


@dataclass(eq=False)
class GaloisField:
    p: int
    r: int
    q: int
    irreducible: tuple
    add_table: np.ndarray = field(repr=False)
    mul_table: np.ndarray = field(repr=False)


@lru_cache(maxsize=128)
def build_field(p: int, r: int) -> GaloisField:
    """Construct GF(p^r) with dense add/mul tables.

    Both tables are built row by row, row a from row a // p (a >= 1):
        add[a, b] = (a + b) mod p  +  p * add[a // p, b // p]
        mul[a, b] = scale[a mod p, b]  (+)  times_x[mul[a // p, b]]
    with (+) the field sum.  scale[s, e] is s*e for the scalar s of GF(p);
    times_x[e] is x*e: e shifted up one digit, the overflow digit t
    cancelled by adding -t times the irreducible's low part.  Cost: 2q
    numpy passes over rows of length q, and no q x q array beyond the two
    tables, each of dtype np.min_scalar_type(q - 1).  Rows are computed
    in int64 and stored narrow.

    Results are cached: fields are immutable after construction, so the
    shared instance is safe for unrestricted concurrent reads.
    """
    irr = find_irreducible(p, r)       # refuses p, r and q = p**r first
    q = p ** r
    codes = np.arange(q, dtype=np.int64)
    s = np.arange(p, dtype=np.int64)[:, None]
    scale = sum(s * (codes // p ** t % p) % p * p ** t for t in range(r))
    top = p ** (r - 1)
    low = sum(c * p ** t for t, c in enumerate(irr[:r]))

    dtype = np.min_scalar_type(q - 1)
    add = np.zeros((q, q), dtype=dtype)
    add[0] = codes
    shifted = codes // p
    for a in range(1, q):
        # upcast before p *: NumPy 2 keeps a narrow operand's type
        add[a] = (a + codes) % p + p * add[a // p].take(shifted).astype(np.int64)
    times_x = add[codes % top * p, scale[-(codes // top) % p, low]]
    mul = np.zeros((q, q), dtype=dtype)
    for a in range(1, q):
        mul[a] = add[scale[a % p], times_x.take(mul[a // p])]
    return GaloisField(p=p, r=r, q=q, irreducible=tuple(irr),
                       add_table=add, mul_table=mul)
