"""Euler squares (systems of mutually orthogonal Latin squares).

An Euler square of index (n, k) is an n x n array of k-tuples over
{0..n-1} that is row-Latin and column-Latin in every coordinate, and
whose coordinate pairs are jointly orthogonal: superimposing any two
coordinates yields all n^2 ordered pairs exactly once.

Construction follows the classical direct-product recipe: prime-power
component squares from finite-field arithmetic, each built at the
requested degree, and products in increasing-prime order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidInput
from .fields import GaloisField, build_field, factorize


@dataclass(eq=False)
class EulerSquare:
    cells: np.ndarray  # shape (n, n, k), values 0..n-1
    provenance: str = ""

    n = property(lambda self: self.cells.shape[0], doc="order")
    k = property(lambda self: self.cells.shape[2], doc="degree")

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 3 or cells.shape[0] != cells.shape[1]:
            raise InvalidInput(f"cells shape {cells.shape} is not (n, n, k)")
        try:
            self.cells = cells.astype(np.int64, casting="same_kind", copy=False)
        except TypeError:
            raise InvalidInput(f"cells must hold integers, not {cells.dtype}") from None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    location: tuple = ()


def mols_prime_power(F: GaloisField, k: int) -> EulerSquare:
    """Euler square of index (q, k) from GF(q).

    Cell (x, y) coordinate t is code(alpha_t * x + y) where alpha_t is
    the field element with code t; t runs over 1..k in code order.
    """
    q = F.q
    if not 1 <= k <= q - 1:
        raise InvalidInput(f"degree k={k} must satisfy 1 <= k <= q-1={q - 1}")
    cells = np.empty((q, q, k), dtype=np.int64)
    ys = np.arange(q)
    for t in range(1, k + 1):
        cells[:, :, t - 1] = F.add_table[F.mul_table[t, :][:, None], ys[None, :]]
    return EulerSquare(cells, provenance=f"prime-power p={F.p} r={F.r}")


def macneish_product(A: EulerSquare, B: EulerSquare) -> EulerSquare:
    """Direct product: index (n1*n2, k) from indices (n1, k) and (n2, k).

    Row (i1, i2) flattens to i1*n2 + i2 (0-based), likewise for columns;
    coordinate r value is A_r(i1, j1)*n2 + B_r(i2, j2).
    """
    if A.k != B.k:
        raise InvalidInput(f"degrees differ: {A.k} vs {B.k}")
    n1, n2, k = A.n, B.n, A.k
    prod = (A.cells[:, None, :, None, :] * n2 + B.cells[None, :, None, :, :])
    return EulerSquare(prod.reshape(n1 * n2, n1 * n2, k),
                       provenance=f"product({A.provenance} x {B.provenance})")


def euler_square(n: int, k: int) -> EulerSquare:
    """Build an Euler square of index (n, k) when the classical bound allows.

    Requires k <= minpp(n) - 1 where minpp(n) is the smallest prime-power
    component of n.  Each component square is built at degree k, which
    gives the first k coordinates of its full-degree square; components
    fold via the product in increasing-prime order.
    """
    if n < 3:
        raise Infeasible(f"order n={n} must be >= 3")
    if k < 1:
        raise InvalidInput(f"degree k={k} must be >= 1")
    fac = factorize(n)
    bound = fac.min_value - 1
    if k > bound:
        raise Infeasible(
            f"index ({n},{k}) not constructible: k exceeds minpp({n})-1 = {bound}")
    square = None
    for p, r, q in fac.components:
        F = build_field(p, r)
        comp = mols_prime_power(F, k)
        square = comp if square is None else macneish_product(square, comp)
    square.provenance = f"euler n={n} k={k}"
    return square


def validate_euler_square(E: EulerSquare) -> ValidationReport:
    """Exhaustive check that the k + 2 factors, row, column and the k
    coordinates, are pairwise orthogonal: each pair takes each of its n^2
    value pairs once.  (row, r) orthogonal is row-Latin in coordinate r,
    and (column, r) column-Latin.

    After the range check the pairs are visited as (row, r), (column, r)
    for r = 0..k-1, then (r, s) for r < s.  The first pair with a repeat
    is reported at the second cell, in row-major order, of its smallest
    repeated value pair: a row-Latin fault names the first row holding a
    repeat, a column-Latin fault the first column.
    """
    n, k, cells = E.n, E.k, E.cells
    if cells.min() < 0 or cells.max() >= n:
        loc = np.unravel_index(np.argmax((cells < 0) | (cells >= n)), cells.shape)
        return ValidationReport(False, "cell value out of range", tuple(int(v) for v in loc))
    layers = np.ascontiguousarray(cells.reshape(n * n, k).T)   # (k, n^2)
    row, col = np.divmod(np.arange(n * n), n)
    # (first factor, second factor, message, (keep i, keep j, r) of the location)
    pairs = []
    for r in range(k):
        pairs += [(row, layers[r], f"row-Latin violation in coordinate {r}", (True, False, r)),
                  (col, layers[r], f"column-Latin violation in coordinate {r}", (False, True, r))]
    pairs += [(layers[r], layers[s], f"orthogonality violation for coordinates ({r},{s})",
               (True, True, r)) for r in range(k) for s in range(r + 1, k)]
    for a, b, message, (keep_i, keep_j, r) in pairs:
        codes = a * n + b
        if np.bincount(codes, minlength=n * n).max() > 1:
            order = np.argsort(codes, kind="stable")
            dup = order[np.nonzero(np.diff(codes[order]) == 0)[0][0] + 1]
            i, j = divmod(int(dup), n)
            return ValidationReport(False, message,
                                    (i if keep_i else -1, j if keep_j else -1, r))
    return ValidationReport(True)
