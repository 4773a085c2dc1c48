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
    n: int
    k: int
    cells: np.ndarray  # shape (n, n, k), values 0..n-1
    provenance: str = ""

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        if self.cells.shape != (self.n, self.n, self.k):
            raise InvalidInput(
                f"cells shape {self.cells.shape} != {(self.n, self.n, self.k)}")


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
    return EulerSquare(n=q, k=k, cells=cells,
                       provenance=f"prime-power p={F.p} r={F.r}")


def macneish_product(A: EulerSquare, B: EulerSquare) -> EulerSquare:
    """Direct product: index (n1*n2, k) from indices (n1, k) and (n2, k).

    Row (i1, i2) flattens to i1*n2 + i2 (0-based), likewise for columns;
    coordinate r value is A_r(i1, j1)*n2 + B_r(i2, j2).
    """
    if A.k != B.k:
        raise InvalidInput(f"degrees differ: {A.k} vs {B.k}")
    n1, n2, k = A.n, B.n, A.k
    prod = (A.cells[:, None, :, None, :] * n2 + B.cells[None, :, None, :, :])
    cells = prod.reshape(n1 * n2, n1 * n2, k)
    return EulerSquare(n=n1 * n2, k=k, cells=cells,
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
    """Exhaustive row-Latin, column-Latin and orthogonality check.

    Orthogonality is ordered-pair distinctness per coordinate pair.
    Reports the first violation found with its cell coordinates.
    """
    n, k, cells = E.n, E.k, E.cells
    if cells.min() < 0 or cells.max() >= n:
        loc = np.unravel_index(np.argmax((cells < 0) | (cells >= n)), cells.shape)
        return ValidationReport(False, "cell value out of range", tuple(int(v) for v in loc))
    # Latin: one count of the codes (r*n + line)*n + value over every row,
    # then every column, of every layer; (k, n) True where a line repeats
    layers = np.ascontiguousarray(np.moveaxis(cells, 2, 0))   # (k, n, n)
    line_codes = np.arange(k * n).reshape(k, n, 1) * n
    row_repeats, col_repeats = (
        np.bincount((line_codes + view).ravel(), minlength=k * n * n)
        .reshape(k, n, n).max(axis=2) > 1
        for view in (layers, layers.transpose(0, 2, 1)))
    for r in range(k):
        if row_repeats[r].any():
            return ValidationReport(False, f"row-Latin violation in coordinate {r}",
                                    (int(np.argmax(row_repeats[r])), -1, r))
        if col_repeats[r].any():
            return ValidationReport(False, f"column-Latin violation in coordinate {r}",
                                    (-1, int(np.argmax(col_repeats[r])), r))
    # orthogonality: one count of the n^2 codes per layer pair; the
    # stable sort only locates the first repeated code of a failing pair
    flat_layers = layers.reshape(k, n * n)
    for r in range(k):
        for s in range(r + 1, k):
            flat = flat_layers[r] * n + flat_layers[s]
            if np.bincount(flat, minlength=n * n).max() > 1:
                order = np.argsort(flat, kind="stable")
                dup = order[np.nonzero(np.diff(flat[order]) == 0)[0][0] + 1]
                i, j = divmod(int(dup), n)
                return ValidationReport(
                    False, f"orthogonality violation for coordinates ({r},{s})",
                    (i, j, r))
    return ValidationReport(True)

