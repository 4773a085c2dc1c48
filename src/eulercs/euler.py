"""Euler squares (systems of mutually orthogonal Latin squares).

An Euler square of index (n, k) is an n x n array of k-tuples over
{0..n-1} that is row-Latin and column-Latin in every coordinate, and
whose coordinate pairs are jointly orthogonal: superimposing any two
coordinates yields all n^2 ordered pairs exactly once.

Construction follows the classical direct-product recipe: prime-power
component squares from finite-field arithmetic, each built at the
requested degree, and products in increasing-prime order.  A built
square is stored as k coordinate layers, a C-ordered (k, n, n) stack in
the narrowest signed integer type that holds -n (int8 up to n = 128,
int16 up to 32 768), and `EulerSquare.cells` is its (n, n, k) transposed
view: a prime-power square's layer t is rows of the field's add table,
gathered once, and every step that can outgrow the narrow type upcasts
first.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, InvalidInput
from .fields import GaloisField, build_field, factorize


@dataclass(eq=False)
class EulerSquare:
    """An order-n square of k-tuples: cells[i, j, r] is coordinate r of cell (i, j).

    The cells keep the integer dtype and memory layout they are given; a
    built square's are the transposed view of its (k, n, n) layers.
    Float, complex and object arrays are refused, not truncated.
    """
    cells: np.ndarray  # shape (n, n, k), values 0..n-1
    provenance: str = ""

    n = property(lambda self: self.cells.shape[0], doc="order")
    k = property(lambda self: self.cells.shape[2], doc="degree")
    layers = property(lambda self: self.cells.transpose(2, 0, 1),
                      doc="(k, n, n) view: layers[r] is coordinate r")

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 3 or cells.shape[0] != cells.shape[1]:
            raise InvalidInput(f"cells shape {cells.shape} is not (n, n, k)")
        if not np.can_cast(cells.dtype, np.int64, "same_kind"):
            raise InvalidInput(f"cells must hold integers, not {cells.dtype}")
        self.cells = cells


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = "ok"
    location: tuple = ()


def mols_prime_power(F: GaloisField, k: int) -> EulerSquare:
    """Euler square of index (q, k) from GF(q).

    Cell (x, y) coordinate t is code(alpha_t * x + y) where alpha_t is
    the field element with code t; t runs over 1..k in code order.  So
    row x of layer t is row mul[alpha_t, x] of the add table, and the k
    layers are one gather of add-table rows: a (k, q, q) stack in
    np.min_scalar_type(-q), whose (q, q, k) transposed view is the cells.
    """
    q = F.q
    if not 1 <= k <= q - 1:
        raise InvalidInput(f"degree k={k} must satisfy 1 <= k <= q-1={q - 1}")
    add = F.add_table.astype(np.min_scalar_type(-q), copy=False)
    layers = add.take(F.mul_table[1:k + 1], axis=0)
    return EulerSquare(layers.transpose(1, 2, 0), provenance=f"prime-power p={F.p} r={F.r}")


def macneish_product(A: EulerSquare, B: EulerSquare) -> EulerSquare:
    """Direct product: index (n1*n2, k) from indices (n1, k) and (n2, k).

    Row (i1, i2) flattens to i1*n2 + i2 (0-based), likewise for columns;
    coordinate r value is A_r(i1, j1)*n2 + B_r(i2, j2).  The product's
    layers are one (k, n1*n2, n1*n2) stack in np.min_scalar_type(-n1*n2);
    A's layers are cast to that type before the * n2.
    """
    if A.k != B.k:
        raise InvalidInput(f"degrees differ: {A.k} vs {B.k}")
    n2, k, n = B.n, A.k, A.n * B.n
    dtype = np.min_scalar_type(-n)
    # upcast first: NumPy 2 keeps a narrow operand's type, and int8 * 16 wraps
    high = A.layers.astype(dtype)[:, :, None, :, None] * n2
    layers = np.add(high, B.layers[:, None, :, None, :], dtype=dtype)
    return EulerSquare(layers.reshape(k, n, n).transpose(1, 2, 0),
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


def first_repeat(a, b, span: int):
    """Index of the second occurrence of the smallest pair (a[i], b[i]) that
    repeats, or None; a and b hold integers in 0..span-1, whatever their
    types.  The codes a*span + b are formed in one intp array, and one
    scatter into a bool table of span**2 entries decides whether any
    repeats; only a repeat is sorted, to find its index."""
    codes = np.multiply(a, span, dtype=np.intp)
    np.add(codes, b, out=codes, casting="unsafe")     # b's type may be uint64
    seen = np.zeros(span * span, dtype=bool)
    seen[codes] = True
    if np.count_nonzero(seen) == codes.size:
        return None
    order = np.argsort(codes, kind="stable")
    return int(order[np.nonzero(np.diff(codes[order]) == 0)[0][0] + 1])


def _range_report(n: int, layers, first: int = 0) -> ValidationReport:
    """validate_euler_square's range check on coordinates first, first + 1,
    ... of an order-n square, as (c, n*n) layers in row-major cell order:
    the first value outside 0..n-1 in (cell, coordinate) order."""
    if (bad := (layers < 0) | (layers >= n)).any():
        cell = int(np.argmax(bad.any(axis=0)))
        r = first + int(np.argmax(bad[:, cell]))
        return ValidationReport(False, "cell value out of range", (*divmod(cell, n), r))
    return ValidationReport(True)


def latin_report(n: int, coordinates) -> ValidationReport:
    """validate_euler_square's (row, r) and (column, r) counts on coordinates
    r = 0, 1, ... of an order-n square, each n*n values in row-major cell
    order, taken one at a time and range-checked just before its counts."""
    row, col = np.divmod(np.arange(n * n), n)
    for r, coordinate in enumerate(coordinates):
        if not (report := _range_report(n, coordinate[None], r)).ok:
            return report
        for kind, factor in (("row", row), ("column", col)):
            if (dup := first_repeat(factor, coordinate, n)) is not None:
                i, j = divmod(dup, n)
                return ValidationReport(False, f"{kind}-Latin violation in coordinate {r}",
                                        (i, -1, r) if factor is row else (-1, j, r))
    return ValidationReport(True)


def validate_euler_square(E: EulerSquare) -> ValidationReport:
    """Exhaustive check that the k + 2 factors, row, column and the k
    coordinates, are pairwise orthogonal: each pair takes each of its n^2
    value pairs once.  (row, r) orthogonal is row-Latin in coordinate r,
    and (column, r) column-Latin.

    After the range check the pairs are visited as (row, r), (column, r)
    for r = 0..k-1 (`latin_report`), then (r, s) for r < s.  The first
    pair with a repeat is reported at the second cell, in row-major order,
    of its smallest repeated value pair: a row-Latin fault names the first
    row holding a repeat, a column-Latin fault the first column.
    """
    n, k = E.n, E.k
    layers = E.layers.reshape(k, n * n)     # a view of a built square's layers
    if not (report := _range_report(n, layers)).ok:
        return report
    if not (report := latin_report(n, layers)).ok:
        return report
    for r, s in ((r, s) for r in range(k) for s in range(r + 1, k)):
        if (dup := first_repeat(layers[r], layers[s], n)) is not None:
            return ValidationReport(False, f"orthogonality violation for coordinates ({r},{s})",
                                    (*divmod(dup, n), r))
    return ValidationReport(True)
