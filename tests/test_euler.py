import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercs.errors import Infeasible, InvalidInput
from eulercs.euler import (EulerSquare, ValidationReport, euler_square,
                           factorize, first_repeat, macneish_product,
                           mols_prime_power, validate_euler_square)
from eulercs.fields import build_field, is_prime

# the printed index-(3,2) square, cell tuples row by row
SQUARE_3_2 = [
    [(0, 0), (1, 1), (2, 2)],
    [(1, 2), (2, 0), (0, 1)],
    [(2, 1), (0, 2), (1, 0)],
]


def test_factorize_examples():
    assert factorize(12).components == ((2, 2, 4), (3, 1, 3))
    assert factorize(60).components == ((2, 2, 4), (3, 1, 3), (5, 1, 5))
    assert factorize(7).components == ((7, 1, 7),)


def test_factorize_rejects_small():
    with pytest.raises(InvalidInput):
        factorize(1)


def test_mols_gf3_matches_reference_square():
    E = mols_prime_power(build_field(3, 1), 2)
    assert [[tuple(E.cells[i, j]) for j in range(3)] for i in range(3)] == SQUARE_3_2


def test_mols_gf5_cell_value():
    E = mols_prime_power(build_field(5, 1), 4)
    # coordinate t=2 at cell (x=1, y=3): 2*1 + 3 mod 5
    assert E.cells[1, 3, 1] == 0


def test_mols_gf4_is_valid():
    E = mols_prime_power(build_field(2, 2), 3)
    assert validate_euler_square(E).ok


def test_mols_degree_bound():
    with pytest.raises(InvalidInput,
                       match=r"^degree k=3 must satisfy 1 <= k <= q-1=2$"):
        mols_prime_power(build_field(3, 1), 3)


def test_macneish_product_12():
    A = mols_prime_power(build_field(2, 2), 2)
    B = mols_prime_power(build_field(3, 1), 2)
    P = macneish_product(A, B)
    assert P.n == 12 and P.k == 2
    assert validate_euler_square(P).ok


def test_macneish_product_9():
    B = mols_prime_power(build_field(3, 1), 2)
    P = macneish_product(B, B)
    assert P.n == 9 and validate_euler_square(P).ok


def test_macneish_size_arithmetic():
    A = euler_square(5, 2)
    B = euler_square(3, 2)
    assert macneish_product(A, B).n == 15


def test_macneish_degree_mismatch():
    with pytest.raises(InvalidInput, match="^degrees differ: 2 vs 3$"):
        macneish_product(euler_square(5, 2), euler_square(7, 3))


def test_euler_square_reference_example():
    E = euler_square(3, 2)
    assert [[tuple(E.cells[i, j]) for j in range(3)] for i in range(3)] == SQUARE_3_2


def test_euler_square_macneish_bound():
    with pytest.raises(Infeasible, match=r"^index \(12,3\) not constructible: "
                       r"k exceeds minpp\(12\)-1 = 2$"):
        euler_square(12, 3)  # minpp(12) = 3, so k <= 2


def test_euler_square_12_2_valid():
    E = euler_square(12, 2)
    assert validate_euler_square(E).ok


def test_euler_square_order_bound():
    with pytest.raises(Infeasible, match="^order n=2 must be >= 3$"):
        euler_square(2, 1)


def test_full_degree_exists_for_prime_powers():
    for q in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              4, 8, 9, 16, 25, 27, 32, 49]:
        E = euler_square(q, q - 1)
        assert E.n == q and E.k == q - 1


def test_validator_reports_row_violation():
    E = euler_square(3, 2)
    cells = E.cells.copy()
    cells[0, 0, 0] = 1  # duplicates value 1 in row 0, coordinate 0
    report = validate_euler_square(EulerSquare(cells))
    assert not report.ok
    assert "row-Latin" in report.message
    assert report.location[0] == 0


def test_validator_reports_out_of_range():
    E = euler_square(3, 2)
    cells = E.cells.copy()
    cells[1, 1, 1] = 7
    assert not validate_euler_square(EulerSquare(cells)).ok


def test_square_shape_follows_its_cells():
    E = euler_square(12, 2)
    assert (E.n, E.k, E.cells.shape) == (12, 2, (12, 12, 2))
    E.cells = E.cells[:, :, :1]
    assert (E.n, E.k) == (12, 1)
    # an integer array keeps its dtype: a narrow one is not widened
    for dtype in (np.int8, np.uint8):
        square = EulerSquare(np.zeros((4, 4, 3), dtype=dtype))
        assert (square.n, square.k, square.cells.dtype) == (4, 3, dtype)


@pytest.mark.parametrize("cells, message", [
    (np.zeros((3, 3), int), r"^cells shape \(3, 3\) is not \(n, n, k\)$"),
    (np.zeros((3, 3, 2, 1), int), r"^cells shape \(3, 3, 2, 1\) is not \(n, n, k\)$"),
    (np.zeros((3, 4, 2), int), r"^cells shape \(3, 4, 2\) is not \(n, n, k\)$"),
    (euler_square(3, 2).cells + 0.6, "^cells must hold integers, not float64$"),
    (euler_square(3, 2).cells + 0.0, "^cells must hold integers, not float64$"),
], ids=["2d", "4d", "not_square", "fractional", "integral_float"])
def test_square_refuses_bad_cells(cells, message):
    # truncated to int64, (3,2) + 0.6 would validate
    with pytest.raises(InvalidInput, match=message):
        EulerSquare(cells)


def test_all_constructible_small_orders_validate():
    for n in range(3, 25):
        minpp = factorize(n).min_value
        for k in range(1, minpp):
            assert validate_euler_square(euler_square(n, k)).ok, (n, k)


def test_product_pairs_validate():
    pairs = [(3, 4), (3, 5), (4, 5), (3, 7), (5, 7), (3, 8), (4, 9), (7, 8),
             (5, 9), (8, 9), (4, 25), (3, 25), (9, 11)]
    for n1, n2 in pairs:
        assert n1 * n2 <= 300
        A = euler_square(n1, 2)
        B = euler_square(n2, 2)
        assert validate_euler_square(macneish_product(A, B)).ok, (n1, n2)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(5, 4), (7, 6), (8, 7), (9, 8), (11, 10)]),
       st.data())
def test_lower_degree_is_a_valid_prefix(index, data):
    # euler_square builds each component at degree k, which gives the
    # first k coordinates of the full-degree square
    n, k = index
    E = euler_square(n, k)
    k_new = data.draw(st.integers(min_value=1, max_value=k))
    R = euler_square(n, k_new)
    assert np.array_equal(R.cells, E.cells[:, :, :k_new])
    assert validate_euler_square(R).ok


@pytest.mark.parametrize("index, r, s, location", [
    ((5, 4), 1, 3, (1, 3, 1)),
    ((7, 3), 0, 2, (1, 6, 0)),
])
def test_validator_reports_latin_but_not_orthogonal(index, r, s, location):
    E = euler_square(*index)
    cells = E.cells.copy()
    cells[:, :, s] = cells[:, :, r]   # still Latin in every coordinate
    report = validate_euler_square(EulerSquare(cells))
    assert not report.ok
    assert report.message == f"orthogonality violation for coordinates ({r},{s})"
    assert report.location == location


def test_euler_square_31_30_cells_pinned():
    E = euler_square(31, 30)
    cells = np.ascontiguousarray(E.cells, dtype="<i8")
    assert hashlib.sha256(cells.tobytes()).hexdigest() == \
        "2500ef67a3c6dd3625363b2dab995924c6637c05ecf99f99399b3f24c239dc37"


def test_validator_reports_column_violation():
    E = euler_square(5, 3)
    cells = E.cells.copy()
    cells[3, :, 1] = cells[0, :, 1]   # rows stay Latin, columns repeat
    report = validate_euler_square(EulerSquare(cells))
    assert report.message == "column-Latin violation in coordinate 1"
    assert report.location == (-1, 0, 1)


def _scan_oracle(n, k, cells):
    """validate_euler_square's documented report, by a cell-by-cell scan:
    the first out-of-range cell in (i, j, r) order; then per coordinate r
    the first row, then the first column, that repeats a value; then per
    coordinate pair (r, s) with r < s the smallest repeated value pair,
    located at its second cell in row-major order."""
    for i in range(n):
        for j in range(n):
            for r in range(k):
                if not 0 <= cells[i][j][r] < n:
                    return ValidationReport(False, "cell value out of range", (i, j, r))
    for r in range(k):
        for i in range(n):
            if len({cells[i][j][r] for j in range(n)}) < n:
                return ValidationReport(
                    False, f"row-Latin violation in coordinate {r}", (i, -1, r))
        for j in range(n):
            if len({cells[i][j][r] for i in range(n)}) < n:
                return ValidationReport(
                    False, f"column-Latin violation in coordinate {r}", (-1, j, r))
    for r in range(k):
        for s in range(r + 1, k):
            seen = {}
            for i in range(n):
                for j in range(n):
                    seen.setdefault((cells[i][j][r], cells[i][j][s]), []).append((i, j))
            repeated = [pair for pair, where in seen.items() if len(where) > 1]
            if repeated:
                i, j = seen[min(repeated)][1]
                return ValidationReport(
                    False, f"orthogonality violation for coordinates ({r},{s})",
                    (i, j, r))
    return ValidationReport(True)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(3, 2), (4, 3), (5, 4), (7, 3), (8, 7), (9, 8), (12, 2)]),
       st.data())
def test_validator_matches_a_cell_by_cell_oracle(index, data):
    # squares with several faults of different kinds: which one is
    # reported, and where, is fixed by the scan order above
    n, k = index
    cells = euler_square(n, k).cells.copy()
    if data.draw(st.booleans()):
        r, s = data.draw(st.permutations(range(k)))[:2]
        cells[:, :, s] = cells[:, :, r]
    # each edit sets one cell, maybe out of range, or swaps two cells of a
    # row (rows stay Latin) or of a column (columns stay Latin)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, i2, j2 = (data.draw(st.integers(0, n - 1)) for _ in range(4))
        r = data.draw(st.integers(0, k - 1))
        edit = data.draw(st.sampled_from(["set", "row swap", "column swap"]))
        if edit == "set":
            cells[i, j, r] = data.draw(st.one_of(st.integers(0, n - 1),
                                                 st.sampled_from([-1, n])))
        elif edit == "row swap":
            cells[i, [j, j2], r] = cells[i, [j2, j], r]
        else:
            cells[[i, i2], j, r] = cells[[i2, i], j, r]
    report = validate_euler_square(EulerSquare(cells))
    assert report == _scan_oracle(n, k, cells.tolist())


def _formula_layer(F, t):
    """(q, q) int64 coordinate t of GF(q)'s square as mols_prime_power filled
    it before it gathered add-table rows: a reference kept for the tests
    below."""
    return F.add_table[F.mul_table[t][:, None], np.arange(F.q)[None, :]].astype(np.int64)


def _formula_square(n, k):
    """euler_square(n, k)'s cells in int64, from _formula_layer and the
    product's formula A_r(i1, j1)*n2 + B_r(i2, j2)."""
    cells = None
    for p, r, q in factorize(n).components:
        F = build_field(p, r)
        comp = np.stack([_formula_layer(F, t) for t in range(1, k + 1)], axis=-1)
        cells = comp if cells is None else (
            cells[:, None, :, None, :] * q + comp[None, :, None, :, :]).reshape(
                cells.shape[0] * q, cells.shape[0] * q, k)
    return cells


PRIME_POWERS = [p ** r for p in range(2, 257) if is_prime(p)
                for r in range(1, 9) if p ** r <= 256]


@pytest.mark.parametrize("q", sorted(PRIME_POWERS))
def test_layers_match_the_cell_formula(q):
    # each coordinate against the formula at full degree; the degree only
    # takes the first k multiplier rows, so every k is built up to q = 128
    # and a spread of k above
    F = build_field(*factorize(q).components[0][:2])
    full = mols_prime_power(F, q - 1)
    assert full.cells.dtype == np.min_scalar_type(-q)
    assert full.cells.base is not None and full.layers.flags.c_contiguous
    for t in range(1, q):
        assert np.array_equal(full.layers[t - 1], _formula_layer(F, t)), t
    for k in range(1, q) if q <= 128 else sorted({1, 2, q // 2, q - 2, q - 1}):
        E = mols_prime_power(F, k)
        assert E.cells.dtype == full.cells.dtype
        assert np.array_equal(E.cells, full.cells[:, :, :k]), k


@pytest.mark.parametrize("n, k, dtype", [
    (127, 16, np.int8), (128, 16, np.int8),
    # GF(256)'s uint8 table holds 255, which int8 does not
    (256, 16, np.int16),
    # components of order 16 and 9 are int8, and 15 * 9 + 8 is not
    (144, 8, np.int16),
], ids=["127", "128", "256", "9x16"])
def test_narrow_layers_at_type_boundaries(n, k, dtype):
    E = euler_square(n, k)
    assert E.cells.dtype == dtype and E.cells.shape == (n, n, k)
    assert np.array_equal(E.cells, _formula_square(n, k))
    assert E.cells.max() == n - 1
    assert validate_euler_square(E).ok
    for p, r, q in factorize(n).components:
        assert mols_prime_power(build_field(p, r), k).cells.dtype == np.min_scalar_type(-q)


def _first_repeat_int64(a, b, span):
    """first_repeat by one bincount of int64 codes: the reference."""
    codes = np.multiply(a, span, dtype=np.int64)
    np.add(codes, b, out=codes, casting="unsafe")
    if np.bincount(codes).max() <= 1:
        return None
    order = np.argsort(codes, kind="stable")
    return int(order[np.nonzero(np.diff(codes[order]) == 0)[0][0] + 1])


# the types callers pass: a square's int8 and int16 layers, coherence's
# uint16 rows minus lo, verify's intp coordinates; and a uint64 b
@pytest.mark.parametrize("span, a_type, b_type", [
    (span, a, b) for span in (2, 15, 16, 255, 256, 257)
    for a, b in ((np.int8, np.int8), (np.int16, np.int16), (np.uint16, np.uint16),
                 (np.intp, np.intp), (np.intp, np.uint64))
    if np.iinfo(a).max >= span - 1],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_first_repeat_matches_the_int64_count(span, a_type, b_type):
    rng = np.random.default_rng(span)
    size = span * span

    def both(codes):
        a, b = np.divmod(codes, span)
        a, b = a.astype(a_type), b.astype(b_type)
        found = first_repeat(a, b, span)
        assert found == _first_repeat_int64(a, b, span)
        return found

    square = rng.permutation(size)      # every pair once, as in a proved square
    assert both(square) is None
    # one repeat planted at the first, a middle and the last index: the
    # first takes a later pair, so its second occurrence is that pair's
    for where in (0, size // 2, size - 1):
        planted = square.copy()
        source = int(rng.integers(1, size)) if where == 0 else int(rng.integers(0, where))
        planted[where] = planted[source]
        assert both(planted) == max(where, source)
    # draws with several repeats: the smallest repeated pair is reported
    for length in (size // 2 + 1, 2 * size):
        assert both(rng.integers(0, size, length)) is not None
