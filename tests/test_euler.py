import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercs.errors import Infeasible, InvalidInput
from eulercs.euler import (EulerSquare, euler_square, factorize,
                           macneish_product, mols_prime_power,
                           validate_euler_square)
from eulercs.fields import build_field

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
    report = validate_euler_square(EulerSquare(n=3, k=2, cells=cells))
    assert not report.ok
    assert "row-Latin" in report.message
    assert report.location[0] == 0


def test_validator_reports_out_of_range():
    E = euler_square(3, 2)
    cells = E.cells.copy()
    cells[1, 1, 1] = 7
    assert not validate_euler_square(EulerSquare(n=3, k=2, cells=cells)).ok


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
    report = validate_euler_square(EulerSquare(*index, cells=cells))
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
    report = validate_euler_square(EulerSquare(n=5, k=3, cells=cells))
    assert report.message == "column-Latin violation in coordinate 1"
    assert report.location == (-1, 0, 1)
