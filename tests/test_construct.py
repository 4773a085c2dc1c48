import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eulercs import construct
from eulercs.construct import (SensingMatrix, build_binary_matrix,
                               build_extended, build_for_row_size,
                               build_hadamard, build_ternary, load_esm,
                               save_esm)
from eulercs.errors import Infeasible, InvalidInput, ParseError, decode_utf8
from eulercs.euler import euler_square

REFERENCE_6x9 = np.array([
    [1, 0, 0, 0, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 1, 0, 1, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 1, 0],
])


def csc(mat):
    """mat as a scipy.sparse.csc_matrix, an oracle built apart from to_dense."""
    indptr = np.arange(0, (mat.M + 1) * mat.k, mat.k)
    return sp.csc_matrix((mat.vals.ravel().astype(np.float64), mat.rows.ravel(), indptr),
                         shape=(mat.m, mat.M))


def max_overlap(mat):
    """(max |off-diagonal entry|, diagonal) of the sparse Gram A^T A."""
    A = csc(mat)
    G = (A.T @ A).tocoo()
    return np.abs(G.data[G.row != G.col]).max(initial=0.0), G.diagonal()


def test_reference_6x9_matrix_bit_exact():
    mat = build_binary_matrix(euler_square(3, 2))
    assert np.array_equal(mat.to_dense(), REFERENCE_6x9)


def test_matrix_sizes():
    mat = build_binary_matrix(euler_square(11, 5))
    assert (mat.m, mat.M) == (55, 121)
    mat = build_binary_matrix(euler_square(23, 10))
    assert (mat.m, mat.M) == (230, 529)


def test_small_index_rejected():
    E = euler_square(5, 1)
    with pytest.raises(Infeasible, match=r"^need k >= 2 and n >= 3, got \(5,1\)$"):
        build_binary_matrix(E)


def test_column_weight_and_row_weight():
    mat = build_binary_matrix(euler_square(11, 5))
    dense = mat.to_dense()
    assert (dense.sum(axis=0) == 5).all()   # k ones per column
    assert (dense.sum(axis=1) == 11).all()  # n ones per row
    assert mat.density == pytest.approx(1 / 11)


def test_row_size_6():
    mat = build_for_row_size(6)
    assert (mat.m, mat.M, mat.k) == (6, 9, 2)


def test_row_size_8_prime_power_case():
    mat = build_for_row_size(8)
    assert (mat.m, mat.M, mat.k) == (8, 16, 2)
    off, diag = max_overlap(mat)
    assert off <= 1 and (diag == 2).all()


def test_row_size_12():
    mat = build_for_row_size(12)
    assert (mat.m, mat.M, mat.k) == (12, 16, 3)
    off, _ = max_overlap(mat)
    assert off <= 1


@pytest.mark.parametrize("m", [7, 4, 9, 25, 5, 199])
def test_row_size_exclusions(m):
    with pytest.raises(Infeasible, match=f"^row size {m} is "):
        build_for_row_size(m)


def test_extended_12():
    mat, stages = build_extended(12)
    assert (mat.m, mat.M) == (24, 162)
    assert len(stages) == 1
    stage = stages[0]
    assert (stage.k_t, stage.n_t, stage.copies, stage.cols) == (4, 3, 2, 18)
    off, diag = max_overlap(mat)
    assert off <= 1 and (diag == 2).all()


def test_extended_60():
    mat, stages = build_extended(60)
    assert mat.M == 3600 + 2 * 144 + 4 * 9 == 3924
    assert [s.k_t for s in stages] == [5, 4]
    off, diag = max_overlap(mat)
    assert off <= 1 and (diag == 2).all()


def test_extended_column_lower_bound():
    # geometric-series lower bound on the stage sum
    for n in (12, 24, 60):
        mat, stages = build_extended(n)
        k = mat.k
        k1 = stages[0].k_t
        l = len(stages)
        ratio = k / k1 ** 2
        bound = n ** 2 * (1 - ratio ** (l + 1)) / (1 - ratio)
        assert mat.M >= bound


@pytest.mark.parametrize("n, k, stages", [
    (12, 2, [(4, 3, 2, 18)]),
    (24, 2, [(8, 3, 2, 18)]),
    (60, 2, [(5, 12, 2, 288), (4, 3, 4, 36)]),
])
def test_extended_stage_copies_and_cols_follow_the_offsets(n, k, stages):
    # (k_t, n_t, copies, cols): stage t places k ** t copies of n_t ** 2 columns
    mat, got = build_extended(n)
    assert [(s.k_t, s.n_t, s.copies, s.cols) for s in got] == stages
    assert all(s.copies == k ** t for t, s in enumerate(got, 1))
    assert mat.M == n * n + sum(s.cols for s in got)


def test_extended_single_prime_power_rejected():
    with pytest.raises(Infeasible,
                       match="^n=27 is a single prime power; nothing to extend$"):
        build_extended(27)


def test_extended_small_degree_rejected():
    with pytest.raises(Infeasible, match="^n=6 gives degree k=1 < 2$"):
        build_extended(6)  # minpp = 2 gives k = 1


@pytest.mark.parametrize("h", [1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 64])
def test_hadamard_orders(h):
    H = build_hadamard(h)
    assert np.array_equal(H @ H.T, h * np.eye(h, dtype=np.int64))


@pytest.mark.parametrize("h", [3, 6, 10, 28])
def test_hadamard_unavailable(h):
    with pytest.raises(Infeasible, match=f"^order {h} "):
        build_hadamard(h)


@pytest.mark.parametrize("h", [0, -1, -4])
def test_hadamard_order_below_one_is_invalid(h):
    with pytest.raises(InvalidInput, match=f"^order {h} must be >= 1$"):
        build_hadamard(h)


def test_ternary_20x100():
    mat = build_ternary(5, 1, 1)
    assert (mat.m, mat.M, mat.k, mat.alphabet) == (20, 100, 4, "ternary")
    dense = mat.to_dense()
    assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}
    assert (np.abs(dense).sum(axis=0) == 4).all()


def test_ternary_same_cell_blocks_orthogonal():
    # spawned columns of one binary column share support; with an exact
    # Hadamard of order k their inner products vanish
    dense = build_ternary(5, 1, 1).to_dense()
    block = dense[:, 0:4]
    G = block.T @ block
    assert np.array_equal(G, 4 * np.eye(4))


def test_ternary_cross_block_overlap():
    mat = build_ternary(5, 1, 1)
    off, _ = max_overlap(mat)
    assert off <= 1


def test_ternary_with_truncated_hadamard():
    # k = 9 has no Hadamard matrix; the order-12 one cannot stand in for
    # k+1 = 10 either, so p=3, i=2, j=... pick k where k+1 works: k = 3? no.
    # p^i = 4, j = 1 gives k = 3, needs H(3) -> fall back to H(4) truncated
    mat = build_ternary(2, 2, 1)
    assert (mat.m, mat.M, mat.k) == (12, 48, 3)
    off, _ = max_overlap(mat)
    assert off <= 1
    assert "hadamard=4" in mat.provenance


@pytest.mark.parametrize("build", [
    lambda: build_binary_matrix(euler_square(8, 4)),
    lambda: build_extended(12)[0],
    lambda: build_ternary(5, 1, 1),
], ids=["euler", "extended", "ternary"])
def test_to_dense_matches_sparse(build):
    mat = build()
    dense = mat.to_dense()
    ref = np.asarray(csc(mat).todense())
    assert dense.dtype == ref.dtype == np.float64
    assert np.array_equal(dense, ref)
    assert dense.tobytes(order="A") == ref.tobytes(order="A")
    assert dense.flags.f_contiguous == ref.flags.f_contiguous


def test_to_dense_is_one_read_only_array_per_matrix():
    mat = build_binary_matrix(euler_square(3, 2))
    dense = mat.to_dense()
    assert mat.to_dense() is dense
    assert not dense.flags.writeable
    with pytest.raises(ValueError):
        dense[0, 0] = 5.0
    assert np.array_equal(dense, REFERENCE_6x9)


def test_supports_are_read_only_and_the_callers_arrays_are_not():
    rows = np.array([[0, 1], [0, 2], [1, 2]])
    vals = np.array([[1, 1], [1, -1], [-1, 1]])
    mat = SensingMatrix(m=3, alphabet="ternary", rows=rows, vals=vals)
    dense = mat.to_dense().copy()
    for arr in (mat.rows, mat.vals):
        with pytest.raises(ValueError):
            arr[0, 0] = 2
    rows[0, 0] = 2                 # the caller's own array stays writable
    vals[0, 0] = 5
    assert rows.flags.writeable and vals.flags.writeable
    assert np.array_equal(mat.to_dense(), dense)


def test_replace_densifies_its_own_rows():
    mat = build_binary_matrix(euler_square(3, 2))
    dense = mat.to_dense()
    flipped = replace(mat, rows=mat.rows[::-1])      # the columns reversed
    assert flipped.to_dense() is not dense
    assert np.array_equal(flipped.to_dense(), REFERENCE_6x9[:, ::-1])
    assert np.array_equal(flipped.to_dense(), csc(flipped).toarray())
    assert mat.to_dense() is dense and np.array_equal(dense, REFERENCE_6x9)


def _esm_reread(mat, tmp_path, tab_line=None):
    """mat saved and loaded back; line `tab_line` of the file, if given, is
    rewritten with tabs, so it and the lines after it read token by token."""
    path = tmp_path / "m.esm"
    save_esm(mat, str(path))
    if tab_line is not None:
        lines = path.read_text().splitlines(keepends=True)
        lines[tab_line] = lines[tab_line].replace(" ", "\t")
        path.write_text("".join(lines))
    return load_esm(str(path))


@pytest.mark.parametrize("make", [
    lambda tmp_path: build_binary_matrix(euler_square(11, 5)),
    lambda tmp_path: build_for_row_size(60),
    lambda tmp_path: build_extended(12)[0],
    lambda tmp_path: _esm_reread(build_binary_matrix(euler_square(11, 5)), tmp_path),
    lambda tmp_path: _esm_reread(build_binary_matrix(euler_square(11, 5)), tmp_path, 40),
    lambda tmp_path: _esm_reread(build_binary_matrix(euler_square(3, 2)), tmp_path, 2),
    lambda tmp_path: replace(build_binary_matrix(euler_square(3, 2)), provenance="x"),
    lambda tmp_path: supports(3, [[0, 1], [1, 2]]),
], ids=["euler", "rows", "extended", "esm_canonical", "esm_per_token_tail",
        "esm_per_token_only", "replace", "explicit_ones"])
def test_binary_vals_are_a_broadcast_of_one(make, tmp_path):
    mat = make(tmp_path)
    assert mat.alphabet == "binary"
    assert mat.vals.shape == (mat.M, mat.k) and mat.vals.strides == (0, 0)
    assert mat.vals.dtype == np.int64 and (mat.vals == 1).all()
    assert not mat.vals.flags.writeable


@pytest.mark.parametrize("make", [
    lambda tmp_path: build_ternary(5, 1, 1),
    lambda tmp_path: _esm_reread(build_ternary(5, 1, 1), tmp_path),
    lambda tmp_path: _esm_reread(build_ternary(5, 1, 1), tmp_path, 40),
], ids=["ternary", "esm_canonical", "esm_per_token_tail"])
def test_ternary_vals_are_an_array_of_their_own(make, tmp_path):
    mat = make(tmp_path)
    assert 0 not in mat.vals.strides
    assert (mat.vals == -1).any()
    assert np.array_equal(mat.vals, build_ternary(5, 1, 1).vals)


def test_a_matrix_cannot_be_reassigned():
    mat = build_binary_matrix(euler_square(3, 2))
    for name, value in (("m", 4), ("vals", [[2, 2]] * 9), ("provenance", "x")):
        with pytest.raises(FrozenInstanceError):
            setattr(mat, name, value)
    assert (mat.m, mat.provenance) == (6, "euler n=3 k=2")
    assert np.array_equal(mat.to_dense(), REFERENCE_6x9)


def supports(m, rows, vals=None, alphabet="binary"):
    """The SensingMatrix of m rows with these supports, all ones by default;
    the rows keep the dtype numpy gives them."""
    rows = np.array(rows).reshape(len(rows), -1)
    return SensingMatrix(m=m, alphabet=alphabet, rows=rows,
                         vals=np.ones_like(rows) if vals is None else vals)


def _rows_within(m):
    return f"each column's rows must strictly ascend within 0..{m - 1}"


def _descending_replace():
    """dataclasses.replace of an euler matrix with each column's rows reversed."""
    mat = build_binary_matrix(euler_square(3, 2))
    return replace(mat, rows=mat.rows[:, ::-1])


_ONLY_ONES = "every binary value must be 1"
_SHAPES = "support arrays must be 2-D and of one shape"
_INTEGERS = "support arrays must hold integers"
_PLUS_MINUS_ONE = "every ternary value must be +-1"


@pytest.mark.parametrize("make, message", [
    (lambda: supports(2, [[0], [0]], [[1], [0]]), _ONLY_ONES),
    (lambda: supports(3, [[0], [0]], [[2], [1]], "ternary"), _PLUS_MINUS_ONE),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, -3], [1, 1]], "ternary"), _PLUS_MINUS_ONE),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, 0], [1, 1]], "ternary"), _PLUS_MINUS_ONE),
    (lambda: supports(3, [[1, 1], [0, 2]], alphabet="ternary"), _rows_within(3)),
    (lambda: supports(3, [[2, 0], [0, 1]], alphabet="ternary"), _rows_within(3)),
    (lambda: supports(4, [[0, 1], [1, 5], [2, 3]]), _rows_within(4)),
    (lambda: supports(4, [[0, 1], [1, -1], [2, 3]]), _rows_within(4)),
    (lambda: supports(40, [[0, 1], [1, 45], [2, 3]]), _rows_within(40)),
    (lambda: supports(40, [[0, 1], [1, -1], [2, 3]]), _rows_within(40)),
    (lambda: supports(55, [[0, 0], [1, 2]]), _rows_within(55)),
    (lambda: supports(55, [[2, 1], [1, 2]]), _rows_within(55)),
    (lambda: supports(55, [[0, 55], [1, 2]]), _rows_within(55)),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, -1], [1, 1]]), _ONLY_ONES),
    (lambda: supports(3, [[0, 1], [1, 2]], alphabet="quaternary"),
     "need a binary or ternary alphabet and k >= 1, got 'quaternary' and k=2"),
    (lambda: supports(3, np.zeros((2, 0))),
     "need a binary or ternary alphabet and k >= 1, got 'binary' and k=0"),
    (_descending_replace, _rows_within(6)),
    (lambda: SensingMatrix(m=3, alphabet="binary", rows=[0, 1, 2]), _SHAPES),
    (lambda: SensingMatrix(m=3, alphabet="binary", rows=np.zeros((1, 2, 2), int)), _SHAPES),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, 1]]), _SHAPES),
    (lambda: supports(3, [[0, 1], [1, 2]], [1, 1]), _SHAPES),
    (lambda: supports(3, [[0.9, 1.7], [0.2, 2.5]]), _INTEGERS),
    (lambda: supports(3, [[0.0, 1.0], [1.0, 2.0]]), _INTEGERS),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, 1.5], [1, 1]]), _INTEGERS),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, -1.0], [1, 1]], "ternary"), _INTEGERS),
    (lambda: supports(3, [[0, 1], [1, 2]], [[1, 1j], [1, 1]], "ternary"), _INTEGERS),
    (lambda: supports(3, [[0, 2 ** 70], [1, 2]]), _INTEGERS),
], ids=["degenerate_column", "value_2", "value_minus_3", "zero_value", "repeated_row",
        "descending", "row_5_of_4", "row_-1_of_4", "row_45_of_40", "row_-1_of_40",
        "repeated_row_of_55", "descending_of_55", "row_55_of_55", "binary_minus_one",
        "unknown_alphabet", "k_0", "replace_descending", "rows_1d", "rows_3d",
        "vals_fewer_columns", "vals_1d", "float_rows", "integral_float_rows",
        "float_value", "float_ternary_value", "complex_value", "object_rows"])
def test_construction_refuses_a_bad_support(make, message):
    # every column of a SensingMatrix has squared norm k, the fact
    # coherence's mu = max overlap / k and OMP's support scores rest on
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("alphabet", ["binary", "ternary"])
def test_left_out_vals_are_all_ones(alphabet):
    mat = SensingMatrix(m=4, alphabet=alphabet, rows=[[0, 1], [1, 3], [2, 3]])
    assert (mat.M, mat.k, mat.shape) == (3, 2, (4, 3))
    assert mat.vals.shape == (3, 2) and (mat.vals == 1).all()
    assert mat.vals.dtype == np.int64 and not mat.vals.flags.writeable
    assert np.array_equal(mat.to_dense(), [[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]])


def test_integer_and_bool_supports_are_accepted():
    mat = SensingMatrix(m=3, alphabet="ternary", rows=np.array([[0, 1], [1, 2]], np.uint8),
                        vals=np.array([[1, -1], [1, 1]], np.int8))
    assert mat.rows.dtype == mat.vals.dtype == np.int64
    assert np.array_equal(mat.rows, [[0, 1], [1, 2]])
    assert np.array_equal(mat.vals, [[1, -1], [1, 1]])
    assert np.array_equal(supports(2, [[0, 1]], [[True, True]]).rows, [[0, 1]])


def test_shape_follows_the_rows():
    mat = build_binary_matrix(euler_square(3, 2))
    flipped = replace(mat, rows=mat.rows[::-1])
    assert (flipped.m, flipped.M, flipped.k) == (mat.m, mat.M, mat.k) == (6, 9, 2)
    fewer = replace(mat, rows=mat.rows[:4], vals=None)
    assert (fewer.M, fewer.k, fewer.vals.shape, fewer.density) == (4, 2, (4, 2), 1 / 3)
    with pytest.raises(InvalidInput, match=f"^{_SHAPES}$"):
        replace(mat, rows=mat.rows[:4])         # keeps the (9, 2) vals
    for name in ("M", "k"):
        with pytest.raises(TypeError):
            replace(mat, **{name: 3})


def test_esm_round_trip(tmp_path):
    for mat in (build_binary_matrix(euler_square(11, 5)), build_ternary(5, 1, 1)):
        path = str(tmp_path / "m.esm")
        save_esm(mat, path)
        back = load_esm(path)
        assert (back.m, back.M, back.k, back.alphabet) == \
               (mat.m, mat.M, mat.k, mat.alphabet)
        assert np.array_equal(back.rows, mat.rows)
        assert np.array_equal(back.vals, mat.vals)
        assert back.provenance == mat.provenance


def test_esm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.esm"
    path.write_text("not a matrix\n")
    with pytest.raises(ParseError) as exc:
        load_esm(str(path))
    assert exc.value.line == 1


def test_esm_rejects_corrupt_support(tmp_path):
    mat = build_binary_matrix(euler_square(3, 2))
    path = str(tmp_path / "m.esm")
    save_esm(mat, path)
    lines = open(path).read().splitlines()
    lines[2] = "1 999"  # row index out of range
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_esm(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("ternary, index, text, line", [
    (False, 11, "1 4", 12),                  # a line after the 9th column of 6x9
    (True, 2, "1:1 6:5 11:1 16:-1", 3),
    (True, 2, "1:1 6:0 11:1 16:-1", 3),
    (False, 0, "ESM v1 rows=6 cols=9 alphabet=binary k=0", 1),
    (False, 0, "ESM v1 rows=6 cols=9 alphabet=binary k=-1", 1),
    (False, 0, "ESM v1 rows=-1 cols=9 alphabet=binary k=2", 1),
    (False, 0, "ESM v1 rows=6 cols=-1 alphabet=binary k=2", 1),
], ids=["trailing_line", "ternary_five", "ternary_zero", "k_zero", "k_negative",
        "rows_negative", "cols_negative"])
def test_esm_rejects_extra_line_and_bad_value(tmp_path, ternary, index, text, line):
    mat = build_ternary(5, 1, 1) if ternary else build_binary_matrix(euler_square(3, 2))
    path = str(tmp_path / "m.esm")
    save_esm(mat, path)
    lines = open(path).read().splitlines()
    lines[index:index + 1] = [text]  # replaces the line, or appends past the end
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_esm(path)
    assert exc.value.line == line


def _esm_variant(tmp_path, ternary, index, text, newline="\n"):
    """Path of a (3,2) binary or (5,1,1) ternary ESM with line `index` set to `text`,
    its lines ended by `newline`."""
    mat = build_ternary(5, 1, 1) if ternary else build_binary_matrix(euler_square(3, 2))
    path = tmp_path / "m.esm"
    save_esm(mat, str(path))
    lines = path.read_text().splitlines()
    if index is not None:
        lines[index] = text if text is not None else lines[index].replace(":", " ", 1)
    # newline None: lines end with "\n" but the last has no line break
    path.write_bytes(((newline or "\n").join(lines) + (newline or "")).encode())
    return str(path), mat


# Each defect with what load_esm has always made of it: the ParseError
# (line, message), or None where the file reads as the unmodified matrix.
@pytest.mark.parametrize("ternary, index, text, newline, expected", [
    (False, 3, "", "\n", (4, "column 2 has 0 entries, expected 2")),
    (False, 2, "1 #4", "\n", (3, "bad support token '#4'")),
    (False, 2, "1 4 # x", "\n", (3, "column 1 has 4 entries, expected 2")),
    (False, 2, "1.0 4", "\n", (3, "bad support token '1.0'")),
    (False, 2, "+1 4", "\n", None),
    (False, 2, "١ 4", "\n", None),             # ARABIC-INDIC DIGIT ONE
    (False, None, None, "\r\n", None),
    (False, 2, "1\t4", "\n", None),
    (False, 2, " 1  4 ", "\n", None),
    (False, 2, "1", "\n", (3, "column 1 has 1 entries, expected 2")),
    (False, 2, "1 4 5", "\n", (3, "column 1 has 3 entries, expected 2")),
    (False, 2, "1 4_0", "\n", (3, "row index out of range in column 1")),
    (False, 2, "4 1", "\n", (3, "rows not strictly ascending in column 1")),
    (True, 2, None, "\n", (3, "column 1 has 5 entries, expected 4")),  # '1 1' for '1:1'
    (False, 2, "001 04", "\n", None),
    (False, 2, "-1 4", "\n", (3, "row index out of range in column 1")),
    (False, None, None, None, None),
    (True, 2, "1:+1 6:1 11:1 16:1", "\n", None),
    (False, 2, "1 -9223372036854775808", "\n", (3, "bad support token '-9223372036854775808'")),
    (False, 1, "euler n=3\x0bk=2", "\n", (12, "unexpected line after the 9 column lines")),
], ids=["blank_line", "hash_token", "hash_comment", "float", "plus_sign",
        "non_ascii_digit", "crlf", "tab", "extra_spaces", "short_line", "long_line",
        "underscore", "descending", "ternary_space", "leading_zeros", "negative_row",
        "no_final_newline", "ternary_plus_sign", "row_below_int64",
        "provenance_line_break"])
def test_esm_defect_corpus(tmp_path, ternary, index, text, newline, expected):
    path, mat = _esm_variant(tmp_path, ternary, index, text, newline)
    if expected is None:
        back = load_esm(path)
        assert np.array_equal(back.rows, mat.rows)
        assert np.array_equal(back.vals, mat.vals)
    else:
        with pytest.raises(ParseError) as exc:
            load_esm(path)
        assert (exc.value.line, str(exc.value)) == expected


def _reference_load_esm(data: bytes):
    """The per-token ESM reader load_esm replaced, on the file's bytes."""
    lines = decode_utf8(data).splitlines()
    if not lines or not lines[0].startswith("ESM v1 "):
        raise ParseError("missing 'ESM v1' header", line=1)
    try:
        fields = dict(tok.split("=") for tok in lines[0].split()[2:])
        m, M, k = int(fields["rows"]), int(fields["cols"]), int(fields["k"])
        alphabet = fields["alphabet"]
    except (KeyError, ValueError):
        raise ParseError("malformed header fields", line=1)
    if alphabet not in ("binary", "ternary"):
        raise ParseError(f"unknown alphabet {alphabet!r}", line=1)
    if k < 1 or m < 1 or M < 0:
        raise ParseError(f"counts rows={m} cols={M} k={k} out of range", line=1)
    if len(lines) < 2 + M:
        raise ParseError(f"expected {M} column lines", line=len(lines))
    if len(lines) > 2 + M:
        raise ParseError(f"unexpected line after the {M} column lines", line=3 + M)
    rows = np.zeros((M, k), dtype=np.int64)
    vals = np.ones((M, k), dtype=np.int64)
    for c in range(M):
        parts = lines[2 + c].split()
        if len(parts) != k:
            raise ParseError(f"column {c + 1} has {len(parts)} entries, expected {k}",
                             line=3 + c)
        for l, tok in enumerate(parts):
            try:
                if alphabet == "ternary":
                    r, v = tok.split(":")
                    rows[c, l] = int(r) - 1
                    vals[c, l] = int(v)
                else:
                    rows[c, l] = int(tok) - 1
            except ValueError:
                raise ParseError(f"bad support token {tok!r}", line=3 + c)
        if rows[c].min() < 0 or rows[c].max() >= m:
            raise ParseError(f"row index out of range in column {c + 1}", line=3 + c)
        if np.any(np.diff(rows[c]) <= 0):
            raise ParseError(f"rows not strictly ascending in column {c + 1}",
                             line=3 + c)
    bad = np.flatnonzero((np.abs(vals) != 1).any(axis=1))
    if bad.size:
        raise ParseError(f"ternary value other than +-1 in column {bad[0] + 1}",
                         line=3 + int(bad[0]))
    return m, M, k, alphabet, rows, vals, lines[1]


def _reference_save_esm(mat) -> bytes:
    """The bytes the %-format ESM writer save_esm replaced wrote for mat."""
    ternary = mat.alphabet == "ternary"
    support = mat.rows + 1
    if ternary:
        support = np.stack([support, mat.vals], axis=-1).reshape(mat.M, 2 * mat.k)
    line = " ".join(["%d:%d" if ternary else "%d"] * mat.k) + "\n"
    return (f"ESM v1 rows={mat.m} cols={mat.M} alphabet={mat.alphabet} k={mat.k}\n"
            f"{mat.provenance or 'unknown'}\n" +
            line * mat.M % tuple(support.ravel().tolist())).encode()


# bytes a mutation may write: the format's own, the traps of a
# whole-array reader, and bytes that are not UTF-8 on their own
_MUTATION_BYTES = st.sampled_from(list(b"0123456789 :-+#.,\t\r\n\x0b\xa0\xff") +
                                  [0xd9, 0xa1, 0xef, 0xbc, 0x91])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ternary=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                st.floats(0, 1, exclude_max=True), _MUTATION_BYTES),
                      min_size=1, max_size=4))
def test_esm_byte_mutations_read_as_before(tmp_path, ternary, edits):
    mat = build_ternary(5, 1, 1) if ternary else build_binary_matrix(euler_square(3, 2))
    path = tmp_path / "fuzz.esm"
    save_esm(mat, str(path))
    data = bytearray(path.read_bytes())
    for op, where, byte in edits:
        at = int(where * len(data))
        if op == "set":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    path.write_bytes(data)
    try:
        expected = _reference_load_esm(bytes(data))
    except ParseError as exc:
        with warnings.catch_warnings(), pytest.raises(ParseError) as got:
            warnings.simplefilter("error")      # no numpy parse warning leaks
            load_esm(str(path))
        assert (got.value.line, str(got.value)) == (exc.line, str(exc))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_esm(str(path))
    assert (back.m, back.M, back.k, back.alphabet) == expected[:4]
    assert np.array_equal(back.rows, expected[4])
    assert np.array_equal(back.vals, expected[5])
    assert back.provenance == expected[6]


@st.composite
def _valid_matrices(draw):
    """A binary or ternary SensingMatrix of random supports, m up to 2**62."""
    alphabet = draw(st.sampled_from(["binary", "ternary"]))
    m = draw(st.one_of(st.integers(1, 40), st.integers(1, 2 ** 62)))
    k = draw(st.integers(1, min(m, 5)))
    M = draw(st.integers(0, 12))
    column = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
    rows = np.array([sorted(draw(column)) for _ in range(M)], dtype=np.int64)
    signs = st.lists(st.sampled_from([-1, 1]), min_size=k * M, max_size=k * M)
    vals = np.array(draw(signs), dtype=np.int64).reshape(M, k) if alphabet == "ternary" else None
    return SensingMatrix(m=m, alphabet=alphabet, rows=rows.reshape(M, k), vals=vals,
                         provenance=draw(st.sampled_from(["", "euler n=3 k=2", "é ✓"])))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mat=_valid_matrices(), block=st.integers(1, 40))
def test_esm_writer_matches_the_reference_writer(tmp_path, monkeypatch, mat, block):
    # blocks of a few numbers split the columns at every place
    monkeypatch.setattr(construct, "_BLOCK_VALUES", block)
    path = tmp_path / "m.esm"
    save_esm(mat, str(path))
    assert path.read_bytes() == _reference_save_esm(mat)
    if mat.M:       # what the writer writes never takes the line reader
        monkeypatch.setattr(construct, "_read_lines", lambda lines: pytest.fail("line reader"))
    back = load_esm(str(path))
    monkeypatch.undo()      # the next example may hold no column
    assert (back.m, back.alphabet, back.provenance) == (mat.m, mat.alphabet,
                                                        mat.provenance or "unknown")
    assert np.array_equal(back.rows, mat.rows) and np.array_equal(back.vals, mat.vals)


def test_esm_text_allocates_nothing_proportional_to_m(tmp_path):
    # 2000 rows spread over 0..m-1: a token table spanning them would
    # hold m entries, so its values in use are what is tabled
    path = str(tmp_path / "m.esm")
    save_esm(build_ternary(5, 1, 1), path)      # first calls import and cache
    load_esm(path)
    for m in (4000, 2 ** 62):
        rows = (np.arange(2000) * ((m - 1) // 1999)).reshape(1000, 2)
        mat = SensingMatrix(m=m, alphabet="ternary", rows=rows,
                            vals=np.where(rows % 3, 1, -1))
        tracemalloc.start()
        try:
            save_esm(mat, path)
            back = load_esm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.rows, mat.rows) and np.array_equal(back.vals, mat.vals)
        assert peak < 2 ** 20


@pytest.mark.parametrize("token", ["99999999999999999999", "-9223372036854775807"])
def test_esm_huge_token_is_parse_error(tmp_path, token):
    path, _ = _esm_variant(tmp_path, False, 4, f"1 {token}")
    with pytest.raises(ParseError) as exc:
        load_esm(path)
    assert exc.value.line == 5


@pytest.mark.parametrize("header, body, line", [
    ("rows=6 cols=0 alphabet=binary k=99999999999999999999", "", 1),
    ("rows=6 cols=0 alphabet=binary k=4611686018427387904", "", 1),
    ("rows=6 cols=0 alphabet=binary k=7", "", 1),
    ("rows=99999999999999999999 cols=0 alphabet=binary k=2", "", 1),
    ("rows=6 cols=99999999999999999999 alphabet=binary k=2", "", 1),
    # with columns, k > rows shows on the first column line, as always
    ("rows=6 cols=1 alphabet=binary k=4611686018427387904", "1 2\n", 3),
    ("rows=6 cols=1 alphabet=ternary k=4611686018427387904", "1:1 2:-1\n", 3),
    # rows and k in range, but no (0, k) support array can be shaped
    ("rows=4611686018427387904 cols=0 alphabet=binary k=4611686018427387904", "", 1),
], ids=["k_beyond_int64", "k_beyond_shape", "k_above_rows", "rows_beyond_int64",
        "cols_beyond_int64", "k_beyond_shape_with_column", "ternary_k_beyond_shape",
        "rows_and_k_beyond_shape"])
def test_esm_header_counts_fail_closed(tmp_path, header, body, line):
    path = tmp_path / "m.esm"
    path.write_text(f"ESM v1 {header}\nprovenance\n{body}")
    with pytest.raises(ParseError) as exc:
        load_esm(str(path))
    assert exc.value.line == line


def test_esm_faults_reported_in_line_order(tmp_path):
    # a range fault on a line the fast path reads comes before a bad
    # token on a later line, and a bad token before a later range fault
    path, _ = _esm_variant(tmp_path, False, 3, "2 9")
    lines = (tmp_path / "m.esm").read_text().splitlines()
    lines[6] = "3 x"
    (tmp_path / "m.esm").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_esm(path)
    assert (exc.value.line, str(exc.value)) == (4, "row index out of range in column 2")
    lines[3], lines[8] = "2\t5", "1 0"
    (tmp_path / "m.esm").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        load_esm(path)
    assert (exc.value.line, str(exc.value)) == (7, "bad support token 'x'")


def test_esm_bytes_and_round_trip_at_scale(tmp_path):
    # more columns than one write block, on both alphabets
    for mat in (build_binary_matrix(euler_square(101, 7)), build_ternary(9, 1, 1)):
        path = tmp_path / "m.esm"
        save_esm(mat, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + mat.M
        tokens = ([str(r + 1) for r in mat.rows[-1]] if mat.alphabet == "binary" else
                  [f"{r + 1}:{v}" for r, v in zip(mat.rows[-1], mat.vals[-1])])
        assert lines[-1] == " ".join(tokens)
        back = load_esm(str(path))
        assert np.array_equal(back.rows, mat.rows)
        assert np.array_equal(back.vals, mat.vals)


@pytest.mark.parametrize("p, i", [(0, -1), (1, 3), (-2, 4), (2, 0)])
def test_ternary_rejects_base_or_exponent_out_of_range(p, i):
    # 0 ** -1 divided by zero; (-2) ** 4 built a matrix whose provenance
    # line verify cannot parse back
    with pytest.raises(InvalidInput):
        build_ternary(p, i, 1)


def test_ternary_order_above_cap_is_refused_before_it_is_formed():
    # 2 ** (10 ** 9) alone would take 125 MB, and factorizing it would not end
    tracemalloc.start()
    try:
        with pytest.raises(Infeasible, match=r"^order 2\*\*1000000000 exceeds cap 65536$"):
            build_ternary(2, 10 ** 9, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
