import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulercs
from eulercs import props
from eulercs.construct import (SensingMatrix, build_binary_matrix,
                               build_extended, build_for_row_size,
                               build_ternary)
from eulercs.errors import InvalidInput
from eulercs.euler import euler_square
from eulercs.props import (aspect_constant, coherence, max_binary_columns,
                           rip_delta, sparsity_guarantee, welch_bound)


def euler_matrix(n, k):
    return build_binary_matrix(euler_square(n, k))


def test_coherence_55x121():
    assert coherence(euler_matrix(11, 5)).coherence == 0.2


def test_coherence_230x529():
    assert coherence(euler_matrix(23, 10)).coherence == 0.1


def test_coherence_6x9():
    rep = coherence(euler_matrix(3, 2))
    assert rep.coherence == 0.5
    assert rep.max_overlap == 1
    assert rep.density == pytest.approx(1 / 3)
    assert rep.column_weight_hist == {2: 9}


@pytest.mark.parametrize("build, stored", [
    (lambda: euler_matrix(11, 5),
     (55, 121, 0.2, (0, 17), 1, 0.1, 0.09090909090909091, {5: 121})),
    (lambda: build_ternary(5, 1, 1),
     (20, 100, 0.25, (0, 24), 1, 0.20100756305184242, 0.2, {4: 100})),
    (lambda: spread(euler_matrix(5, 3), 10 ** 15),
     (10 ** 15, 25, 0.3333333333333333, (0, 7), 1, math.nan, 3e-15, {3: 25})),
], ids=["euler_11_5", "ternary_5_1_1", "wide"])
def test_report_properties_equal_the_values_once_stored(build, stored):
    # (m, M, coherence, argmax_pair, max_overlap, welch, density, weights),
    # pinned to the last digit that verify prints
    rep = coherence(build())
    got = (rep.m, rep.M, rep.coherence, rep.argmax_pair, rep.max_overlap,
           rep.welch, rep.density, rep.column_weight_hist)
    assert repr(got) == repr(stored)


def test_coherence_argmax_pair_really_attains():
    mat = euler_matrix(5, 3)
    rep = coherence(mat)
    i, j = rep.argmax_pair
    dense = mat.to_dense()
    assert abs(dense[:, i] @ dense[:, j]) == rep.max_overlap


def test_coherence_vs_brute_force():
    # independent oracle: dense normalized Gram
    for n, k in [(3, 2), (4, 3), (5, 4), (7, 3)]:
        mat = euler_matrix(n, k)
        unit = mat.to_dense() / np.linalg.norm(mat.to_dense(), axis=0)
        gram = np.abs(unit.T @ unit)
        np.fill_diagonal(gram, 0.0)
        assert coherence(mat).coherence == pytest.approx(gram.max())


def test_welch_bound_values():
    assert welch_bound(6, 9) == pytest.approx(0.25)
    assert welch_bound(55, 121) == pytest.approx(0.1)
    for m in (3, 10, 57):
        assert welch_bound(m, m + 1) == pytest.approx(1 / m)


def test_welch_bound_undefined():
    with pytest.raises(InvalidInput,
                       match="^Welch bound needs M > m, got M=9, m=9$"):
        welch_bound(9, 9)


def test_welch_bound_refuses_no_rows():
    with pytest.raises(InvalidInput, match="^m=0 must be >= 1$"):
        welch_bound(0, 5)


def test_welch_is_a_lower_bound_on_measured_coherence():
    for n, k in [(3, 2), (11, 5), (23, 10), (8, 3)]:
        mat = euler_matrix(n, k)
        rep = coherence(mat)
        assert rep.welch <= rep.coherence


def test_max_binary_columns():
    assert max_binary_columns(6, 2, 2) == 15
    assert 9 <= 15 < 18  # n^2 <= cap < 2 n^2 for (n, k) = (3, 2)
    assert max_binary_columns(55, 5, 2) == 148
    assert max_binary_columns(4, 4, 2) == 1


def test_max_binary_columns_dominates_n_squared():
    for n, k in [(3, 2), (11, 5), (12, 2), (23, 10), (49, 6)]:
        assert max_binary_columns(n * k, k, 2) >= n * n


def test_max_binary_columns_argument_order():
    with pytest.raises(InvalidInput):
        max_binary_columns(2, 5, 1)


def test_rip_delta():
    assert rip_delta(0.2, 3) == pytest.approx(0.4)
    assert rip_delta(0.7, 1) == 0.0
    for k, kp in [(5, 3), (10, 7)]:
        assert rip_delta(1 / k, kp) == pytest.approx((kp - 1) / k)


def test_rip_delta_refuses_k_prime_below_one():
    with pytest.raises(InvalidInput, match="^k'=0 must be >= 1$"):
        rip_delta(0.2, 0)


def test_sparsity_guarantee():
    assert sparsity_guarantee(0.2) == 2   # k < 3
    assert sparsity_guarantee(0.1) == 5   # k < 5.5
    assert sparsity_guarantee(1.0) == 0   # k < 1
    assert sparsity_guarantee(Fraction(1, 5)) == 2
    assert sparsity_guarantee(0) == math.inf


def test_sparsity_guarantee_refuses_nan():
    with pytest.raises(InvalidInput, match="^mu=nan must be non-negative$"):
        sparsity_guarantee(float("nan"))


def test_aspect_constant_plain():
    assert aspect_constant(euler_matrix(11, 5)) == pytest.approx(1.0)


def test_aspect_constant_extended():
    mat12, _ = build_extended(12)
    assert aspect_constant(mat12) == pytest.approx(162 / 144)
    mat60, _ = build_extended(60)
    assert aspect_constant(mat60) == pytest.approx(3924 / 3600)


def test_aspect_constant_needs_provenance():
    mat = replace(euler_matrix(3, 2), provenance="")
    with pytest.raises(InvalidInput,
                       match="^aspect constant requires construction provenance$"):
        aspect_constant(mat)


def test_aspect_constant_is_inf_at_zero_coherence():
    # two disjoint columns: mu = 0, as sparsity_guarantee(0) is inf
    mat = replace(binary(4, [[0, 1], [2, 3]]), provenance="disjoint")
    assert coherence(mat).coherence == 0.0
    assert aspect_constant(mat) == math.inf


def test_row_size_coherence_identity():
    # mu = sqrt(M)/m as an exact rational for a spread of row sizes
    for m in (6, 8, 12, 18, 20, 27, 99):
        mat = build_for_row_size(m)
        rep = coherence(mat)
        assert rep.max_overlap == 1
        root = math.isqrt(mat.M)
        assert root * root == mat.M
        assert Fraction(1, mat.k) == Fraction(root, m)


def test_report_serialization_round_trip():
    rep = coherence(euler_matrix(3, 2))
    text = rep.to_text()
    assert "coherence=0.5" in text
    assert "rows=6\n" in text and "max_overlap=1\n" in text


# ---------------------------------------------------------------------------
# exhaustive coherence against a dense oracle

def brute_force(mat):
    """(coherence, max_overlap, argmax_pair) from the dense Gram matrix,
    with the lexicographically smallest pair (i, j), i < j, at the max."""
    dense = mat.to_dense()
    gram = np.abs(dense.T @ dense)
    first, second = np.triu_indices(mat.M, 1)    # row-major: lexicographic
    off = gram[first, second]
    pos = int(np.argmax(off))                    # first occurrence
    return (float(off[pos]) / mat.k, int(off[pos]),
            (int(first[pos]), int(second[pos])))


def binary(m, columns):
    rows = np.array(columns)
    return SensingMatrix(m=m, alphabet="binary", rows=rows, vals=np.ones_like(rows))


def assert_matches_oracle(mat):
    rep = coherence(mat)
    assert (rep.coherence, rep.max_overlap, rep.argmax_pair) == brute_force(mat)
    return rep


def assert_paths_agree(mat):
    """The Gram scan reports what the dense oracle reports, and the
    row-pair proof, where it applies, what the scan reports; it declines
    exactly when two columns share a row pair."""
    max_off, pair = props._gram_scan(mat)
    assert (max_off / mat.k, int(max_off), pair) == brute_force(mat)
    support = (mat.to_dense() != 0).astype(np.int64)
    shared = support.T @ support
    np.fill_diagonal(shared, 0)
    found = props._row_pair_extrema(mat)
    assert (found is None) == (shared.max() > 1)
    if found is not None:
        assert found == (max_off, pair)


EULER_INDICES = [(3, 2), (4, 3), (5, 3), (5, 4), (7, 3), (8, 3), (11, 5), (23, 10)]


@pytest.mark.parametrize("n, k", EULER_INDICES, ids=lambda v: str(v))
def test_coherence_matches_oracle_euler(n, k):
    mat = euler_matrix(n, k)
    rep = assert_matches_oracle(mat)
    assert rep.max_overlap == 1
    assert_paths_agree(mat)


@pytest.mark.parametrize("build", [
    lambda: build_for_row_size(12),
    lambda: build_for_row_size(20),
    lambda: build_for_row_size(27),
    lambda: build_extended(12)[0],
    lambda: build_extended(20)[0],
    lambda: build_ternary(5, 1, 1),
    lambda: build_ternary(2, 2, 1),
], ids=["rows_12", "rows_20", "rows_27", "extended_12", "extended_20",
        "ternary_5_1_1", "ternary_2_2_1"])
def test_coherence_matches_oracle_constructions(build):
    mat = build()
    assert_matches_oracle(mat)
    assert_paths_agree(mat)
    if mat.alphabet == "ternary":
        assert props._row_pair_extrema(mat) is None


@pytest.mark.parametrize("m, columns, overlap, pair", [
    # columns 1 and 3 share rows {0, 1}; 0 and 2 share one row
    (6, [[0, 2, 4], [0, 1, 3], [2, 3, 5], [0, 1, 5]], 2, (1, 3)),
    # a repeated column; the earlier pair (0, 1) overlaps only twice
    (7, [[0, 1, 2], [0, 1, 6], [3, 4, 5], [0, 1, 2]], 3, (0, 3)),
    # two pairs tie at overlap 2: (0, 3) wins over (1, 2)
    (6, [[0, 1, 4], [2, 3, 4], [2, 3, 5], [0, 1, 5]], 2, (0, 3)),
    # disjoint columns: every pair attains 0, so (0, 1)
    (6, [[0, 1], [2, 3], [4, 5]], 0, (0, 1)),
    # one-row columns: only columns 1 and 2 share a row
    (4, [[0], [3], [3], [1]], 1, (1, 2)),
], ids=["overlap_2", "overlap_3", "tie_at_2", "disjoint", "weight_1"])
def test_coherence_matches_oracle_small(m, columns, overlap, pair):
    mat = binary(m, columns)
    rep = assert_matches_oracle(mat)
    assert (rep.max_overlap, rep.argmax_pair) == (overlap, pair)
    assert_paths_agree(mat)


@st.composite
def small_binary(draw):
    m = draw(st.integers(2, 9))
    k = draw(st.integers(1, m))
    M = draw(st.integers(2, 14))
    columns = [sorted(draw(st.lists(st.integers(0, m - 1), min_size=k,
                                    max_size=k, unique=True)))
               for _ in range(M)]
    return binary(m, columns)


@settings(max_examples=200, deadline=None)
@given(small_binary())
def test_coherence_matches_oracle_random_binary(mat):
    assert_matches_oracle(mat)
    assert_paths_agree(mat)


@st.composite
def binary_supports(draw):
    """Binary supports with M <= 40 and k <= 6, m sometimes above M*k;
    half the time one column takes two rows of another, so a row pair
    repeats, at whatever positions the two columns hold it."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k, 60))
    M = draw(st.integers(2, 40))
    column = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
    columns = [sorted(draw(column)) for _ in range(M)]
    if k >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(M)))[:2]
        pair = draw(st.permutations(columns[a]))[:2]
        others = [r for r in range(m) if r not in pair]
        columns[b] = sorted(pair + draw(st.permutations(others))[:k - 2])
    return binary(m, columns)


@settings(max_examples=300, deadline=None)
@given(binary_supports())
def test_coherence_matches_oracle_planted_repeats(mat):
    assert_matches_oracle(mat)
    assert_paths_agree(mat)


@st.composite
def signed_supports(draw):
    """+-1 matrices with M <= 30 and k <= 6, m sometimes above M*k.  The
    columns take their supports from a few drawn ones, so supports
    repeat as in a ternary expansion; half the time one column then
    takes two rows of another, so a row pair repeats across supports."""
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k, 40))
    M = draw(st.integers(2, 30))
    column = st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True)
    supports = [sorted(draw(column)) for _ in range(draw(st.integers(1, M)))]
    columns = [draw(st.sampled_from(supports)) for _ in range(M)]
    if k >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(M)))[:2]
        pair = draw(st.permutations(columns[a]))[:2]
        others = [r for r in range(m) if r not in pair]
        columns[b] = sorted(pair + draw(st.permutations(others))[:k - 2])
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=M * k, max_size=M * k))
    return SensingMatrix(m=m, alphabet="ternary", rows=columns,
                         vals=np.reshape(signs, (M, k)))


@settings(max_examples=300, deadline=None)
@given(signed_supports())
def test_coherence_matches_oracle_signed_repeats(mat):
    assert_matches_oracle(mat)
    assert_paths_agree(mat)


@st.composite
def euler_structured_supports(draw):
    """Binary supports whose row at position t lies in t*n..t*n+n-1, with
    M >= n**2 columns: an Euler square's, in a drawn order, with up to two
    entries redrawn and up to three columns added, so a row pair repeats
    within one position pair unless the square is left whole."""
    n = draw(st.sampled_from([3, 4, 5, 7]))
    k = draw(st.integers(1, n - 1))
    ads = draw(st.permutations(euler_square(n, k).cells.reshape(n * n, k).tolist()))
    value = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 2))):
        ads[draw(st.integers(0, n * n - 1))][draw(st.integers(0, k - 1))] = draw(value)
    ads += draw(st.lists(st.lists(value, min_size=k, max_size=k), max_size=3))
    return binary(n * k, np.arange(k) * n + np.array(ads))


@settings(max_examples=300, deadline=None)
@given(euler_structured_supports())
def test_coherence_matches_oracle_euler_structured(mat):
    assert_matches_oracle(mat)
    assert_paths_agree(mat)


def test_coherence_128_16_peaks_below_three_support_arrays():
    # the proof holds one position-major copy of the supports, and the
    # argmax pair one array of their shape, never both at once
    mat = euler_matrix(128, 16)
    tracemalloc.start()
    try:
        rep = coherence(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.max_overlap, rep.argmax_pair) == (1, (0, 129))
    assert peak < 3 * mat.rows.nbytes


def test_disjoint_ranges_wider_than_the_columns_are_sorted():
    # positions hold rows 0..M-1 and M..2M-1: disjoint, but a count of
    # span**2 = 4 * 10**10 bins would take 320 GB, so the codes are sorted.
    # A last column equal to the first repeats a row pair.
    M = 2 * 10 ** 5
    columns = np.stack([np.arange(M), M + np.arange(M)], axis=1)
    repeated = np.concatenate([columns, columns[:1]])
    tracemalloc.start()
    try:
        reports = [coherence(binary(2 * M, c)) for c in (columns, repeated)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.max_overlap, r.argmax_pair) for r in reports] == [(0, (0, 1)), (2, (0, M))]
    assert peak < 2 ** 25


@pytest.mark.parametrize("shares, pair", [
    # (a, b): column b takes column a's second row
    ([(700, 701)], (700, 701)),
    # j is the first column meeting i, past the scan's first blocks,
    # though 5 and 6 share a row before it
    ([(0, 3500), (5, 6)], (0, 3500)),
    ([(700, 2500), (800, 900)], (700, 2500)),
    ([], (0, 1)),
], ids=["i_past_0", "j_past_first_blocks", "both", "none_shared"])
def test_row_pair_extrema_matches_the_gram_scan_on_thousands_of_columns(shares, pair):
    # column c holds rows 2c and 2c + 1, each its own but for the shares
    M = 4000
    columns = np.arange(2 * M).reshape(M, 2)
    for a, b in shares:
        columns[b] = sorted((columns[b, 0], columns[a, 1]))
    mat = binary(2 * M, columns)
    found = props._row_pair_extrema(mat)
    assert found == props._gram_scan(mat) == (float(bool(shares)), pair)


@pytest.mark.parametrize("m", [16, 17, 256, 257, 65536, 65537])
def test_row_pair_codes_at_the_type_boundaries(m):
    # the last two rows give the largest code, m*m - m - 1; at m = 2**b + 1
    # a code of 2*b bits would wrap (m-2, m-1) onto (0, m-2), a false
    # repeat.  A third column equal to the second really repeats it.
    distinct = binary(m, [[0, m - 2], [m - 2, m - 1]])
    repeated = binary(m, [[0, m - 2], [m - 2, m - 1], [m - 2, m - 1]])
    for mat in (distinct, repeated):
        assert_matches_oracle(mat)
        assert_paths_agree(mat)
    assert props._row_pair_extrema(distinct) == (1.0, (0, 1))
    assert coherence(repeated).argmax_pair == (1, 2)


@pytest.mark.parametrize("m, columns, overlap, pair", [
    # rows {5, 9} sit at positions (1, 2) in column 0 and (0, 1) in column 2
    (13, [[0, 5, 9], [1, 2, 3], [5, 9, 12]], 2, (0, 2)),
    # the repeated pair is the first two rows of one column, the last two
    # of the other; columns 0 and 1 share one row before it
    (9, [[0, 4, 8], [0, 1, 2], [3, 6, 7], [1, 2, 5]], 2, (1, 3)),
], ids=["positions_12_01", "positions_01_12"])
def test_repeat_at_different_positions(m, columns, overlap, pair):
    mat = binary(m, columns)
    rep = assert_matches_oracle(mat)
    assert (rep.max_overlap, rep.argmax_pair) == (overlap, pair)
    assert_paths_agree(mat)


def spread(mat, m):
    """mat with its rows mapped in order into m rows, m > M*k; the stored
    rows are the narrowest type that holds mat.m - 1, so upcast first."""
    return SensingMatrix(m=m, alphabet=mat.alphabet,
                         rows=mat.rows.astype(np.int64) * (m // mat.m),
                         vals=mat.vals)


@pytest.mark.parametrize("build", [
    lambda: euler_matrix(5, 3),
    lambda: binary(7, [[0, 1, 2], [0, 1, 6], [3, 4, 5], [0, 1, 2]]),
    lambda: binary(6, [[0, 1], [2, 3], [4, 5]]),
    lambda: binary(4, [[0], [3], [3], [1]]),
    lambda: build_ternary(5, 1, 1),
], ids=["euler_5_3", "overlap_3", "disjoint", "weight_1", "ternary_5_1_1"])
def test_rows_beyond_the_entries_are_renumbered(build):
    # 10**15 rows: an array of length m (8 PB) cannot be allocated, so
    # either proof that made one would raise MemoryError
    mat = build()
    wide = spread(mat, 10 ** 15)
    rep, wide_rep = coherence(mat), coherence(wide)
    assert (wide_rep.coherence, wide_rep.max_overlap, wide_rep.argmax_pair) == (
        rep.coherence, rep.max_overlap, rep.argmax_pair)
    assert (wide_rep.m, wide_rep.density) == (10 ** 15, wide.density)
    assert math.isnan(wide_rep.welch)


_CAPPED = """
import json
from eulercs import build_binary_matrix, coherence, euler_square
rep = coherence(build_binary_matrix(euler_square(256, 16)))
print(json.dumps([rep.coherence, rep.max_overlap]))
"""


def test_coherence_256_16_fits_in_one_gib():
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercs.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED], capture_output=True,
                          text=True, preexec_fn=cap, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert json.loads(proc.stdout) == [1 / 16, 1]


@pytest.mark.parametrize("columns, overlap", [
    (["1 9999999999", "1 5", "5 10000000000"], 1),
    (["1 9999999999", "2 5", "1 9999999999"], 2),
], ids=["distinct_pairs", "repeated_pair"])
def test_verify_rows_beyond_the_entries_within_one_gib(tmp_path, columns, overlap):
    # 10**10 rows: an array of length m is 80 GB, so verify must prove
    # the three columns on the rows they use
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = tmp_path / "wide.esm"
    path.write_text("ESM v1 rows=10000000000 cols=3 alphabet=binary k=2\n"
                    "unknown\n" + "\n".join(columns) + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercs.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "eulercs.cli", "verify", str(path)],
                          capture_output=True, text=True, preexec_fn=cap,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "rows=10000000000"
    assert f"max_overlap={overlap}" in lines


_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None        # any import of scipy now raises
from eulercs.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    assert code == 0, (argv, code)
"""

# the reports verify printed for these two files when they went through
# the blocked scipy Gram
_T5_REPORT = """rows=20
cols=100
coherence=0.25
argmax_pair=0,24
max_overlap=1
welch=0.20100756305184242
density=0.2
weights=4:100
"""
_OVERLAP_3_REPORT = """rows=7
cols=4
coherence=1.0
argmax_pair=0,3
max_overlap=3
welch=nan
density=0.42857142857142855
weights=3:4
"""


def test_verify_runs_without_scipy(tmp_path):
    # ternary (5,1,1) repeats its supports and overlap_3 repeats a row
    # pair, so both go through the Gram scan
    t5, o3 = tmp_path / "t5.esm", tmp_path / "o3.esm"
    o3.write_text("ESM v1 rows=7 cols=4 alphabet=binary k=3\nunknown\n"
                  "1 2 3\n1 2 7\n4 5 6\n1 2 3\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercs.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [["gen", "--ternary", "5,1,1", "--out", str(t5)],
            ["verify", str(t5)], ["verify", str(o3)]]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == _T5_REPORT + _OVERLAP_3_REPORT
