import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulercs
from eulercs import recovery
from eulercs.construct import build_binary_matrix
from eulercs.errors import ConvergenceFailure, EulerCSError, InvalidInput
from eulercs.euler import euler_square
from eulercs.recovery import (SNR_CAP_DB, TIE_RTOL, basis_pursuit,
                              gen_bernoulli_matrix, gen_gaussian_matrix,
                              gen_sparse_signal, omp_batch, recover, snr)


@pytest.fixture(scope="module")
def A55():
    return build_binary_matrix(euler_square(11, 5)).to_dense().astype(float)


def test_omp_single_atom(A55):
    result = omp_batch(A55, A55[:, 5][None], 1)[0]
    assert result.support == [5]
    assert result.estimate[5] == pytest.approx(1.0)
    assert result.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_omp_zero_measurement(A55):
    result = omp_batch(A55, np.zeros((1, 55)), 3)[0]
    assert result.iterations == 0
    assert not result.estimate.any()


def test_omp_shape_check(A55):
    with pytest.raises(EulerCSError) as exc:
        omp_batch(A55, np.zeros((1, 54)), 1)
    assert type(exc.value) is EulerCSError
    assert str(exc.value) == "y has length 54, expected 55"


def test_omp_exact_within_guarantee(A55):
    # mu = 0.2 guarantees all 2-sparse signals
    for seed in range(25):
        x = gen_sparse_signal(121, 2, (99, seed))
        result = omp_batch(A55, (A55 @ x)[None], 2)[0]
        assert snr(x, result.estimate) >= 100.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 2))
def test_omp_guarantee_property(seed, k):
    A = build_binary_matrix(euler_square(11, 5)).to_dense().astype(float)
    x = gen_sparse_signal(121, k, seed)
    result = omp_batch(A, (A @ x)[None], k)[0]
    assert result.residual_norm <= 1e-9
    assert snr(x, result.estimate) >= 100.0


def _reference_omp(A, y, K, tol=1e-12):
    """OMP by definition: a fresh least-squares fit after every pick."""
    norms = np.linalg.norm(A, axis=0)
    support, r = [], y
    while len(support) < K and np.linalg.norm(r) > tol:
        scores = np.abs(A.T @ r) / norms
        j = int(np.argmax(scores >= scores.max() * (1 - TIE_RTOL)))
        if j in support:
            break
        support.append(j)
        coef = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
        r = y - A[:, support] @ coef
    return sorted(support)


def _level_measurements(A, k, trials=12, seed=3):
    M = A.shape[1]
    return np.stack([A @ gen_sparse_signal(M, k, (seed, k, t))
                     for t in range(trials)])


def _assert_batch_matches_single(A, Y, K):
    for y, got in zip(Y, omp_batch(A, Y, K)):
        one = omp_batch(A, y[None], K)[0]
        assert got.support == one.support == _reference_omp(A, y, K)
        assert got.iterations == one.iterations
        assert got.rank_deficient == one.rank_deficient
        assert got.residual_norm == one.residual_norm
        assert np.array_equal(got.estimate, one.estimate)


@pytest.mark.parametrize("make, levels", [
    (lambda: build_binary_matrix(euler_square(11, 5)).to_dense(), (2, 10, 20, 27)),
    (lambda: build_binary_matrix(euler_square(23, 10)).to_dense(), (5, 25, 40)),
    (lambda: gen_gaussian_matrix(55, 121, 7), (3, 15, 27)),
], ids=["euler_11_5", "euler_23_10", "gaussian_55x121"])
def test_omp_batch_matches_single_trials(make, levels):
    A = make().astype(float)
    for k in levels:
        # the last row is y = 0, which stops before the first pick
        Y = np.vstack([_level_measurements(A, k), np.zeros(A.shape[0])])
        _assert_batch_matches_single(A, Y, k)


def test_omp_batch_stall_and_zero_rows():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    # row 0 leaves the residual e3 after one pick; every score is then 0,
    # the tie goes to column 0 again and the trial stalls
    Y = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 0.0]])
    results = omp_batch(A, Y, 2)
    assert [r.iterations for r in results] == [1, 0, 2]
    assert results[0].support == [0] and results[0].residual_norm == 1.0
    _assert_batch_matches_single(A, Y, 2)


@pytest.mark.parametrize("first", [[0.3, 0.2, 0.1], [0.1, 0.2, 0.3]])
def test_omp_exact_tie_goes_to_lower_index(first):
    # both columns score 0.6 / ||(0.1, 0.2, 0.3)||; summation order rounds
    # one of the two up, and which one depends on the column order
    A = np.array([first, first[::-1], [1.0, -1.0, 0.0]]).T
    assert omp_batch(A, np.ones((1, 3)), 1)[0].support == [0]


def test_omp_tie_pinned_euler_11_5():
    # seed 3, level 25, trial 6: at pick 25 columns 82 and 105 tie exactly
    A = build_binary_matrix(euler_square(11, 5)).to_dense().astype(float)
    Y = _level_measurements(A, 25, trials=7)
    for result in (omp_batch(A, Y, 25)[6], omp_batch(A, Y[6][None], 25)[0]):
        assert 82 in result.support and 105 not in result.support


def test_omp_batch_rejects_negative_k(A55):
    with pytest.raises(InvalidInput):
        omp_batch(A55, np.ones((2, 55)), -1)
    result = omp_batch(A55, A55[:, 5][None], 0)[0]
    assert result.iterations == 0 and not result.estimate.any()


@pytest.mark.parametrize("make, levels", [
    (lambda: build_binary_matrix(euler_square(11, 5)).to_dense(), range(1, 28)),
    (lambda: gen_gaussian_matrix(55, 121, 7), range(1, 28)),
    (lambda: build_binary_matrix(euler_square(23, 10)).to_dense(), range(1, 41, 3)),
], ids=["euler_11_5", "gaussian_55x121", "euler_23_10"])
def test_omp_estimate_is_least_squares_on_its_support(make, levels, monkeypatch):
    A = make().astype(float)
    Ys = {k: _level_measurements(A, k) for k in levels}
    monkeypatch.setattr(np.linalg, "lstsq", None)     # the fit comes from the loop
    results = {k: omp_batch(A, Y, k) for k, Y in Ys.items()}
    monkeypatch.undo()
    for k, Y in Ys.items():
        for y, result in zip(Y, results[k]):
            want = np.zeros(A.shape[1])
            want[result.support] = np.linalg.lstsq(A[:, result.support], y, rcond=None)[0]
            assert not result.rank_deficient
            assert np.linalg.norm(result.estimate - want) <= 1e-12 * np.linalg.norm(want)
            assert result.residual_norm == pytest.approx(
                np.linalg.norm(y - A @ want), rel=1e-6, abs=1e-12)


def _rank_two_case():
    """A 3x4 matrix of rank 2 and a y with a component off its plane."""
    rng = np.random.default_rng(0)
    B = rng.standard_normal((3, 2))
    A = B @ rng.standard_normal((2, 4))
    return A, B @ np.array([1.0, -2.0]) + np.cross(B[:, 0], B[:, 1])


def test_omp_stops_before_a_dependent_column():
    # the first two picks span A's plane; the third best column lies in
    # it, so its pivot is rounding noise and the trial stops at two
    A, y = _rank_two_case()
    result = omp_batch(A, y[None], 3)[0]
    assert result.support == [0, 2] and result.iterations == 2
    assert result.rank_deficient
    assert np.all(np.isfinite(result.estimate))
    assert result.residual_norm == pytest.approx(0.304979, abs=1e-6)
    fit = np.linalg.lstsq(A[:, [0, 2]], y, rcond=None)[0]
    assert np.allclose(result.estimate[[0, 2]], fit, rtol=1e-12, atol=0)


def test_omp_batch_matches_omp_on_a_dependent_column():
    A, y = _rank_two_case()
    Y = np.stack([y, A[:, 1], y])
    one = omp_batch(A, y[None], 3)[0]
    for got in omp_batch(A, Y, 3)[::2]:
        assert got.support == one.support
        assert got.rank_deficient and one.rank_deficient
        assert got.residual_norm == one.residual_norm
        assert np.array_equal(got.estimate, one.estimate)


def test_basis_pursuit_single_column(A55):
    result = basis_pursuit(A55, A55[:, 3])
    expect = np.zeros(121)
    expect[3] = 1.0
    assert np.allclose(result.estimate, expect, atol=1e-6)


def test_basis_pursuit_agrees_with_omp(A55):
    for seed in range(5):
        x = gen_sparse_signal(121, 2, (7, seed))
        y = A55 @ x
        xo = omp_batch(A55, y[None], 2)[0].estimate
        xb = basis_pursuit(A55, y).estimate
        assert np.allclose(xb, xo, atol=1e-6)
        assert np.allclose(xb, x, atol=1e-6)


def test_basis_pursuit_infeasible_raises(A55):
    y = np.ones(55)  # block-sum structure makes this unreachable exactly
    with pytest.raises(ConvergenceFailure) as exc:
        basis_pursuit(A55, y + np.arange(55))
    assert exc.value.result is not None
    assert exc.value.result.estimate.shape == (121,)


def test_basis_pursuit_support_holds_int(A55):
    converged = basis_pursuit(A55, A55[:, 3])
    with pytest.raises(ConvergenceFailure) as exc:
        basis_pursuit(A55, np.ones(55) + np.arange(55))
    for result in (converged, exc.value.result):
        assert result.support
        assert all(type(i) is int for i in result.support)
    assert converged.converged and not exc.value.result.converged


def test_basis_pursuit_step_limit(A55, monkeypatch):
    y = A55 @ gen_sparse_signal(121, 8, 5)
    limit = basis_pursuit(A55, y).iterations - 1
    monkeypatch.setattr(recovery, "BP_MAX_STEPS", limit)
    with pytest.raises(ConvergenceFailure,
                       match=f"^basis pursuit did not reach lam = 0 in {limit} steps$") as exc:
        basis_pursuit(A55, y)
    assert exc.value.result.iterations == limit
    assert not exc.value.result.converged


def test_recover_rejects_unknown_solver(A55):
    with pytest.raises(InvalidInput):
        recover(A55, np.ones((2, 55)), 2, "lasso")


def test_recover_returns_nonconverged_bp_rows(A55):
    infeasible = np.ones(55) + np.arange(55)
    Y = np.stack([A55[:, 3], infeasible, A55[:, 7] - A55[:, 90]])
    results = recover(A55, Y, 2, "bp")
    assert [r.converged for r in results] == [True, False, True]
    assert results[1].estimate.shape == (121,)
    with pytest.raises(ConvergenceFailure) as exc:
        basis_pursuit(A55, infeasible)
    assert np.array_equal(results[1].estimate, exc.value.result.estimate)
    for y, result in zip(Y[[0, 2]], results[::2]):
        assert np.array_equal(result.estimate, basis_pursuit(A55, y).estimate)


@pytest.mark.parametrize("matrix", ["euler_11_5", "gaussian_55x121"])
def test_basis_pursuit_reaches_the_lp_optimum(A55, matrix):
    from scipy.optimize import linprog
    A = A55 if matrix == "euler_11_5" else gen_gaussian_matrix(55, 121, 7)
    for k in (4, 8, 12, 16, 20):
        for t in range(20):
            y = A @ gen_sparse_signal(121, k, (7, k, t))
            result = basis_pursuit(A, y)
            assert result.converged
            # min 1.(u + v) subject to A (u - v) = y, u, v >= 0
            lp = linprog(np.ones(242), A_eq=np.hstack([A, -A]), b_eq=y,
                         bounds=(0, None), method="highs")
            assert lp.status == 0
            assert np.abs(result.estimate).sum() <= (1 + 1e-9) * lp.fun, (k, t)


_NO_LP_SOLVER = """
import sys
import numpy as np
import eulercs.cli
from eulercs import recover
A = np.eye(3, 4)
A[:, 3] = 1.0
results = recover(A, np.array([[1.0, 0.0, 0.0]]), 0, "bp")
print(results[0].support, "scipy.optimize" in sys.modules)
"""


def test_basis_pursuit_imports_no_lp_solver():
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulercs.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_LP_SOLVER],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.split() == ["[0]", "False"]


def test_recover_omp_is_one_omp_batch(A55):
    Y = np.stack([A55[:, 3] + 2 * A55[:, 50], np.zeros(55), np.arange(55.0)])
    for got, want in zip(recover(A55, Y, 4, "omp"), omp_batch(A55, Y, 4)):
        assert got.support == want.support and got.converged
        assert np.array_equal(got.estimate, want.estimate)


def test_gen_sparse_signal_distinct_support():
    sig = gen_sparse_signal(121, 3, 42)
    support = np.flatnonzero(sig)
    assert sig.shape == (121,)
    assert len(set(support.tolist())) == 3
    assert support.min() >= 0 and support.max() < 121


def test_gen_sparse_signal_full_support():
    sig = gen_sparse_signal(7, 7, 0)
    assert sorted(np.flatnonzero(sig).tolist()) == list(range(7))


def test_gen_sparse_signal_bad_k():
    with pytest.raises(InvalidInput, match=r"^k=11 must be in 1\.\.10$"):
        gen_sparse_signal(10, 11, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_generators_deterministic(seed):
    a = gen_sparse_signal(50, 5, seed)
    b = gen_sparse_signal(50, 5, seed)
    assert np.array_equal(a, b)
    assert np.array_equal(gen_gaussian_matrix(10, 20, seed),
                          gen_gaussian_matrix(10, 20, seed))
    assert np.array_equal(gen_bernoulli_matrix(10, 20, seed),
                          gen_bernoulli_matrix(10, 20, seed))


def test_gaussian_column_norms_concentrate():
    A = gen_gaussian_matrix(55, 121, 1)
    norms = np.linalg.norm(A, axis=0)
    assert abs(norms.mean() - 1.0) < 0.1


def test_bernoulli_column_norms_exact():
    A = gen_bernoulli_matrix(55, 121, 1)
    assert np.allclose(np.linalg.norm(A, axis=0), 1.0)


def test_snr_examples():
    x = np.array([3.0, 4.0])
    assert snr(x, x) == SNR_CAP_DB
    assert snr(x, np.zeros(2)) == pytest.approx(0.0)
    # ||x|| = 10 ||x - x~||
    x = np.array([10.0, 0.0])
    assert snr(x, np.array([10.0, 1.0])) == pytest.approx(10.0)


def test_snr_zero_signal():
    with pytest.raises(EulerCSError) as exc:
        snr(np.zeros(3), np.ones(3))
    assert type(exc.value) is EulerCSError
    assert str(exc.value) == "SNR undefined for the zero signal"


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=10 ** 6))
def test_snr_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8)
    xt = rng.standard_normal(8)
    assert snr(x, xt) == pytest.approx(snr(scale * x, scale * xt), rel=1e-9)
