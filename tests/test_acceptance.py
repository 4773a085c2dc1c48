"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every criterion prints a single summary line (bypassing capture) so the
run log shows the full scorecard even under the default pytest capture.
Time budgets are asserted with ``time.perf_counter`` around the measured
work only, excluding fixture setup that the criterion does not cover.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from eulercs.construct import (build_binary_matrix, build_extended,
                               build_for_row_size, build_ternary)
from eulercs.errors import Infeasible
from eulercs.euler import euler_square, factorize, validate_euler_square
from eulercs.experiments import (MatrixSpec, SweepConfig,
                                 run_patch_reconstruction,
                                 run_phase_transition, run_sweep)
from eulercs.fields import build_field, is_prime
from eulercs.imaging import (FeatureDB, PatchGrid, extract_features,
                             haar_forward, haar_inverse, retrieve,
                             score_retrieval, unpatchify)
from eulercs.props import aspect_constant, coherence


@pytest.fixture()
def announce(capsys):
    @contextmanager
    def _criterion(num, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(f"[acceptance] criterion {num:2d} ({name}): {verdict}")

    return _criterion


SQUARE_3_2 = np.array(
    [[(0, 0), (1, 1), (2, 2)],
     [(1, 2), (2, 0), (0, 1)],
     [(2, 1), (0, 2), (1, 0)]])

MATRIX_6x9 = np.array(
    [[1, 0, 0, 0, 0, 1, 0, 1, 0],
     [0, 1, 0, 1, 0, 0, 0, 0, 1],
     [0, 0, 1, 0, 1, 0, 1, 0, 0],
     [1, 0, 0, 0, 1, 0, 0, 0, 1],
     [0, 1, 0, 0, 0, 1, 1, 0, 0],
     [0, 0, 1, 1, 0, 0, 0, 1, 0]])


def test_criterion_01_reference_examples_bit_exact(announce):
    with announce(1, "reference examples bit-exact, < 1 ms"):
        build_field(3, 1)  # warm the field cache; timing covers construction
        best = math.inf
        for _ in range(10):
            t0 = time.perf_counter()
            square = euler_square(3, 2)
            mat = build_binary_matrix(square)
            best = min(best, time.perf_counter() - t0)
        assert np.array_equal(square.cells, SQUARE_3_2)
        assert np.array_equal(mat.to_dense(), MATRIX_6x9)
        assert best < 1e-3


def test_criterion_02_coherence_values_exact(announce):
    with announce(2, "coherence 0.2 and 0.1 exact, < 5 s"):
        t0 = time.perf_counter()
        mu_a = coherence(build_binary_matrix(euler_square(11, 5))).coherence
        mu_b = coherence(build_binary_matrix(euler_square(23, 10))).coherence
        elapsed = time.perf_counter() - t0
        assert mu_a == 0.2
        assert mu_b == 0.1
        assert elapsed < 5.0


def test_criterion_03_overlap_bound_at_scale(announce):
    with announce(3, "overlap <= 1 for all constructible n <= 50, < 60 s"):
        t0 = time.perf_counter()
        checked = 0
        for n in range(3, 51):
            kmax = factorize(n).min_value - 1
            for k in range(2, kmax + 1):
                mat = build_binary_matrix(euler_square(n, k))
                rep = coherence(mat)
                assert rep.max_overlap <= 1, (n, k)
                assert rep.column_weight_hist == {k: n * n}, (n, k)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 100  # the family is genuinely exercised at scale
        assert elapsed < 60.0


def test_criterion_04_row_size_coverage(announce):
    with announce(4, "every valid row size m <= 200, mu = sqrt(M)/m, < 120 s"):
        t0 = time.perf_counter()
        built = 0
        for m in range(2, 201):
            root = math.isqrt(m)
            prime_square = root * root == m and is_prime(root)
            if m < 6 or is_prime(m) or prime_square:
                with pytest.raises(Infeasible, match=f"^row size {m} is "):
                    build_for_row_size(m)
                continue
            mat = build_for_row_size(m)
            assert mat.m == m
            rep = coherence(mat)
            assert rep.max_overlap == 1, m
            rootM = math.isqrt(mat.M)
            assert rootM * rootM == mat.M, m
            # exact rational identity, no floating point involved
            assert Fraction(1, mat.k) == Fraction(rootM, m), m
            built += 1
        elapsed = time.perf_counter() - t0
        assert built == 147
        assert elapsed < 120.0


def test_criterion_05_column_extension(announce):
    with announce(5, "extended column counts, coherence, aspect, < 120 s"):
        expected_cols = {12: 162, 20: 448, 24: 594, 60: 3924}
        t0 = time.perf_counter()
        for n, want in expected_cols.items():
            mat, stages = build_extended(n)
            # independent count: n^2 plus per-stage block size times copies
            total = n * n + sum(s.n_t * s.n_t * s.copies for s in stages)
            assert mat.M == total == want, n
            rep = coherence(mat)
            assert rep.coherence <= 1 / mat.k, n
            assert 1.0 < aspect_constant(mat) < 2.0, n
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_06_ternary_matrix(announce):
    with announce(6, "ternary 20x100 with coherence exactly 1/4, < 1 s"):
        t0 = time.perf_counter()
        mat = build_ternary(5, 1, 1)
        rep = coherence(mat)
        elapsed = time.perf_counter() - t0
        assert (mat.m, mat.M) == (20, 100)
        assert rep.coherence == 0.25
        assert elapsed < 1.0


def _sweep(spec, levels, seed, trials=200):
    return run_sweep(SweepConfig(matrix=spec, sparsity_levels=tuple(levels),
                                 trials=trials, master_seed=seed))


def test_criterion_07_recovery_guarantee(announce):
    with announce(7, "greedy recovery guarantee + random baseline, < 60 s"):
        t0 = time.perf_counter()
        small = MatrixSpec(family="euler", n=11, k=5)
        rep = _sweep(small, (1, 2), seed=7)
        assert all(row["success_pct"] == 100.0 for row in rep.rows)
        big = MatrixSpec(family="euler", n=23, k=10)
        rep = _sweep(big, range(1, 6), seed=7)
        assert all(row["success_pct"] == 100.0 for row in rep.rows)
        # deterministic comparison: never more than 5 points below the
        # random Gaussian baseline at any level
        levels = tuple(range(1, 28))
        euler_rep = _sweep(small, levels, seed=7)
        gauss_rep = _sweep(MatrixSpec(family="gaussian", m=55, M=121, seed=7),
                           levels, seed=7)
        for e_row, g_row in zip(euler_rep.rows, gauss_rep.rows):
            assert e_row["success_pct"] >= g_row["success_pct"] - 5.0, e_row
        # determinism: an identical rerun is byte-identical
        assert _sweep(small, (1, 2), seed=7).to_json() == \
            _sweep(small, (1, 2), seed=7).to_json()
        # trend: smoothed success is non-increasing in sparsity
        pcts = [row["success_pct"] for row in euler_rep.rows]
        smooth = [sum(pcts[i:i + 3]) / 3 for i in range(len(pcts) - 2)]
        assert all(b <= a + 5.0 for a, b in zip(smooth, smooth[1:]))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_criterion_08_phase_transition_harness(announce):
    with announce(8, "phase transition grid, deterministic, < 10 min"):
        rows = list(range(22, 111, 11))
        t0 = time.perf_counter()
        report = run_phase_transition(121, rows, trials=200, master_seed=7)
        elapsed = time.perf_counter() - t0
        assert [row["m"] for row in report.rows] == rows
        for row in report.rows:
            assert row["delta"] == pytest.approx(row["m"] / 121)
            assert row["k_frac"] == pytest.approx(row["k_star"] / 121)
        k_stars = [row["k_star"] for row in report.rows]
        assert k_stars == sorted(k_stars)  # more rows never hurts
        rerun = run_phase_transition(121, [55], trials=200, master_seed=7)
        assert rerun.rows[0] == report.rows[3]
        assert elapsed < 600.0


def test_criterion_09_patch_reconstruction(announce):
    with announce(9, "sparse patch images: SNR >= 100 dB at factor >= 2"):
        rng = np.random.default_rng(9)
        patch = rng.standard_normal((16, 16))
        coeffs = haar_forward(patch)
        assert np.abs(haar_inverse(coeffs) - patch).max() <= 1e-10
        Phi = build_binary_matrix(euler_square(8, 4))  # 32x64, factor 2
        patches = []
        for _ in range(9):
            c = np.zeros(64)
            c[rng.choice(64, 2, replace=False)] = rng.standard_normal(2) * 10
            patches.append(haar_inverse(c))
        image = unpatchify(PatchGrid(24, 24, 8), np.stack(patches))
        recon, report = run_patch_reconstruction(image, Phi, 8)
        row = report.rows[0]
        assert row["downsampling_factor"] >= 2.0
        assert row["snr_db"] >= 100.0
        assert np.allclose(recon, image, atol=1e-6)


def _synthetic_corpus(classes=5, per_class=10, side=16, seed=10):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for c in range(classes):
        base = rng.integers(0, 256, (side, side)).astype(float)
        for _ in range(per_class):
            images.append(np.clip(base + rng.standard_normal((side, side)) * 5,
                                  0, 255))
            labels.append(f"class{c}")
    return images, labels


def test_criterion_10_retrieval(announce):
    with announce(10, "retrieval: 100% rank-1 self-query + exact toy metrics"):
        T = build_binary_matrix(euler_square(8, 4))
        images, labels = _synthetic_corpus()
        feats = np.stack([extract_features(img, T, 8) for img in images])
        db = FeatureDB(ids=[f"img{i:02d}" for i in range(len(images))],
                       labels=labels,
                       paths=[f"img{i:02d}.pgm" for i in range(len(images))],
                       features=feats, patch=8,
                       matrix_provenance=T.provenance)
        for i, img in enumerate(images):
            ranked = retrieve(extract_features(img, T, 8), db, topn=1)
            assert ranked[0][0] == f"img{i:02d}"
            assert ranked[0][2] == pytest.approx(1.0)
        # toy case with hand-computed precision/recall/confusion
        db_labels = {"a": "X", "b": "X", "c": "Y"}
        metrics = score_retrieval([["a", "c"]], [("q0", "X")], db_labels,
                                  topn=2)
        qid, nc, nf, nm, p, r = metrics.per_query[0]
        assert (nc, nf, nm) == (1, 1, 2)
        assert p == 0.5 and r == 0.5
        assert metrics.precision == 0.5 and metrics.recall == 0.5
        assert metrics.confusion == {("X", "X"): 1, ("X", "Y"): 1}


def _axioms_hold(F):
    q = F.q
    add, mul = F.add_table, F.mul_table
    idx = np.arange(q)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], idx) and np.array_equal(mul[1], idx)
    assert not mul[0].any()
    # associativity and distributivity, fully vectorized over all triples
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    # every element has an additive inverse, every nonzero a multiplicative one
    assert all((add[x] == 0).sum() == 1 for x in range(q))
    assert all((mul[x] == 1).sum() == 1 for x in range(1, q))


def test_criterion_11_validators(announce):
    with announce(11, "field axioms q <= 64 + mutation-detecting validator"):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61):
            r = 1
            while p ** r <= 64:
                _axioms_hold(build_field(p, r))
                r += 1
        squares = [euler_square(n, k) for n, k in
                   [(3, 2), (4, 3), (5, 4), (8, 7), (9, 8), (12, 2), (15, 2)]]
        for sq in squares:
            assert validate_euler_square(sq).ok
        rng = np.random.default_rng(11)
        for trial in range(100):
            sq = squares[rng.integers(len(squares))]
            mutated = sq.cells.copy()
            i, j = rng.integers(sq.n, size=2)
            t = rng.integers(sq.k)
            mutated[i, j, t] = (mutated[i, j, t] + 1 + rng.integers(sq.n - 1)) % sq.n
            broken = type(sq)(cells=mutated, provenance=sq.provenance)
            report = validate_euler_square(broken)
            assert not report.ok, trial
            assert report.location is not None
