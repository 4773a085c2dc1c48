"""Sparse recovery solvers, signal/baseline generators and the SNR metric.

All randomness flows through numpy's default_rng (PCG64); a seed may be
a single integer or a sequence of integers (master seed plus substream
indices), so every experiment trial is replayable bit-for-bit.

The SNR here is the ratio-of-norms form 10*log10(||x|| / ||x - x~||),
not the conventional squared-norm ratio; the 100 dB success threshold
used by the experiment harness is calibrated to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .construct import SensingMatrix
from .errors import (ConvergenceFailure, InvalidInput, InvalidSparsity,
                     ShapeError, UndefinedSNR)

SNR_CAP_DB = 310.0


@dataclass(eq=False)
class SparseSignal:
    M: int
    support: np.ndarray   # 0-based, sorted, distinct
    values: np.ndarray
    seed: object = None

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.M)
        x[self.support] = self.values
        return x


@dataclass(eq=False)
class RecoveryResult:
    estimate: np.ndarray
    support: list
    residual_norm: float
    iterations: int
    snr_db: float = None
    rank_deficient: bool = False


def _as_dense(Phi) -> np.ndarray:
    if isinstance(Phi, SensingMatrix):
        return Phi.to_dense()
    return np.asarray(Phi, dtype=np.float64)


def omp(Phi, y, K: int, tol: float = 1e-12) -> RecoveryResult:
    """Orthogonal matching pursuit.

    Greedy: pick the column maximizing |<phi_j, r>| / ||phi_j|| (ties go
    to the smallest index), refit by least squares on the selected
    support, stop after K atoms or once ||r|| <= tol.
    """
    A = _as_dense(Phi)
    y = np.asarray(y, dtype=np.float64).ravel()
    m, M = A.shape
    if y.shape[0] != m:
        raise ShapeError(f"y has length {y.shape[0]}, expected {m}")
    if K > m:
        raise InvalidInput(f"K={K} exceeds row count {m}")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise InvalidInput("matrix has a zero column")

    support = []
    coef = np.zeros(0)
    r = y.copy()
    rank_deficient = False
    it = 0
    while it < K and np.linalg.norm(r) > tol:
        scores = np.abs(A.T @ r) / norms
        j = int(np.argmax(scores))   # argmax returns the first (lowest) index
        if j in support:
            break   # numerically stalled; the residual cannot improve
        support.append(j)
        sub = A[:, support]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(support):
            rank_deficient = True
        r = y - sub @ coef
        it += 1

    x = np.zeros(M)
    x[support] = coef
    return RecoveryResult(estimate=x, support=sorted(support),
                          residual_norm=float(np.linalg.norm(r)),
                          iterations=it, rank_deficient=rank_deficient)


def basis_pursuit(Phi, y, rho: float = 1.0, max_iter: int = 5000,
                  tol_feas: float = 1e-10, tol_gap: float = 1e-8) -> RecoveryResult:
    """l1 minimization subject to Phi x = y, by alternating splitting.

    Iterates (a) projection onto the affine feasible set via a cached
    pseudoinverse and (b) elementwise soft thresholding with threshold
    1/rho.  Deterministic for fixed parameters.  Raises
    ConvergenceFailure (carrying the best iterate) if the residuals do
    not fall below the tolerances within max_iter sweeps.
    """
    A = _as_dense(Phi)
    y = np.asarray(y, dtype=np.float64).ravel()
    m, M = A.shape
    if y.shape[0] != m:
        raise ShapeError(f"y has length {y.shape[0]}, expected {m}")
    pinv = np.linalg.pinv(A)
    base = pinv @ y              # min-norm feasible point (up to rank of A)

    def project(v):
        return v - pinv @ (A @ v) + base

    z = np.zeros(M)
    u = np.zeros(M)
    x = project(z)
    it = 0
    for it in range(1, max_iter + 1):
        x = project(z - u)
        z_prev = z
        w = x + u
        z = np.sign(w) * np.maximum(np.abs(w) - 1.0 / rho, 0.0)
        u = u + x - z
        feas = np.linalg.norm(A @ x - y)
        primal = np.linalg.norm(x - z)
        dual = rho * np.linalg.norm(z - z_prev)
        scale = max(1.0, np.linalg.norm(x))
        if feas <= tol_feas and primal <= tol_gap * scale and dual <= tol_gap * scale:
            break
    else:
        result = RecoveryResult(
            estimate=x, support=list(np.nonzero(np.abs(z) > 10 * tol_gap)[0]),
            residual_norm=float(np.linalg.norm(A @ x - y)), iterations=it)
        raise ConvergenceFailure(
            f"basis pursuit did not converge in {max_iter} iterations", result)

    return RecoveryResult(estimate=x,
                          support=list(int(i) for i in np.nonzero(np.abs(z) > 10 * tol_gap)[0]),
                          residual_norm=float(np.linalg.norm(A @ x - y)),
                          iterations=it)


def gen_sparse_signal(M: int, k: int, seed) -> SparseSignal:
    """k distinct uniform support indices, standard normal values."""
    if not 1 <= k <= M:
        raise InvalidSparsity(f"k={k} must be in 1..{M}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(M, size=k, replace=False))
    values = rng.standard_normal(k)
    return SparseSignal(M=M, support=support, values=values, seed=seed)


def gen_gaussian_matrix(m: int, M: int, seed) -> np.ndarray:
    """i.i.d. N(0, 1/m) entries."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, M)) / math.sqrt(m)


def gen_bernoulli_matrix(m: int, M: int, seed) -> np.ndarray:
    """i.i.d. +-1/sqrt(m) entries, equiprobable signs."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(m, M)) * 2 - 1
    return signs / math.sqrt(m)


def snr(x, x_est) -> float:
    """10*log10(||x||_2 / ||x - x~||_2) dB, capped at SNR_CAP_DB."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x_est = np.asarray(x_est, dtype=np.float64).ravel()
    nx = np.linalg.norm(x)
    if nx == 0:
        raise UndefinedSNR("SNR undefined for the zero signal")
    err = np.linalg.norm(x - x_est)
    if err == 0:
        return SNR_CAP_DB
    return min(10.0 * math.log10(nx / err), SNR_CAP_DB)
