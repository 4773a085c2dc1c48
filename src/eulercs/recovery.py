"""Sparse recovery solvers, signal/baseline generators and the SNR metric.

recover is the one entry point that maps a solver name in SOLVERS to a
solver; the harness and the CLI reach the solvers only through it.
There is one orthogonal matching pursuit, omp_batch, which runs every
trial that shares a matrix at once: each iteration picks one atom per
trial from a single product R @ A, ties within TIE_RTOL going to the
lowest index, and updates an inverse Gram of the selected columns by a
rank-one step instead of re-solving least squares.  The coefficients
that inverse gives are each trial's estimate; a pick whose column lies
within PIVOT_RTOL of the span already held ends the trial instead.
basis_pursuit is the l1 homotopy, one measurement vector at a time:
its joins and leaves break ties by the same TIE_RTOL and lowest-index
rule, and its estimate is the exact fit on the active set it ends with,
exact to rounding once that set is the signal's support.  Every solver
takes the matrix as an array.

All randomness flows through numpy's default_rng (PCG64); a seed may be
a single integer or a sequence of integers (master seed plus substream
indices), so every experiment trial is replayable bit-for-bit.

The SNR here is the ratio-of-norms form 10*log10(||x|| / ||x - x~||),
not the conventional squared-norm ratio; the harness's 100 dB success
threshold, experiments.SUCCESS_DB, is calibrated to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, EulerCSError, InvalidInput

SNR_CAP_DB = 310.0
TIE_RTOL = 1e-9        # OMP scores and homotopy breakpoints this close count as tied
# OMP takes no column whose squared distance from the span it holds is at
# most this fraction of the column's squared norm
PIVOT_RTOL = 1e-10
OMP_TOL = 1e-12        # an OMP trial stops once its residual norm is this small
BP_MAX_STEPS = 5000    # basis pursuit fails after this many homotopy steps
BP_FEAS_TOL = 1e-10    # or when its fit leaves a residual norm above this
SOLVERS = ("omp", "bp")


@dataclass(eq=False)
class RecoveryResult:
    estimate: np.ndarray
    support: list
    residual_norm: float
    iterations: int
    rank_deficient: bool = False
    # False: basis pursuit ran out of steps or missed BP_FEAS_TOL; the
    # estimate is its last iterate, not a solution
    converged: bool = True


def omp_batch(A, Y, K: int) -> list:
    """Orthogonal matching pursuit on every row of Y, one result per row.

    All trials share A, so each iteration scores every active trial
    with one product R @ A: the pick maximizes |<phi_j, r>| / ||phi_j||,
    and the lowest index within relative TIE_RTOL of the row maximum
    wins, so exact ties go to the smallest index whatever the rounding.
    The inverse Gram of the selected columns grows by a rank-one step
    per pick and gives the least-squares coefficients c; the residual
    is then formed explicitly as y - A_S c.  A trial stops after K
    atoms, once ||r|| <= OMP_TOL, when it picks a column it already holds
    (a numerical stall), or when the rank-one pivot, the squared
    distance of the picked column from the span of those held, is not
    above PIVOT_RTOL times its squared norm: that column is not taken
    and the trial is flagged rank_deficient.  A trial's estimate is its
    last c and its residual_norm is the norm of its last residual; no
    least-squares fit is solved afresh.  The Gram A^T A is never
    formed; the state takes (m + K) * K floats per trial.
    """
    A = np.asarray(A, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    m, M = A.shape
    if Y.ndim != 2:
        raise EulerCSError(f"Y has shape {Y.shape}, expected (trials, {m})")
    if Y.shape[1] != m:
        raise EulerCSError(f"y has length {Y.shape[1]}, expected {m}")
    if K < 0:
        raise InvalidInput(f"K={K} is negative")
    if K > m:
        raise InvalidInput(f"K={K} exceeds row count {m}")
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise InvalidInput("matrix has a zero column")

    At = np.ascontiguousarray(A.T)
    sq = np.einsum("mj,mj->j", A, A)
    T = Y.shape[0]
    picks = np.full((T, K), -1)                 # pick order, per trial
    coef = np.zeros((T, K))                     # last coefficients, in pick order
    rnorm = np.linalg.norm(Y, axis=1)           # last residual norm
    rank_deficient = np.zeros(T, dtype=bool)
    # state of the active trials only, row i belongs to trial live[i]
    live = np.flatnonzero(rnorm > OMP_TOL)
    Yl = Rl = Y[live]
    As = np.empty((live.size, K, m))            # selected columns, as rows
    Ginv = np.empty((live.size, K, K))          # inverse Gram of As
    z = np.empty((live.size, K, 1))             # As @ y
    for it in range(K):
        if live.size == 0:
            break
        scores = np.abs(Rl @ A)
        scores /= norms
        j = np.argmax(scores >= scores.max(axis=1, keepdims=True) * (1.0 - TIE_RTOL),
                      axis=1)
        # grow the inverse Gram by the new column a: with b = As a,
        # u = Ginv b and the pivot p = a.a - b.u, the squared distance of
        # a from the span of As, the new inverse is
        # [[Ginv + u u^T / p, -u / p], [-u^T / p, 1 / p]]
        a = At[j]
        b = As[:, :it] @ a[:, :, None]
        u = Ginv[:, :it, :it] @ b
        pivot = sq[j] - (b.transpose(0, 2, 1) @ u)[:, 0, 0]
        fresh = (picks[live, :it] != j[:, None]).all(axis=1)
        take = fresh & (pivot > PIVOT_RTOL * sq[j])
        if not take.all():                      # stalled and dependent picks stop here
            rank_deficient[live[fresh & ~take]] = True
            live, j, a, u, pivot = live[take], j[take], a[take], u[take], pivot[take]
            Yl, As, Ginv, z = Yl[take], As[take], Ginv[take], z[take]
        picks[live, it] = j
        As[:, it] = a
        d = 1.0 / pivot
        du = u * d[:, None, None]
        Ginv[:, :it, :it] += du @ u.transpose(0, 2, 1)
        Ginv[:, :it, it:it + 1] = -du
        Ginv[:, it:it + 1, :it] = -du.transpose(0, 2, 1)
        Ginv[:, it, it] = d
        z[:, it] = (a[:, None, :] @ Yl[:, :, None])[:, 0]
        C = Ginv[:, :it + 1, :it + 1] @ z[:, :it + 1]
        Rl = Yl - (C.transpose(0, 2, 1) @ As[:, :it + 1])[:, 0]
        coef[live, :it + 1] = C[:, :, 0]
        rnorm[live] = r = np.sqrt((Rl * Rl).sum(axis=1))
        more = r > OMP_TOL
        if not more.all():
            live, Yl, Rl = live[more], Yl[more], Rl[more]
            As, Ginv, z = As[more], Ginv[more], z[more]

    held = picks >= 0
    X = np.zeros((T, M))
    X[np.nonzero(held)[0], picks[held]] = coef[held]
    iterations = held.sum(axis=1)
    return [RecoveryResult(estimate=X[t], support=np.sort(picks[t, :n]).tolist(),
                           residual_norm=float(rnorm[t]), iterations=int(n),
                           rank_deficient=bool(rank_deficient[t]))
            for t, n in enumerate(iterations)]


def basis_pursuit(A, y) -> RecoveryResult:
    """l1 minimization subject to A x = y, by the l1 homotopy.

    Follows the minimizer of 1/2 ||y - A x||^2 + lam ||x||_1 from
    lam = ||A^T y||_inf, where x = 0, down to lam = 0 (Osborne, Presnell
    and Turlach 2000; Donoho and Tsaig 2008).  On an active set S with
    signs s the path moves along d = (A_S^T A_S)^-1 s_S while every
    correlation c = A^T (y - A x) changes at the rate a = A^T A_S d.  At
    each breakpoint the first of these that holds is done, ties going
    to the lowest index:
      1. an active column whose coefficient is exactly 0 and that d
         moves against its sign (s d < -TIE_RTOL) leaves;
      2. an inactive column at the boundary (|c| >= lam (1 - TIE_RTOL))
         whose correlation would grow faster than lam shrinks
         (sign(c) a < 1 - TIE_RTOL) joins;
      3. otherwise lam falls to the next join, the next coefficient to
         reach 0, or 0.  A step within TIE_RTOL * lam0 (lam0 the first
         lam) of lam itself goes all the way to lam = 0 and ends the path.
    The estimate is then the exact fit of y on the final active set.
    Each pass is one step.  Deterministic.  Raises ConvergenceFailure
    (carrying the last iterate) when BP_MAX_STEPS steps do not reach
    lam = 0, or when the fit leaves a residual above BP_FEAS_TOL.
    """
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    m, M = A.shape
    if y.shape[0] != m:
        raise EulerCSError(f"y has length {y.shape[0]}, expected {m}")
    x = np.zeros(M)
    sign = np.zeros(M)                          # nonzero exactly on the active set
    lam = lam0 = float(np.abs(A.T @ y).max(initial=0.0))
    done = lam == 0.0
    it = 0
    while not done and it < BP_MAX_STEPS:
        it += 1
        S = np.flatnonzero(sign)
        c = A.T @ (y - A @ x)
        d = np.linalg.solve(A[:, S].T @ A[:, S], sign[S])
        a = A.T @ (A[:, S] @ d)
        leave = S[(x[S] == 0) & (sign[S] * d < -TIE_RTOL)]
        if leave.size:
            sign[leave[0]] = 0.0
            continue
        join = np.flatnonzero((sign == 0) & (np.abs(c) >= lam * (1.0 - TIE_RTOL))
                              & (np.sign(c) * a < 1.0 - TIE_RTOL))
        if join.size:
            sign[join[0]] = np.sign(c[join[0]])
            continue
        # the step at which an inactive correlation meets +lam or -lam,
        # and at which an active coefficient reaches 0
        with np.errstate(divide="ignore", invalid="ignore"):
            meet = np.minimum(np.where(1.0 - a > TIE_RTOL, (lam - c) / (1.0 - a), np.inf),
                              np.where(1.0 + a > TIE_RTOL, (lam + c) / (1.0 + a), np.inf))
            zero = np.where(x[S] * d < 0, -x[S] / d, np.inf)
        meet[S] = np.inf
        gamma = min(meet.min(initial=np.inf), zero.min(initial=np.inf))
        if gamma >= lam - TIE_RTOL * lam0:
            done = True
            break
        x[S] += gamma * d
        lam -= gamma
        x[S[zero == gamma]] = 0.0
    S = np.flatnonzero(sign)
    if done:
        x[S] = np.linalg.solve(A[:, S].T @ A[:, S], A[:, S].T @ y)
    residual = float(np.linalg.norm(A @ x - y))
    result = RecoveryResult(estimate=x, support=[int(j) for j in S],
                            residual_norm=residual, iterations=it,
                            converged=done and residual <= BP_FEAS_TOL)
    if not done:
        raise ConvergenceFailure(
            f"basis pursuit did not reach lam = 0 in {BP_MAX_STEPS} steps", result)
    if not result.converged:
        raise ConvergenceFailure(
            f"basis pursuit ends {residual:.3g} from y, above {BP_FEAS_TOL:g}", result)
    return result


def recover(A, Y, K: int, solver: str) -> list:
    """One RecoveryResult per row of Y from the solver named in SOLVERS.

    "omp" is one omp_batch call of at most K atoms.  "bp" runs
    basis_pursuit row by row (K unused) on one dense A; a row that does
    not converge comes back as its last iterate with converged=False.
    """
    if solver == "omp":
        return omp_batch(A, Y, K)
    if solver != "bp":
        raise InvalidInput(f"unknown solver {solver!r}")
    A = np.asarray(A, dtype=np.float64)
    results = []
    for y in np.asarray(Y, dtype=np.float64):
        try:
            results.append(basis_pursuit(A, y))
        except ConvergenceFailure as exc:
            results.append(exc.result)
    return results


def gen_sparse_signal(M: int, k: int, seed) -> np.ndarray:
    """Length-M vector: k distinct uniform support indices, standard normal values."""
    if not 1 <= k <= M:
        raise InvalidInput(f"k={k} must be in 1..{M}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(M, size=k, replace=False))
    x = np.zeros(M)
    x[support] = rng.standard_normal(k)
    return x


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
        raise EulerCSError("SNR undefined for the zero signal")
    err = np.linalg.norm(x - x_est)
    if err == 0:
        return SNR_CAP_DB
    return min(10.0 * math.log10(nx / err), SNR_CAP_DB)
