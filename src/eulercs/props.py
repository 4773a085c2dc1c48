"""Exact coherence verification and bound computation.

The coherence check is exhaustive over all M(M-1)/2 column pairs, so the
1/k bound and the sqrt(M)/m identity become machine-checked facts
rather than quoted theory.  No global Gram matrix is formed:

- A binary matrix (every value 1, rows strictly ascending per column)
  is proved by its row pairs.  Each column emits its C(k, 2) row pairs
  as r1*m + r2; two columns share two rows exactly when a code repeats.
  The codes are laid out pair-major, one contiguous block of M codes
  per position pair, in the narrowest unsigned type that holds m*m - 1,
  and sorted in place.  If none repeats, the max overlap is 1 when some
  row holds two columns and 0 otherwise.  This is the overlap argument
  behind mu = 1/k, and it costs O(M k^2) memory instead of the
  O(M^2 k / n) sparse Gram.
- Every other matrix (ternary, zero values, a binary file whose row
  pairs repeat) goes through `gram_extrema`, which forms A^T A one
  column block at a time under a fixed entry budget.

A matrix with more rows than entries (m > M*k) has its rows in use
renumbered in order first, so neither proof makes an array of length m.
Both report the lexicographically smallest pair (i, j), i < j, that
attains the max overlap.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .construct import SensingMatrix
from .errors import (BoundUndefined, DegenerateColumn, InvalidInput,
                     ProvenanceRequired)


@dataclass(frozen=True)
class CoherenceReport:
    m: int
    M: int
    coherence: float
    argmax_pair: tuple          # lexicographically smallest 0-based (i, j),
                                # i < j, attaining max_overlap
    max_overlap: int            # max |<phi_i, phi_j>| before normalization
    welch: float                # Welch bound, nan when M <= m
    density: float
    column_weight_hist: dict    # weight -> count

    def to_text(self) -> str:
        lines = [
            f"rows={self.m}",
            f"cols={self.M}",
            f"coherence={self.coherence!r}",
            f"argmax_pair={self.argmax_pair[0]},{self.argmax_pair[1]}",
            f"max_overlap={self.max_overlap}",
            f"welch={self.welch!r}",
            f"density={self.density!r}",
            "weights=" + ";".join(f"{w}:{c}" for w, c in sorted(self.column_weight_hist.items())),
        ]
        return "\n".join(lines) + "\n"

    def to_record(self) -> dict:
        return {
            "m": self.m, "M": self.M, "coherence": self.coherence,
            "argmax_pair": list(self.argmax_pair), "max_overlap": self.max_overlap,
            "welch": self.welch, "density": self.density,
            "column_weight_hist": {str(k): v for k, v in sorted(self.column_weight_hist.items())},
        }


# Column blocks of the Gram matrix hold at most this many stored entries
# (bounded above by the row degrees of their supports), so the blocked
# Gram's memory does not grow with M.
GRAM_BLOCK_ENTRIES = 1 << 18


def gram_extrema(A):
    """(max |off-diagonal Gram entry|, argmax pair, diagonal) of A^T A.

    A is any scipy.sparse matrix; scipy.sparse loads here, so only the
    matrices the row-pair proof cannot settle pay for importing it.
    The pair is the lexicographically smallest (i, j), i < j, attaining
    the max; (0, 1) when every off-diagonal entry is 0.  A^T A is formed
    one column block at a time: column j has at most as many nonzeros as
    the summed row degrees of its support, and a block's columns sum to
    at most GRAM_BLOCK_ENTRIES of those (a single column may exceed it).
    """
    import scipy.sparse as sp
    A = sp.csc_matrix(A)
    m, M = A.shape
    diag = np.asarray(A.multiply(A).sum(axis=0), dtype=np.float64).ravel()
    row_degree = np.bincount(A.indices, minlength=m)
    cost = np.concatenate(([0], np.cumsum(row_degree[A.indices])))[A.indptr]
    best, best_code = 0.0, 1          # code i*M + j of the pair (0, 1)
    start = 0
    while start < M:
        stop = int(np.searchsorted(cost, cost[start] + GRAM_BLOCK_ENTRIES,
                                   side="right")) - 1
        stop = min(max(stop, start + 1), M)
        G = (A.T @ A[:, start:stop]).tocoo()
        cols = G.col.astype(np.int64) + start
        upper = G.row < cols
        vals = np.abs(G.data[upper])
        if vals.size:
            peak = float(vals.max())
            if peak >= best:
                at_peak = vals == peak
                code = int((G.row[upper][at_peak].astype(np.int64) * M
                            + cols[upper][at_peak]).min())
                best_code = code if peak > best else min(best_code, code)
                best = peak
        start = stop
    return best, divmod(best_code, M), diag


def _row_pair_extrema(mat: SensingMatrix):
    """(max overlap, argmax pair) of a binary matrix from its row pairs.

    None when the proof does not apply: a value other than 1, rows not
    strictly ascending, or a repeated row pair (overlap >= 2, left to
    the blocked Gram).  The rows must lie in [0, m), as `coherence`
    checks.

    The codes r_a*m + r_b, a < b, are laid out pair-major, one
    contiguous block of M codes per position pair (a, b), in the
    narrowest unsigned type that holds m*m - 1.  Above 2**32 rows a
    uint64 code can wrap; that can only merge two distinct pairs into a
    false repeat, which sends the matrix to the exact Gram, while equal
    pairs always give equal codes.
    """
    rows, m, k = mat.rows, mat.m, mat.k
    if k < 1 or not np.all(mat.vals == 1) or not np.all(np.diff(rows, axis=1) > 0):
        return None
    dtype = np.min_scalar_type(min(m * m - 1, 2 ** 64 - 1))
    by_position = rows.T.astype(dtype)
    codes = np.empty((k * (k - 1) // 2, mat.M), dtype=dtype)
    start = 0
    for a in range(k - 1):
        stop = start + k - 1 - a
        np.add(by_position[a + 1:], by_position[a] * m, out=codes[start:stop])
        start = stop
    codes = codes.ravel()
    codes.sort()
    if np.any(codes[1:] == codes[:-1]):
        return None
    # no pair repeats, so two columns overlap in at most one row; i is
    # the first column holding a row of degree > 1, and j the first
    # other column holding one of i's rows (j > i, or j would itself be
    # a sharing column before i).  Setting i's rows to degree 0 marks
    # them, since every row a column holds has degree >= 1.
    degree = np.bincount(rows.ravel(), minlength=m)
    sharing = (degree[rows] > 1).any(axis=1)
    if not sharing.any():
        return 0.0, (0, 1)
    i = int(np.argmax(sharing))
    degree[rows[i]] = 0
    holds = (degree[rows] == 0).any(axis=1)
    holds[i] = False
    return 1.0, (i, int(np.argmax(holds)))


def coherence(mat: SensingMatrix) -> CoherenceReport:
    """Exhaustive coherence of a constructed matrix over all M(M-1)/2 pairs.

    A matrix with more rows than entries (m > M*k) is proved on its rows
    in use, renumbered in order, so neither proof holds an array of
    length m; the report keeps the matrix's own m.
    """
    if mat.M < 2:
        raise InvalidInput("need at least 2 columns")
    rows = mat.rows
    if rows.size and (rows.min() < 0 or rows.max() >= mat.m):
        raise InvalidInput(f"row index outside [0, {mat.m})")
    proved = mat
    if mat.m > rows.size > 0:
        used, inverse = np.unique(rows, return_inverse=True)
        proved = replace(mat, m=used.size, rows=inverse.reshape(rows.shape))
    found = _row_pair_extrema(proved)
    if found is None:
        max_off, pair, diag = gram_extrema(proved.to_sparse())
        if np.any(diag == 0):
            raise DegenerateColumn("matrix has a zero column")
    else:
        max_off, pair = found
    # uniform column weight: every diagonal entry is k, so mu = max_off / k
    mu = max_off / float(mat.k)
    welch = welch_bound(mat.m, mat.M) if mat.M > mat.m else float("nan")
    weights = {int(mat.k): mat.M}
    return CoherenceReport(m=mat.m, M=mat.M, coherence=mu, argmax_pair=pair,
                           max_overlap=int(round(max_off)), welch=welch,
                           density=mat.density, column_weight_hist=weights)


def dense_coherence(A: np.ndarray) -> float:
    """Coherence of a dense matrix (used for the random baselines)."""
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise DegenerateColumn("matrix has a zero column")
    G = (A / norms).T @ (A / norms)
    np.fill_diagonal(G, 0.0)
    return float(np.max(np.abs(G)))


def welch_bound(m: int, M: int) -> float:
    if M <= m:
        raise BoundUndefined(f"Welch bound needs M > m, got M={M}, m={m}")
    if m < 1:
        raise BoundUndefined(f"m={m} must be >= 1")
    return math.sqrt((M - m) / (m * (M - 1)))


def max_binary_columns(m: int, k: int, r: int) -> int:
    """floor(C(m, r) / C(k, r)): cap on the column count of any binary
    matrix with m rows, k ones per column and pairwise overlap < r."""
    if not m >= k >= r >= 1:
        raise InvalidInput(f"need m >= k >= r >= 1, got ({m},{k},{r})")
    return math.comb(m, r) // math.comb(k, r)


def rip_delta(mu, k_prime: int):
    """Coherence-based restricted-isometry constant (k'-1) * mu."""
    if k_prime < 1:
        raise InvalidInput(f"k'={k_prime} must be >= 1")
    return (k_prime - 1) * mu


def sparsity_guarantee(mu):
    """Largest integer k with k < (1 + 1/mu) / 2; inf when mu == 0."""
    if mu < 0:
        raise InvalidInput(f"mu={mu} must be non-negative")
    if mu == 0:
        return math.inf
    bound = (1 + 1 / mu) / 2
    k = math.floor(bound)
    return k - 1 if k == bound else k


def aspect_constant(mat: SensingMatrix, report: CoherenceReport = None) -> float:
    """c = M / (m*mu)^2 with measured coherence; c in [1,2) for the
    Euler-square constructions."""
    if not mat.provenance:
        raise ProvenanceRequired("aspect constant requires construction provenance")
    rep = report or coherence(mat)
    return mat.M / (mat.m * rep.coherence) ** 2
