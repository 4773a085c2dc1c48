"""Exact coherence verification and bound computation.

The coherence check is exhaustive over all M(M-1)/2 column pairs, so the
1/k bound and the sqrt(M)/m identity become machine-checked facts
rather than quoted theory.  Each column has squared norm k, as every
SensingMatrix does, so mu is the max overlap over k.  No M x M Gram
matrix is formed:

- A matrix whose columns share no row pair is proved by its row pairs.
  Where positions hold disjoint row ranges, as in every Euler-square
  build, two columns share two rows only within one position pair, each
  proved by `euler.first_repeat`, the count that validates a square, in
  O(M k) memory; else all C(k, 2) codes r1*m + r2 are sorted, in O(M k^2).
  If none repeats, two columns share at most one row, so the max overlap
  is 1 when some row holds two columns and 0 otherwise (mu = 1/k).
- Every other matrix (a ternary expansion, whose columns repeat their
  binary parent's support, or a file whose row pairs repeat) goes
  through `_gram_scan`, which forms A^T A one row at a time from the
  entries sorted by row, in O(M k + m) memory.

A matrix with more rows than entries (m > M*k) has its rows in use
renumbered in order first, so neither proof makes an array of length m.
Both report the lexicographically smallest pair (i, j), i < j, that
attains the max overlap.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .construct import SensingMatrix
from .errors import InvalidInput
from .euler import first_repeat


@dataclass(frozen=True)
class CoherenceReport:
    m: int
    M: int
    k: int                      # nonzeros, and squared norm, of every column
    argmax_pair: tuple          # lexicographically smallest 0-based (i, j),
                                # i < j, attaining max_overlap
    max_overlap: int            # max |<phi_i, phi_j>| before normalization

    coherence = property(lambda self: self.max_overlap / self.k, doc="mu")
    welch = property(lambda self: welch_bound(self.m, self.M) if self.M > self.m
                     else float("nan"), doc="Welch bound, nan when M <= m")
    density = property(lambda self: self.k / self.m)
    column_weight_hist = property(lambda self: {self.k: self.M}, doc="weight -> count")

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


def _gram_scan(mat: SensingMatrix):
    """(max |off-diagonal Gram entry|, argmax pair) of A^T A, one row at a time.

    The entries are sorted by row once, columns ascending within a row,
    so the entries after column i's own in the rows it holds are those
    of the columns j > i.  Row i of A^T A right of the diagonal is one
    bincount over them, weighted by the value products.  Only a strictly
    larger peak replaces the best, so the pair is the lexicographically
    smallest (i, j), i < j, attaining the max; (0, 1) when every
    off-diagonal entry is 0.  The supports are as SensingMatrix
    guarantees.  Positions and columns are held in the narrowest signed
    type that holds M*k and values in int8, so memory is O(M k + m).
    """
    rows, M, k = mat.rows, mat.M, mat.k
    index = np.min_scalar_type(-rows.size)
    order = np.argsort(rows.ravel(), kind="stable").astype(index)
    val_of = mat.vals.ravel().astype(np.int8)[order]
    after = np.empty_like(order)
    after[order] = np.arange(1, rows.size + 1, dtype=index)   # one past each entry
    after = after.reshape(M, k)
    col_of = np.floor_divide(order, k, out=order)   # the column of each sorted entry
    ends = np.cumsum(np.bincount(rows.ravel(), minlength=mat.m), dtype=index)
    counts = ends[rows] - after                     # later entries per row
    totals = counts.sum(axis=1)
    starts = after - np.cumsum(counts, axis=1, dtype=index) + counts
    ramp = np.arange(int(totals.max()))             # intp: `at` indexes uncast
    best, pair = 0.0, (0, 1)
    for i in np.flatnonzero(totals).tolist():
        at = np.repeat(starts[i], counts[i]) + ramp[:totals[i]]
        g = np.bincount(col_of[at] - (i + 1),
                        weights=np.repeat(mat.vals[i], counts[i]) * val_of[at])
        np.abs(g, out=g)
        j = int(np.argmax(g))
        if g[j] > best:
            best, pair = float(g[j]), (i, i + 1 + j)
    return best, pair


def _shares_a_row_pair(rows, m: int) -> bool:
    """Whether two columns of the supports `rows`, rows below m, share two
    rows: by `first_repeat` per position pair where positions hold disjoint
    ascending row ranges (hi[t] < lo[t+1]) and span**2 <= M, else by sorting
    the codes r_a*m + r_b, a < b, in the narrowest unsigned type that holds
    m*m - 1.  Above 2**32 rows a uint64 code can wrap; that can only merge
    two distinct pairs into a false repeat, left to the Gram scan."""
    M, k = rows.shape
    by_position = rows.T.copy()     # contiguous per position: fast reductions
    lo, hi = by_position.min(axis=1), by_position.max(axis=1)
    span = int((hi - lo).max()) + 1
    if (hi[:-1] < lo[1:]).all() and span * span <= M:
        by_position -= lo[:, None]
        return any(first_repeat(by_position[a], by_position[b], span) is not None
                   for a in range(k) for b in range(a + 1, k))
    dtype = np.min_scalar_type(min(m * m - 1, 2 ** 64 - 1))
    by_position = by_position.astype(dtype)
    codes = np.empty((k * (k - 1) // 2, M), dtype=dtype)
    start = 0
    for a in range(k - 1):
        stop = start + k - 1 - a
        np.add(by_position[a + 1:], by_position[a] * m, out=codes[start:stop])
        start = stop
    codes = codes.ravel()
    codes.sort()
    return bool(np.any(codes[1:] == codes[:-1]))


def _row_pair_extrema(mat: SensingMatrix):
    """(max overlap, argmax pair) of a +-1 matrix from its row pairs, or
    None when a row pair repeats (overlap may reach 2, left to the Gram
    scan).  The supports are as SensingMatrix guarantees."""
    rows, m = mat.rows, mat.m
    if _shares_a_row_pair(rows, m):
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
    proved = mat
    if mat.m > rows.size:
        used, inverse = np.unique(rows, return_inverse=True)
        proved = replace(mat, m=used.size, rows=inverse.reshape(rows.shape))
    max_off, pair = _row_pair_extrema(proved) or _gram_scan(proved)
    return CoherenceReport(m=mat.m, M=mat.M, k=mat.k, argmax_pair=pair,
                           max_overlap=int(round(max_off)))


def welch_bound(m: int, M: int) -> float:
    if M <= m:
        raise InvalidInput(f"Welch bound needs M > m, got M={M}, m={m}")
    if m < 1:
        raise InvalidInput(f"m={m} must be >= 1")
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
    if not mu >= 0:
        raise InvalidInput(f"mu={mu} must be non-negative")
    if mu == 0:
        return math.inf
    bound = (1 + 1 / mu) / 2
    k = math.floor(bound)
    return k - 1 if k == bound else k


def aspect_constant(mat: SensingMatrix) -> float:
    """c = M / (m*mu)^2 with measured coherence; c in [1,2) for the
    Euler-square constructions, inf when mu == 0."""
    if not mat.provenance:
        raise InvalidInput("aspect constant requires construction provenance")
    mu = coherence(mat).coherence
    if mu == 0:
        return math.inf
    return mat.M / (mat.m * mu) ** 2
