"""Sensing matrix constructions.

Binary matrices from Euler squares (one column per k-ad, k ones per
column), general-row-size dispatch, column extension by zero-padded
blocks, Hadamard matrices (Sylvester / Paley-I), and the ternary
expansion that replaces each 1 in a binary column with a Hadamard row.

Matrices are stored sparsely: per column, the sorted row indices of the
nonzeros and their values (all +1 for binary, +-1 for ternary).
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, InvalidInput, ParseError, decode_utf8
from .euler import EulerSquare, euler_square
from .fields import factorize, is_prime

INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False)
class SensingMatrix:
    m: int
    M: int
    alphabet: str        # "binary" or "ternary"
    k: int               # nonzeros per column
    rows: np.ndarray     # (M, k) 0-based row indices, ascending per column
    vals: np.ndarray     # (M, k) entry values at those rows
    provenance: str = ""
    # the dense operator, scattered on the first to_dense() call
    _dense: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # read-only views: to_dense() caches the operator these supports give
        self.rows = np.asarray(self.rows, dtype=np.int64).view()
        self.vals = np.asarray(self.vals, dtype=np.int64).view()
        self.rows.flags.writeable = self.vals.flags.writeable = False
        if self.rows.shape != (self.M, self.k) or self.vals.shape != (self.M, self.k):
            raise InvalidInput("support arrays must have shape (M, k)")

    def to_dense(self) -> np.ndarray:
        """(m, M) float64 array in Fortran order: column c holds vals[c] at rows[c].

        Entries at a repeated (row, column) are summed.  The array is
        scattered once per matrix and every call returns it, read only, as
        `rows` and `vals` are; `dataclasses.replace` gives a new matrix
        with an array of its own.
        """
        if self._dense is None:
            A = np.zeros((self.m, self.M), order="F")
            np.add.at(A, (self.rows, np.arange(self.M)[:, None]), self.vals)
            A.flags.writeable = False
            self._dense = A
        return self._dense

    @property
    def density(self) -> float:
        return (self.M * self.k) / (self.m * self.M)


def build_binary_matrix(E: EulerSquare) -> SensingMatrix:
    """nk x n^2 binary matrix: one column per k-ad, in row-major cell order.

    Column c (0-based) comes from cell (c // n, c % n); its ones sit at
    rows l*n + a_l for l = 0..k-1 where a is the cell's k-tuple.
    """
    n, k = E.n, E.k
    if k < 2 or n < 3:
        raise Infeasible(f"need k >= 2 and n >= 3, got ({n},{k})")
    ads = E.cells.reshape(n * n, k)
    rows = np.arange(k)[None, :] * n + ads
    vals = np.ones_like(rows)
    return SensingMatrix(m=n * k, M=n * n, alphabet="binary", k=k,
                         rows=rows, vals=vals, provenance=E.provenance)


def build_for_row_size(m: int) -> SensingMatrix:
    """Binary matrix with exactly m rows, for m neither prime nor p^2.

    m = p^i with i >= 3 uses the index (p^{i-1}, p) square; otherwise the
    smallest prime-power component q gives the index (m/q, q) square.
    Either way the coherence comes out to sqrt(M)/m.
    """
    if m < 1:
        raise InvalidInput(f"row size {m} must be >= 1")
    if m < 6:
        raise Infeasible(f"row size {m} is below the smallest constructible (6)")
    fac = factorize(m)
    if len(fac.components) == 1:
        p, i, _ = fac.components[0]
        if i == 1:
            raise Infeasible(f"row size {m} is prime")
        if i == 2:
            raise Infeasible(f"row size {m} is the square of prime {p}")
        E = euler_square(p ** (i - 1), p)
    else:
        q = fac.min_value
        E = euler_square(m // q, q)
    mat = build_binary_matrix(E)
    mat.provenance = f"rows m={m} via {E.provenance}"
    return mat


@dataclass(frozen=True)
class ExtensionStage:
    k_t: int            # prime-power peeled at this stage
    n_t: int            # order of this stage's component square
    copies: int         # k ** t zero-padded copies
    cols: int           # copies * n_t ** 2
    offsets: tuple      # row offset of each copy


@dataclass(eq=False)
class ExtensionPlan:
    n: int
    k: int
    stages: list = field(default_factory=list)

    @property
    def total_cols(self) -> int:
        return self.n ** 2 + sum(s.cols for s in self.stages)


def build_extended(n: int):
    """Column-extended matrix [Phi0 Psi1 ... Psil] for composite n.

    Stage t peels the largest remaining prime-power k_t, builds the
    index (n_t, k) matrix and places k^t zero-padded copies, one per row
    offset; offsets recurse as o + s*n_{t-1} for s = 0..k-1.  Every
    column keeps exactly k ones and pairwise overlap stays <= 1.

    Returns (SensingMatrix, ExtensionPlan).
    """
    fac = factorize(n)
    if len(fac.components) < 2:
        raise Infeasible(f"n={n} is a single prime power; nothing to extend")
    k = fac.min_value - 1
    if k < 2:
        raise Infeasible(f"n={n} gives degree k={k} < 2")
    base = build_binary_matrix(euler_square(n, k))
    all_rows = [base.rows]
    all_vals = [base.vals]

    plan = ExtensionPlan(n=n, k=k)
    remaining = sorted(fac.values)   # peel from the largest end
    offsets = [0]
    n_prev = n
    t = 0
    while len(remaining) > 1:
        t += 1
        k_t = remaining.pop()
        n_t = n_prev // k_t
        phi_t = build_binary_matrix(euler_square(n_t, k))
        offsets = [o + s * n_prev for o in offsets for s in range(k)]
        for o in offsets:
            all_rows.append(phi_t.rows + o)
            all_vals.append(phi_t.vals)
        plan.stages.append(ExtensionStage(
            k_t=k_t, n_t=n_t, copies=k ** t,
            cols=(k ** t) * n_t * n_t, offsets=tuple(offsets)))
        n_prev = n_t

    rows = np.concatenate(all_rows, axis=0)
    vals = np.concatenate(all_vals, axis=0)
    mat = SensingMatrix(m=n * k, M=rows.shape[0], alphabet="binary", k=k,
                        rows=rows, vals=vals,
                        provenance=f"extended n={n} k={k} stages={len(plan.stages)}")
    return mat, plan


def _paley_core(q: int) -> np.ndarray:
    """Paley-I Hadamard matrix of order q+1 for prime q = 3 mod 4."""
    chi = np.zeros(q, dtype=np.int64)
    residues = {(x * x) % q for x in range(1, q)}
    for v in range(1, q):
        chi[v] = 1 if v in residues else -1
    idx = np.arange(q)
    Q = chi[(idx[:, None] - idx[None, :]) % q]
    S = np.zeros((q + 1, q + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = -1
    S[1:, 1:] = Q
    return S + np.eye(q + 1, dtype=np.int64)


def build_hadamard(h: int) -> np.ndarray:
    """h x h +-1 Hadamard matrix by Sylvester doubling and/or a Paley-I core."""
    if h == 1:
        return np.array([[1]], dtype=np.int64)
    if h == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.int64)
    if h % 4 != 0:
        raise Infeasible(f"order {h} must be 1, 2, or a multiple of 4")
    if h & (h - 1) == 0:
        H = np.array([[1]], dtype=np.int64)
        while H.shape[0] < h:
            H = np.block([[H, H], [H, -H]])
        return H
    # Sylvester doubling of a Paley-I core: h = 2^a * (q + 1)
    a = 0
    rest = h
    while rest % 2 == 0:
        q = rest - 1
        if is_prime(q) and q % 4 == 3:
            H = _paley_core(q)
            for _ in range(a):
                H = np.block([[H, H], [H, -H]])
            return H
        a += 1
        rest //= 2
    raise Infeasible(
        f"order {h} is not reachable by Sylvester/Paley-I composition")


def build_ternary(p: int, i: int = 1, j: int = 1) -> SensingMatrix:
    """Ternary expansion of the index (p^i, p^i - j) binary matrix.

    Each binary column spawns k = p^i - j ternary columns sharing its
    support: the row holding the l-th one receives H[l][t] in the t-th
    spawned column.  If only a (k+1)-order Hadamard exists, its first k
    rows and columns are used.  Result: p^i*k x p^{2i}*k with entries 0, +-1.
    """
    if j not in (1, 2):
        raise InvalidInput(f"j={j} must be 1 or 2")
    if p < 2 or i < 1:
        raise InvalidInput(f"need p >= 2 and i >= 1, got p={p} i={i}")
    n = p ** i
    k = n - j
    if k < 2:
        raise Infeasible(f"degree k={k} must be >= 2")
    # the square first: its field cap bounds k before any Sylvester doubling
    phi = build_binary_matrix(euler_square(n, k))
    try:
        H = build_hadamard(k)
        h_used = k
    except Infeasible:
        H = build_hadamard(k + 1)[:k, :k]
        h_used = k + 1
    # column order: all k spawned columns of phi column 0, then column 1, ...
    rows = np.repeat(phi.rows, k, axis=0)
    vals = np.tile(H.T, (phi.M, 1))
    return SensingMatrix(m=phi.m, M=phi.M * k, alphabet="ternary", k=k,
                         rows=rows, vals=vals,
                         provenance=f"ternary p={p} i={i} j={j} hadamard={h_used}")


# ---------------------------------------------------------------------------
# file format: "ESM v1" text header + one support line per column
#
# The writer formats a block of column lines with one %-format; a block
# holds about _BLOCK_VALUES numbers, which bounds the transient tuple and
# text.  The reader, which every `verify` runs, converts the leading lines
# in the writer's own form with one regular expression match and one numpy
# call.  _NUMBER takes at most 18 digits, which always fit in int64, so
# that conversion cannot overflow.  From the first line in another form on,
# the reader scans line by line, accepting what `str.split` and `int`
# accept and naming the first bad line.

_BLOCK_VALUES = 1 << 16
_NUMBER = r"[0-9]{1,18}"


def _repeated(token, count):
    """Pattern of `count` space-separated `token`s; none match if count < 1."""
    if count < 1:
        return "(?!)"
    return rf"(?:{token} ){{{count - 1}}}{token}"


def _format_lines(values, line):
    """Text chunks of `line` %-formatted with each row of 2-D `values`."""
    per_block = max(1, _BLOCK_VALUES // max(1, values.shape[1]))
    for b in range(0, len(values), per_block):
        block = values[b:b + per_block]
        yield line * len(block) % tuple(block.ravel().tolist())


def _canonical_prefix(lines, line_pattern):
    """Numbers of the leading lines that fully match `line_pattern`.

    The pattern may separate numbers by spaces or ':'.  Returns
    (values, n): the first n lines match and `values` holds their
    numbers in order as one int64 array.
    """
    try:
        match = re.compile(line_pattern).fullmatch
    except OverflowError:
        # a repeat count beyond re's limit: no line held in memory has
        # that many numbers
        return np.empty(0, dtype=np.int64), 0
    n = len(lines)
    if not all(map(match, lines)):
        n = next(i for i, line in enumerate(lines) if not match(line))
    head = " ".join(lines[:n]).replace(":", " ")
    return np.fromstring(head, dtype=np.int64, sep=" "), n


def save_esm(mat: SensingMatrix, path: str) -> None:
    ternary = mat.alphabet == "ternary"
    support = mat.rows + 1
    if ternary:
        support = np.stack([support, mat.vals], axis=-1).reshape(mat.M, -1)
    line = " ".join(["%d:%d" if ternary else "%d"] * mat.k) + "\n"
    with open(path, "w") as f:
        f.write(f"ESM v1 rows={mat.m} cols={mat.M} alphabet={mat.alphabet} k={mat.k}\n")
        f.write(f"{mat.provenance or 'unknown'}\n")
        f.writelines(_format_lines(support, line))


def _support_token(tok: str, ternary: bool, line: int) -> tuple:
    """(row, value) of one 'r' (binary) or 'r:v' (ternary) support token."""
    try:
        r, v = tok.split(":") if ternary else (tok, "1")
        entry = (int(r) - 1, int(v))
    except ValueError:
        entry = None
    if entry is None or not all(-2 ** 63 <= x < 2 ** 63 for x in entry):
        raise ParseError(f"bad support token {tok!r}", line=line)
    return entry


def _read_support(body: list, k: int, ternary: bool):
    """(rows, vals, error) of the column lines before the first malformed one.

    Lines as save_esm writes them convert as one array.  From the first
    line in another form on, each line is split on whitespace and its
    tokens are read with int().  A malformed line has a token count
    other than k or a token that does not read; `error` is its
    ParseError, or None when every line reads.
    """
    token = _NUMBER + (":-?" + _NUMBER if ternary else "")
    values, n = _canonical_prefix(body, _repeated(token, k))
    tail, error = [], None
    try:
        for c in range(n, len(body)):
            parts = body[c].split()
            if len(parts) != k:
                raise ParseError(f"column {c + 1} has {len(parts)} entries, expected {k}",
                                 line=3 + c)
            tail.append([_support_token(tok, ternary, 3 + c) for tok in parts])
    except ParseError as exc:
        if n == 0 and not tail:
            raise       # nothing read before it, so k need not fit an array shape
        error = exc
    head = values.reshape(n, k, 1 + ternary)
    rows = head[:, :, 0] - 1
    vals = head[:, :, 1] if ternary else np.ones_like(rows)
    if tail:
        tail = np.array(tail, dtype=np.int64)
        rows = np.concatenate([rows, tail[:, :, 0]])
        vals = np.concatenate([vals, tail[:, :, 1]])
    return rows, vals, error


def load_esm(path: str) -> SensingMatrix:
    """Read an ESM v1 file; a malformed one raises ParseError with its line.

    Where a file has several faults, the one reported is the first in
    line order: per column line, token count, then each token, then row
    range, then ascent; ternary values other than +-1 only after every
    column line is sound.
    """
    with open(path, "rb") as f:
        lines = decode_utf8(f.read()).splitlines()
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
    counts = f"counts rows={m} cols={M} k={k} out of range"
    if k < 1 or m < 1 or M < 0 or max(m, M, k) > INT64_MAX:
        raise ParseError(counts, line=1)
    if len(lines) < 2 + M:
        raise ParseError(f"expected {M} column lines", line=len(lines))
    if len(lines) > 2 + M:
        raise ParseError(f"unexpected line after the {M} column lines", line=3 + M)
    if M == 0 and (k > m or k > INT64_MAX // 16):
        # no column holds k distinct rows below m, and numpy cannot shape
        # the empty (0, k) support of two int64 per entry; with columns,
        # the first column line is where that shows and is reported
        raise ParseError(counts, line=1)
    provenance = lines[1]
    rows, vals, error = _read_support(lines[2:], k, alphabet == "ternary")
    out_of_range = (rows.min(axis=1) < 0) | (rows.max(axis=1) >= m)
    bad = np.flatnonzero(out_of_range | (np.diff(rows, axis=1) <= 0).any(axis=1))
    if bad.size:
        c = int(bad[0])
        what = "row index out of range" if out_of_range[c] else "rows not strictly ascending"
        raise ParseError(f"{what} in column {c + 1}", line=3 + c)
    if error is not None:
        raise error
    bad = np.flatnonzero((np.abs(vals) != 1).any(axis=1))
    if bad.size:
        raise ParseError(f"ternary value other than +-1 in column {bad[0] + 1}",
                         line=3 + int(bad[0]))
    return SensingMatrix(m=m, M=M, alphabet=alphabet, k=k, rows=rows, vals=vals,
                         provenance=provenance)


def save_csv(mat: SensingMatrix, path: str) -> None:
    """Dense CSV export for interoperability."""
    np.savetxt(path, mat.to_dense(), fmt="%d", delimiter=",")
