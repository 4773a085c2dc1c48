"""Sensing matrix constructions.

Binary matrices from Euler squares (one column per k-ad, k ones per
column), general-row-size dispatch, column extension by zero-padded
blocks, Hadamard matrices (Sylvester / Paley-I), and the ternary
expansion that replaces each 1 in a binary column with a Hadamard row.

Matrices are stored sparsely: per column, the sorted row indices of the
nonzeros and their values (+-1 for ternary; a binary matrix's values are
a read-only broadcast of 1 that stores nothing).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, InvalidInput, ParseError, decode_utf8
from .euler import EulerSquare, euler_square
from .fields import DEFAULT_FIELD_CAP, factorize, is_prime

INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False, frozen=True)
class SensingMatrix:
    """An m x M matrix with k >= 1 nonzeros per column, stored by its supports.

    M and k are the shape of `rows`.  Construction, `dataclasses.replace`
    too, raises InvalidInput unless `rows` is 2-D with k >= 1, `vals` (all
    1 when left out) has its shape, both hold integers, each column's rows
    strictly ascend within 0..m-1 and its values are +-1 (1 when binary),
    so every column has squared norm k.  No field can be reassigned, and a
    binary matrix's `vals` is the read-only broadcast of 1.
    """
    m: int
    alphabet: str        # "binary" or "ternary"
    rows: np.ndarray     # (M, k) 0-based row indices, ascending per column
    vals: np.ndarray = None  # (M, k) entry values at those rows; 1 when binary
    provenance: str = ""
    # the dense operator, scattered on the first to_dense() call
    _dense: np.ndarray = field(default=None, init=False, repr=False)

    M = property(lambda self: self.rows.shape[0], doc="columns")
    k = property(lambda self: self.rows.shape[1], doc="nonzeros per column")

    def __post_init__(self):
        rows = np.asarray(self.rows)
        ones = np.broadcast_to(np.int64(1), rows.shape)
        vals = ones if self.vals is None else np.asarray(self.vals)
        if rows.ndim != 2 or vals.shape != rows.shape:
            raise InvalidInput("support arrays must be 2-D and of one shape")
        if self.alphabet not in ("binary", "ternary") or rows.shape[1] < 1:
            raise InvalidInput(f"need a binary or ternary alphabet and k >= 1, "
                               f"got {self.alphabet!r} and k={rows.shape[1]}")
        try:
            # read-only views: to_dense() caches the operator these supports give
            rows, vals = (a.astype(np.int64, casting="same_kind", copy=False).view()
                          for a in (rows, vals))
        except TypeError:
            raise InvalidInput("support arrays must hold integers") from None
        rows.flags.writeable = vals.flags.writeable = False
        binary = self.alphabet == "binary"
        if rows.size and (rows.min() < 0 or rows.max() >= self.m
                          or (rows[:, 1:] <= rows[:, :-1]).any()):
            raise InvalidInput(f"each column's rows must strictly ascend "
                               f"within 0..{self.m - 1}")
        if ((vals != 1) & (vals != (1 if binary else -1))).any():
            raise InvalidInput(f"every {self.alphabet} value must be "
                               f"{'1' if binary else '+-1'}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "vals", ones if binary else vals)

    def to_dense(self) -> np.ndarray:
        """(m, M) float64 array in Fortran order: column c holds vals[c] at rows[c].

        The array is scattered once per matrix and every call returns
        it, read only, as `rows` and `vals` are; `dataclasses.replace`
        gives a new matrix with an array of its own.
        """
        if self._dense is None:
            A = np.zeros((self.m, self.M), order="F")
            A[self.rows, np.arange(self.M)[:, None]] = self.vals
            A.flags.writeable = False
            object.__setattr__(self, "_dense", A)
        return self._dense

    @property
    def shape(self) -> tuple:
        """(m, M), the shape of `to_dense()`."""
        return self.m, self.M

    def __matmul__(self, x):
        """`to_dense() @ x`, so a measurement is the dense product's bits."""
        return self.to_dense() @ x

    @property
    def density(self) -> float:
        return self.k / self.m


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
    return SensingMatrix(m=n * k, alphabet="binary", rows=rows, provenance=E.provenance)


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
    E.provenance = f"rows m={m} via {E.provenance}"
    return build_binary_matrix(E)


@dataclass(frozen=True)
class ExtensionStage:
    k_t: int            # prime-power peeled at this stage
    n_t: int            # order of this stage's component square
    offsets: tuple      # row offset of each zero-padded copy

    copies = property(lambda self: len(self.offsets), doc="k ** t copies")
    cols = property(lambda self: self.copies * self.n_t ** 2, doc="columns of the copies")


def build_extended(n: int):
    """Column-extended matrix [Phi0 Psi1 ... Psil] for composite n.

    Stage t peels the largest remaining prime-power k_t, builds the
    index (n_t, k) matrix and places k^t zero-padded copies, one per row
    offset; offsets recurse as o + s*n_{t-1} for s = 0..k-1.  Every
    column keeps exactly k ones and pairwise overlap stays <= 1.

    Returns (SensingMatrix, list of its ExtensionStages).
    """
    fac = factorize(n)
    if len(fac.components) < 2:
        raise Infeasible(f"n={n} is a single prime power; nothing to extend")
    k = fac.min_value - 1
    if k < 2:
        raise Infeasible(f"n={n} gives degree k={k} < 2")
    base = build_binary_matrix(euler_square(n, k))
    all_rows = [base.rows]

    stages = []
    remaining = sorted(fac.values)   # peel from the largest end
    offsets = [0]
    n_prev = n
    while len(remaining) > 1:
        k_t = remaining.pop()
        n_t = n_prev // k_t
        phi_t = build_binary_matrix(euler_square(n_t, k))
        offsets = [o + s * n_prev for o in offsets for s in range(k)]
        for o in offsets:
            all_rows.append(phi_t.rows + o)
        stages.append(ExtensionStage(k_t=k_t, n_t=n_t, offsets=tuple(offsets)))
        n_prev = n_t

    mat = SensingMatrix(m=n * k, alphabet="binary", rows=np.concatenate(all_rows, axis=0),
                        provenance=f"extended n={n} k={k} stages={len(stages)}")
    return mat, stages


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
    if h < 1:
        raise InvalidInput(f"order {h} must be >= 1")
    if h & (h - 1) == 0:
        H = np.array([[1]], dtype=np.int64)
        while H.shape[0] < h:
            H = np.block([[H, H], [H, -H]])
        return H
    if h % 4 != 0:
        raise Infeasible(f"order {h} must be 1, 2, or a multiple of 4")
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
    # an order above the cap has a field above it or k > minpp(n) - 1, and
    # p**i >= 2**i, so i alone refuses an order too costly to form
    if i > DEFAULT_FIELD_CAP.bit_length() or p ** i > DEFAULT_FIELD_CAP:
        raise Infeasible(f"order {p}**{i} exceeds cap {DEFAULT_FIELD_CAP}")
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
    return SensingMatrix(m=phi.m, alphabet="ternary", rows=rows, vals=vals,
                         provenance=f"ternary p={p} i={i} j={j} hadamard={h_used}")


# ---------------------------------------------------------------------------
# file format: "ESM v1" text header + one support line per column
#
# One renderer makes the column lines.  Each number's token ("%d " or
# "%d\n", and "%d:" for a ternary row) is gathered from a table of
# null-padded fixed-width bytes, built once per matrix, and a block of
# about _BLOCK_VALUES numbers becomes text with one tobytes().  The
# writer writes its blocks.  The reader, which every `verify` runs,
# parses a body with one numpy call and keeps the numbers only if
# rendering them gives back the body byte for byte: a text that renders
# back exactly is in the writer's form and holds exactly those numbers,
# so the round trip is the whole validation.  Any other file is decoded
# and read line by line from line 3, accepting what `str.split` and
# `int` accept and naming the first bad line.

_BLOCK_VALUES = 1 << 16


def _tokenizer(numbers, suffixes):
    """Function from a block of rows of the 2-D `numbers` to the null-padded
    fixed-width bytes array of their decimal tokens: suffixes[-1] follows
    a row's last number and suffixes[0] every other.

    The token table is built once.  It spans min..max where that is fewer
    values than `numbers` holds, and else only the values in use, so its
    size is bounded by the count of numbers, never by their magnitude.
    """
    lo, hi = int(numbers.min()), int(numbers.max())
    if hi - lo < numbers.size:
        values, index = range(lo, hi + 1), lambda block: block - lo
    else:
        values = np.unique(numbers)
        index = lambda block: np.searchsorted(values, block)
    digits = np.array(" ".join(map(str, values)).encode().split())
    n, w, k = len(suffixes), digits.itemsize, numbers.shape[1]
    # a token is its digits, null padding, then its suffix
    table = np.zeros((digits.size, n, w + 1), dtype=np.uint8)
    table[:, :, :w] = digits.view(np.uint8).reshape(-1, 1, w)
    table[:, :, w] = np.frombuffer(b"".join(suffixes), dtype=np.uint8)
    table = table.view(f"S{w + 1}").ravel()
    suffix = (np.arange(k) == k - 1) * (n - 1)
    return lambda block: table.take(index(block) * n + suffix)


def _column_text(rows, vals, ternary):
    """Bytes blocks of the column lines of the (M, k) 1-based row numbers
    `rows`, each ternary row followed by its value in `vals`; a block
    holds about _BLOCK_VALUES numbers."""
    M, k = rows.shape
    if not M:
        return
    ends = (b" ", b"\n")
    row_tokens = _tokenizer(rows, (b":",) if ternary else ends)
    if ternary:
        val_tokens = _tokenizer(vals, ends)
    per_block = max(1, _BLOCK_VALUES // k)
    for b in range(0, M, per_block):
        tokens = row_tokens(rows[b:b + per_block])
        if ternary:
            tokens = np.stack([tokens, val_tokens(vals[b:b + per_block])], axis=-1)
        yield tokens.tobytes().replace(b"\0", b"")


def save_esm(mat: SensingMatrix, path: str) -> None:
    """Write `mat` as an ESM v1 file, byte for byte the same on every platform."""
    with open(path, "wb") as f:
        f.write(f"ESM v1 rows={mat.m} cols={mat.M} alphabet={mat.alphabet} k={mat.k}\n"
                f"{mat.provenance or 'unknown'}\n".encode())
        f.writelines(_column_text(mat.rows + 1, mat.vals, mat.alphabet == "ternary"))


def _header_counts(line: str) -> tuple:
    """(m, M, k, alphabet) of an ESM v1 header line, or ParseError on line 1."""
    if not line.startswith("ESM v1 "):
        raise ParseError("missing 'ESM v1' header", line=1)
    try:
        fields = dict(tok.split("=") for tok in line.split()[2:])
        m, M, k = int(fields["rows"]), int(fields["cols"]), int(fields["k"])
        alphabet = fields["alphabet"]
    except (KeyError, ValueError):
        raise ParseError("malformed header fields", line=1)
    if alphabet not in ("binary", "ternary"):
        raise ParseError(f"unknown alphabet {alphabet!r}", line=1)
    if k < 1 or m < 1 or M < 0 or max(m, M, k) > INT64_MAX:
        raise ParseError(f"counts rows={m} cols={M} k={k} out of range", line=1)
    return m, M, k, alphabet


def _read_canonical(head: bytes, body: bytes):
    """(m, alphabet, provenance, rows, vals, None) of a file whose column
    lines are those save_esm writes for their numbers, or None.

    `head` is the file's first two lines and `body` the rest.  The body
    is parsed with one numpy call and kept only if it holds M*k numbers
    (2*M*k when ternary) whose rendering is the body, byte for byte.
    """
    try:
        text = head.decode("utf-8")
        lines = text.splitlines()
        provenance = lines[1]
        m, M, k, alphabet = _header_counts(lines[0])
    except (UnicodeDecodeError, IndexError, ParseError):
        return None       # the line reader reports a fault, in line order
    ternary = alphabet == "ternary"
    if text != f"{lines[0]}\n{provenance}\n" or not M:
        return None
    try:
        with warnings.catch_warnings():
            # numpy warns, or raises, on text it cannot read to its end
            warnings.simplefilter("error")
            numbers = np.fromstring(body.replace(b":", b" ") if ternary else body,
                                    dtype=np.int64, sep=" ")
    except (ValueError, Warning):
        return None
    if numbers.size != M * k * (2 if ternary else 1):
        return None
    numbers = numbers.reshape(M, k, -1)
    rows, vals = numbers[:, :, 0], (numbers[:, :, 1] if ternary else None)
    at = 0
    for block in _column_text(rows, vals, ternary):
        if not body.startswith(block, at):
            return None
        at += len(block)
    # a row number of -2**63 is one whose row int64 cannot hold
    if at != len(body) or rows.min() == -INT64_MAX - 1:
        return None
    rows -= 1
    return m, alphabet, provenance, rows, vals, None


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


def _read_lines(lines: list):
    """(m, alphabet, provenance, rows, vals, error) of a file's lines.

    The header and line count are checked first.  Then each column line
    is split on whitespace and its tokens are read with int(); rows and
    vals hold the lines before the first malformed one, which has a
    token count other than k or a token that does not read.  `error` is
    that line's ParseError, or None when every line reads; vals is None
    for a binary file, whose values are all 1.
    """
    m, M, k, alphabet = _header_counts(lines[0] if lines else "")
    if len(lines) < 2 + M:
        raise ParseError(f"expected {M} column lines", line=len(lines))
    if len(lines) > 2 + M:
        raise ParseError(f"unexpected line after the {M} column lines", line=3 + M)
    if M == 0 and (k > m or k > INT64_MAX // 16):
        # no column holds k distinct rows below m, and numpy cannot shape
        # the empty (0, k) support of two int64 per entry; with columns,
        # the first column line is where that shows and is reported
        raise ParseError(f"counts rows={m} cols={M} k={k} out of range", line=1)
    ternary, read, error = alphabet == "ternary", [], None
    try:
        for c, line in enumerate(lines[2:]):
            parts = line.split()
            if len(parts) != k:
                raise ParseError(f"column {c + 1} has {len(parts)} entries, expected {k}",
                                 line=3 + c)
            read.append([_support_token(tok, ternary, 3 + c) for tok in parts])
    except ParseError as exc:
        if not read:
            raise       # nothing read before it, so k need not fit an array shape
        error = exc
    support = np.array(read, dtype=np.int64).reshape(len(read), k, 2)
    return m, alphabet, lines[1], support[:, :, 0], (support[:, :, 1] if ternary else None), error


def load_esm(path: str) -> SensingMatrix:
    """Read an ESM v1 file; a malformed one raises ParseError with its line.

    A file in the writer's form is read as one array: its body is parsed
    with one numpy call and accepted only if rendering the numbers gives
    back the body byte for byte.  Any other file is decoded and read line
    by line.  Where a file has several faults, the one reported is the
    first in line order: a byte that is not UTF-8 anywhere in the file,
    then the header, then per column line, token count, then each token,
    then row range, then ascent; ternary values other than +-1 only after
    every column line is sound.
    """
    with open(path, "rb") as f:
        head = f.readline() + f.readline()
        body = f.read()
    read = _read_canonical(head, body)
    if read is None:
        read = _read_lines(decode_utf8(head + body).splitlines())
    m, alphabet, provenance, rows, vals, error = read
    out_of_range = (rows.min(axis=1) < 0) | (rows.max(axis=1) >= m)
    bad = np.flatnonzero(out_of_range | (rows[:, 1:] <= rows[:, :-1]).any(axis=1))
    if bad.size:
        c = int(bad[0])
        what = "row index out of range" if out_of_range[c] else "rows not strictly ascending"
        raise ParseError(f"{what} in column {c + 1}", line=3 + c)
    if error is not None:
        raise error
    if vals is not None:
        bad = np.flatnonzero((np.abs(vals) != 1).any(axis=1))
        if bad.size:
            raise ParseError(f"ternary value other than +-1 in column {bad[0] + 1}",
                             line=3 + int(bad[0]))
    return SensingMatrix(m=m, alphabet=alphabet, rows=rows, vals=vals,
                         provenance=provenance)
