"""Haar transforms, patch grids and the compressed-feature CBIR pipeline.

Images are 8-bit grayscale PGM (P2/P5) only: codec-free and bit-exact.
A database member is cut into P x P patches (P a power of two), each
patch is Haar-transformed to a sparse coefficient vector, compressed by
a sensing matrix T (feature = concatenation of T @ coeffs over patches
in row-major order), and queries are ranked by zero-lag normalized
cross-correlation between whole feature vectors.  A saved FeatureDB
names T by its provenance line, and loading checks the hash stored
beside it.

The Haar transforms work on the trailing axes: haar_forward maps
(..., P, P) to (..., P*P) and haar_inverse maps (..., P*P) back to
(..., P, P), so a whole (M', P, P) patch stack is one call, with the
same bits as one call per patch.  They work on a copy with the patch
index innermost, so each level is six whole-stack steps on even/odd
slices of the two patch axes.  extract_features multiplies by the
matrix's one cached dense operator (SensingMatrix.to_dense), so the
images of a database share it.
"""

import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .construct import SensingMatrix
from .errors import EulerCSError, InvalidInput, ParseError, decode_utf8

SQRT2 = math.sqrt(2.0)


def _haar_depth(P: int) -> int:
    """log2 P, the number of Haar levels a P x P patch takes."""
    if P < 1 or P & (P - 1) != 0:
        raise InvalidInput(f"patch edge {P} is not a power of two")
    return P.bit_length() - 1


def _patch_last(a: np.ndarray, P: int) -> np.ndarray:
    """(..., P, P) as a C-ordered (P, P, N) copy: patch index innermost.

    Every Haar step then runs over whole rows of N patches rather than
    over the P/2 strided entries of one patch row at a time.
    """
    return a.reshape(-1, P, P).transpose(1, 2, 0).copy()


def _patch_first(out: np.ndarray, shape: tuple) -> np.ndarray:
    """Inverse of _patch_last, as a C-ordered array of the given shape."""
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(shape)


def haar_forward(patches: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D Haar transform of the trailing P x P axes, to full
    depth (log2 P levels).

    Maps (..., P, P) to (..., P*P): a single patch gives one flattened
    vector, a stack of patches one vector per patch.  Every entry comes
    from the same (a +- b) / sqrt(2) steps whatever the leading shape,
    so a stack transforms bit for bit as its patches would one by one.
    """
    a = np.asarray(patches, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"patch must be square, got {a.shape}")
    P = a.shape[-1]
    depth = _haar_depth(P)
    out = _patch_last(a, P)
    buf = np.empty_like(out)
    s = P
    for _ in range(depth):
        half = s // 2
        blk, tmp = out[:s, :s], buf[:s, :s]
        # columns, then rows: the sums and differences of the even/odd
        # pairs go to tmp, so both halves exist before blk is overwritten
        even, odd = blk[:, 0::2], blk[:, 1::2]
        np.add(even, odd, out=tmp[:, :half])
        np.subtract(even, odd, out=tmp[:, half:])
        np.divide(tmp, SQRT2, out=blk)
        even, odd = blk[0::2], blk[1::2]
        np.add(even, odd, out=tmp[:half])
        np.subtract(even, odd, out=tmp[half:])
        np.divide(tmp, SQRT2, out=blk)
        s = half
    return _patch_first(out, a.shape[:-2] + (P * P,))


def haar_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of haar_forward: maps (..., P*P) to (..., P, P)."""
    v = np.asarray(coeffs, dtype=np.float64)
    if v.ndim < 1:
        raise InvalidInput("coefficients need at least one axis")
    P = int(round(math.sqrt(v.shape[-1])))
    if P * P != v.shape[-1]:
        raise InvalidInput(f"coefficient length {v.shape[-1]} is not a square")
    depth = _haar_depth(P)
    out = _patch_last(v, P)
    buf = np.empty_like(out)
    for s in reversed([P >> t for t in range(depth)]):
        half = s // 2
        blk, tmp = out[:s, :s], buf[:s, :s]
        # rows, then columns: the undone pairs interleave back through tmp
        lo, hi = blk[:half], blk[half:]
        np.add(lo, hi, out=tmp[0::2])
        np.subtract(lo, hi, out=tmp[1::2])
        np.divide(tmp, SQRT2, out=blk)
        lo, hi = blk[:, :half], blk[:, half:]
        np.add(lo, hi, out=tmp[:, 0::2])
        np.subtract(lo, hi, out=tmp[:, 1::2])
        np.divide(tmp, SQRT2, out=blk)
    return _patch_first(out, v.shape[:-1] + (P, P))


@dataclass(frozen=True)
class PatchGrid:
    height: int
    width: int
    patch: int

    @property
    def num_patches(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)


def patchify(image: np.ndarray, P: int):
    """Split into P x P patches, row-major; returns (PatchGrid, (M',P,P) array)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise EulerCSError(f"expected a 2-D image, got shape {img.shape}")
    H, W = img.shape
    if H % P or W % P:
        raise EulerCSError(f"image {H}x{W} not divisible by patch edge {P}")
    grid = PatchGrid(height=H, width=W, patch=P)
    patches = (img.reshape(H // P, P, W // P, P)
                  .transpose(0, 2, 1, 3)
                  .reshape(grid.num_patches, P, P))
    return grid, patches


def unpatchify(grid: PatchGrid, patches: np.ndarray) -> np.ndarray:
    P = grid.patch
    gh, gw = grid.height // P, grid.width // P
    arr = np.asarray(patches, dtype=np.float64).reshape(gh, gw, P, P)
    return arr.transpose(0, 2, 1, 3).reshape(grid.height, grid.width)


def extract_features(image: np.ndarray, T: SensingMatrix, P: int) -> np.ndarray:
    """Concatenated compressed Haar coefficients, patch by patch."""
    if T.M != P * P:
        raise EulerCSError(f"matrix has {T.M} columns, patch needs {P * P}")
    grid, patches = patchify(image, P)
    A = T.to_dense()
    coeffs = haar_forward(patches)   # (M', P*P)
    return (coeffs @ A.T).ravel()


@dataclass(eq=False)
class FeatureDB:
    ids: list
    labels: list
    paths: list
    features: np.ndarray        # (N, L) float64
    patch: int
    matrix_provenance: str = ""

    @property
    def provenance_hash(self) -> str:
        return hashlib.sha256(self.matrix_provenance.encode()).hexdigest()[:16]


# Format 2 stores no Haar depth, since every patch takes its full depth.
# A format-1 file may hold rows of another depth, so its magic is refused
# rather than its rows matched against full-depth queries.
_FDB_MAGIC = b"ESFDB2\n"


def save_feature_db(db: FeatureDB, directory: str) -> None:
    """Persist as manifest.tsv + features.bin (header + raw float64 rows)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "manifest.tsv"), "w") as f:
        for ident, label, path in zip(db.ids, db.labels, db.paths):
            f.write(f"{ident}\t{label}\t{path}\n")
    n, L = db.features.shape
    with open(os.path.join(directory, "features.bin"), "wb") as f:
        f.write(_FDB_MAGIC)
        header = f"count={n} len={L} patch={db.patch} hash={db.provenance_hash}\n"
        f.write(header.encode())
        f.write(db.matrix_provenance.encode() + b"\n")
        np.ascontiguousarray(db.features, dtype=np.float64).tofile(f)


def load_feature_db(directory: str) -> FeatureDB:
    ids, labels, paths = [], [], []
    with open(os.path.join(directory, "manifest.tsv"), "rb") as f:
        manifest = io.StringIO(decode_utf8(f.read()), newline=None)
    for lineno, line in enumerate(manifest, start=1):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ParseError("manifest line needs id<TAB>class<TAB>path",
                             line=lineno)
        ids.append(parts[0]); labels.append(parts[1]); paths.append(parts[2])
    with open(os.path.join(directory, "features.bin"), "rb") as f:
        if f.read(len(_FDB_MAGIC)) != _FDB_MAGIC:
            raise ParseError("bad feature file magic", line=1)
        header = decode_utf8(f.readline(), line=2)
        try:
            fields = dict(tok.split("=") for tok in header.split())
            n, L = int(fields["count"]), int(fields["len"])
            patch = int(fields["patch"])
            stored_hash = fields["hash"]
        except (KeyError, ValueError):
            raise ParseError("malformed feature header fields", line=2)
        if n < 0 or L < 0:
            raise ParseError(f"negative count={n} or len={L}", line=2)
        provenance = decode_utf8(f.readline(), line=3).rstrip("\n")
        # size the blob before allocating, so a header claiming more rows
        # than the file holds fails as a parse error, not a huge allocation
        expected = n * L * 8
        held = min(os.fstat(f.fileno()).st_size - f.tell(), expected)
        if held == expected:
            data = np.empty((n, L), dtype=np.float64)
            held = f.readinto(data)
    if held != expected:
        raise ParseError(f"feature blob has {held} bytes, expected {expected}")
    if n != len(ids):
        raise ParseError(f"manifest lists {len(ids)} entries, blob has {n}")
    db = FeatureDB(ids=ids, labels=labels, paths=paths, features=data,
                   patch=patch, matrix_provenance=provenance)
    if stored_hash != db.provenance_hash:
        raise ParseError(f"hash={stored_hash} is not the provenance line's "
                         f"{db.provenance_hash}", line=2)
    return db


def _norm_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-lag normalized cross-correlation (Pearson); 0 if degenerate."""
    da = a - a.mean()
    db = b - b.mean()
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0 or nb == 0:
        return 0.0
    return float(da @ db / (na * nb))


def _check_topn(topn: int):
    if not isinstance(topn, (int, np.integer)) or topn < 1:
        raise InvalidInput(f"topn={topn!r} is not an integer of at least 1")


def retrieve(query_feature: np.ndarray, db: FeatureDB, topn: int = 10):
    """Ranked [(id, label, similarity)], descending; ties stable by id."""
    _check_topn(topn)
    q = np.asarray(query_feature, dtype=np.float64).ravel()
    if q.size != db.features.shape[1]:
        raise EulerCSError(f"feature length {q.size} != database {db.features.shape[1]}")
    sims = [_norm_corr(q, db.features[i]) for i in range(len(db.ids))]
    order = sorted(range(len(db.ids)), key=lambda i: (-sims[i], db.ids[i]))
    return [(db.ids[i], db.labels[i], sims[i]) for i in order[:topn]]


@dataclass(eq=False)
class RetrievalMetrics:
    per_query: list             # (query_id, Nc, Nf, Nm, precision, recall)
    precision: float            # mean over queries
    recall: float
    confusion: dict = field(default_factory=dict)   # (qclass, rclass) -> count
    classes: list = field(default_factory=list)

    def confusion_matrix(self) -> np.ndarray:
        idx = {c: i for i, c in enumerate(self.classes)}
        mat = np.zeros((len(self.classes), len(self.classes)), dtype=np.int64)
        for (qc, rc), cnt in self.confusion.items():
            mat[idx[qc], idx[rc]] = cnt
        return mat


def score_retrieval(rankings: list, query_labels: list, db_labels: dict,
                    topn: int = 10) -> RetrievalMetrics:
    """Precision/recall/confusion for a batch of queries.

    rankings: per query, the ranked retrieved ids (top-N).
    query_labels: (query_id, class) per query.
    db_labels: id -> class for every retrievable item; N_m for a query
    is the size of its class within the database.
    """
    _check_topn(topn)
    class_sizes = {}
    for label in db_labels.values():
        class_sizes[label] = class_sizes.get(label, 0) + 1
    classes = sorted(set(class_sizes) | {c for _, c in query_labels})
    confusion = {}
    per_query = []
    for (qid, qclass), retrieved in zip(query_labels, rankings):
        nc = nf = 0
        for rid in retrieved[:topn]:
            if rid not in db_labels:
                raise InvalidInput(f"retrieved id {rid!r} has no label")
            rclass = db_labels[rid]
            confusion[(qclass, rclass)] = confusion.get((qclass, rclass), 0) + 1
            if rclass == qclass:
                nc += 1
            else:
                nf += 1
        nm = class_sizes.get(qclass, 0)
        precision = nc / (nc + nf) if nc + nf else 0.0
        recall = nc / nm if nm else 0.0
        per_query.append((qid, nc, nf, nm, precision, recall))
    mean_p = sum(q[4] for q in per_query) / len(per_query) if per_query else 0.0
    mean_r = sum(q[5] for q in per_query) / len(per_query) if per_query else 0.0
    return RetrievalMetrics(per_query=per_query, precision=mean_p, recall=mean_r,
                            confusion=confusion, classes=classes)


# ---------------------------------------------------------------------------
# PGM I/O (P2 ascii / P5 binary, 8-bit)

# a header token after any whitespace and comments; the lookahead makes a
# comment run to its line's end, so no token is read from inside one
_PGM_TOKEN = re.compile(rb"(?:[ \t\r\n]|#[^\n]*(?![^\n]))*([^ \t\r\n#]+)")


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    tokens, i = [], 0
    while len(tokens) < 4 and (match := _PGM_TOKEN.match(data, i)):
        tokens.append(match[1])
        i = match.end()
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise ParseError("not an 8-bit PGM (P2/P5) file", line=1)
    magic = tokens[0]
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ParseError(f"PGM header {b' '.join(tokens[1:])!r} is not three integers",
                         line=1) from None
    if w < 1 or h < 1:
        raise ParseError(f"PGM size {w}x{h} is not positive", line=1)
    if maxval > 255:
        raise ParseError("only 8-bit PGM supported", line=1)
    if magic == b"P5":
        raster = data[i + 1: i + 1 + w * h]
        if len(raster) < w * h:
            raise ParseError(f"P5 raster holds {len(raster)} of {w * h} bytes")
        img = np.frombuffer(raster, dtype=np.uint8, count=w * h)
    else:
        samples = data[i:].split()[: w * h]
        if len(samples) < w * h:
            raise ParseError(f"P2 image lists {len(samples)} of {w * h} samples")
        try:
            img = np.array([int(t) for t in samples])
        except ValueError:
            raise ParseError("P2 sample is not an integer") from None
    if img.min() < 0 or img.max() > maxval:
        raise ParseError(f"{magic.decode()} sample outside 0..{maxval}")
    return img.reshape(h, w).astype(np.float64)


def write_pgm(image: np.ndarray, path: str) -> None:
    img = np.clip(np.round(np.asarray(image)), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())
