import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercs.construct import build_binary_matrix
from eulercs.errors import EulerCSError, InvalidInput, ParseError
from eulercs.euler import euler_square
from eulercs.imaging import (_PGM_TOKEN, FeatureDB, extract_features,
                             haar_forward, haar_inverse, load_feature_db,
                             patchify, read_pgm, retrieve, save_feature_db,
                             score_retrieval, unpatchify, write_pgm)


def test_haar_constant_patch_single_coefficient():
    coeffs = haar_forward(np.full((8, 8), 3.0))
    assert np.count_nonzero(np.abs(coeffs) > 1e-12) == 1
    assert coeffs[0] == pytest.approx(3.0 * 8)  # DC scaled by P


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4, 8, 16, 32]), st.integers(0, 10 ** 6))
def test_haar_round_trip_and_energy(P, seed):
    rng = np.random.default_rng(seed)
    patch = rng.standard_normal((P, P))
    coeffs = haar_forward(patch)
    assert np.abs(haar_inverse(coeffs) - patch).max() <= 1e-10
    assert abs(np.linalg.norm(coeffs) - np.linalg.norm(patch)) <= 1e-10


def test_haar_rejects_non_power_of_two():
    with pytest.raises(InvalidInput, match="^patch edge 6 is not a power of two$"):
        haar_forward(np.zeros((6, 6)))


def _haar_loop(fn, arr, in_shape, out_shape):
    """fn applied one patch or vector at a time, restacked."""
    lead = arr.shape[:arr.ndim - len(in_shape)]
    flat = arr.reshape((-1,) + in_shape)
    return np.stack([fn(x) for x in flat]).reshape(lead + out_shape)


@pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_haar_batched_equals_per_patch_loop(P, lead):
    patches = np.random.default_rng(P).standard_normal(lead + (P, P)) * 100
    coeffs = haar_forward(patches)
    assert coeffs.shape == lead + (P * P,)
    if lead:
        assert np.array_equal(coeffs, _haar_loop(
            haar_forward, patches, (P, P), (P * P,)))
    back = haar_inverse(coeffs)
    assert back.shape == lead + (P, P)
    if lead:
        assert np.array_equal(back, _haar_loop(
            haar_inverse, coeffs, (P * P,), (P, P)))
    assert np.abs(back - patches).max() <= 1e-10


SQRT2 = np.sqrt(2.0)


def _oracle_forward(patches):
    """The moveaxis kernel haar_forward replaced, frozen as a reference."""
    P = patches.shape[-1]
    out = np.array(patches, dtype=np.float64)
    s = P
    for _ in range(P.bit_length() - 1):
        for axis in (-1, -2):
            b = np.moveaxis(out[..., :s, :s], axis, -1)
            even, odd = b[..., 0::2], b[..., 1::2]
            lo = (even + odd) / SQRT2
            hi = (even - odd) / SQRT2
            b[..., :s // 2] = lo
            b[..., s // 2:] = hi
        s //= 2
    return out.reshape(patches.shape[:-2] + (P * P,))


def _oracle_inverse(coeffs):
    """The moveaxis kernel haar_inverse replaced, frozen as a reference."""
    P = int(round(np.sqrt(coeffs.shape[-1])))
    out = np.array(coeffs, dtype=np.float64).reshape(coeffs.shape[:-1] + (P, P))
    for s in reversed([P >> t for t in range(P.bit_length() - 1)]):
        half = s // 2
        for axis in (-2, -1):
            b = np.moveaxis(out[..., :s, :s], axis, -1)
            lo, hi = b[..., :half], b[..., half:]
            even = (lo + hi) / SQRT2
            odd = (lo - hi) / SQRT2
            b[..., 0::2] = even
            b[..., 1::2] = odd
    return out


@pytest.mark.parametrize("P", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("lead", [(), (3,), (64,), (2, 5)])
def test_haar_matches_moveaxis_oracle_bit_for_bit(P, lead):
    patches = np.random.default_rng([P, len(lead)]).standard_normal(lead + (P, P)) * 100
    kept = patches.copy()
    coeffs = haar_forward(patches)
    assert np.array_equal(coeffs, _oracle_forward(patches))
    assert coeffs.flags.c_contiguous
    assert np.array_equal(patches, kept)          # the input is not written
    kept = coeffs.copy()
    back = haar_inverse(coeffs)
    assert np.array_equal(back, _oracle_inverse(coeffs))
    assert back.flags.c_contiguous and back.shape == lead + (P, P)
    assert np.array_equal(coeffs, kept)


@pytest.mark.parametrize("shape", [(4, 8), (3, 4, 8), (16,), ()])
def test_haar_forward_rejects_non_square_input(shape):
    with pytest.raises(InvalidInput) as exc:
        haar_forward(np.zeros(shape))
    assert str(exc.value) == f"patch must be square, got {shape}"


def test_haar_inverse_rejects_non_square_length():
    with pytest.raises(InvalidInput, match="^coefficient length 8 is not a square$"):
        haar_inverse(np.zeros((3, 8)))


def test_patchify_256():
    grid, patches = patchify(np.zeros((256, 256)), 32)
    assert grid.num_patches == 64
    assert patches.shape == (64, 32, 32)


def test_patchify_round_trip():
    img = np.random.default_rng(1).standard_normal((64, 96))
    grid, patches = patchify(img, 16)
    assert np.array_equal(unpatchify(grid, patches), img)


def test_patchify_rejects_indivisible():
    with pytest.raises(EulerCSError) as exc:
        patchify(np.zeros((250, 250)), 32)
    assert type(exc.value) is EulerCSError
    assert str(exc.value) == "image 250x250 not divisible by patch edge 32"


@pytest.fixture(scope="module")
def T():
    return build_binary_matrix(euler_square(8, 4))  # 32 x 64


def test_feature_length(T):
    img = np.random.default_rng(2).standard_normal((32, 32))
    feat = extract_features(img, T, 8)
    assert feat.shape == (16 * 32,)   # M' patches x m measurements


def test_feature_zero_and_determinism(T):
    assert not extract_features(np.zeros((16, 16)), T, 8).any()
    img = np.random.default_rng(3).standard_normal((16, 16))
    assert np.array_equal(extract_features(img, T, 8),
                          extract_features(img, T, 8))


def test_feature_linearity(T):
    rng = np.random.default_rng(4)
    img1 = rng.standard_normal((16, 16))
    img2 = rng.standard_normal((16, 16))
    lhs = extract_features(2.5 * img1 - 1.5 * img2, T, 8)
    rhs = 2.5 * extract_features(img1, T, 8) - 1.5 * extract_features(img2, T, 8)
    assert np.abs(lhs - rhs).max() <= 1e-8


def test_features_share_one_scatter_per_matrix(monkeypatch):
    T = build_binary_matrix(euler_square(8, 4))
    scatters = []
    zeros = np.zeros

    def counting_zeros(shape, *args, **kwargs):
        if shape == (T.m, T.M):
            scatters.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", counting_zeros)
    rng = np.random.default_rng(8)
    for _ in range(5):
        extract_features(rng.standard_normal((16, 16)), T, 8)
    monkeypatch.undo()
    assert len(scatters) == 1


def test_feature_shape_check(T):
    with pytest.raises(EulerCSError) as exc:
        extract_features(np.zeros((16, 16)), T, 16)  # T.M = 64 != 256
    assert type(exc.value) is EulerCSError
    assert str(exc.value) == "matrix has 64 columns, patch needs 256"


def make_db(features, labels=None):
    n = len(features)
    labels = labels or [f"c{i}" for i in range(n)]
    return FeatureDB(ids=[f"img{i}" for i in range(n)], labels=labels,
                     paths=[f"/x/img{i}.pgm" for i in range(n)],
                     features=np.asarray(features, dtype=float),
                     patch=8, matrix_provenance="euler n=8 k=4")


def test_retrieve_identical_member_first():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((4, 12))
    db = make_db(feats)
    ranked = retrieve(feats[2], db, topn=4)
    assert ranked[0][0] == "img2"
    assert ranked[0][2] == pytest.approx(1.0)


def test_retrieve_negated_member_last():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((3, 10))
    db = make_db(feats)
    ranked = retrieve(-feats[1], db, topn=3)
    assert ranked[0][0] != "img1"
    assert ranked[-1][0] == "img1"
    assert ranked[-1][2] == pytest.approx(-1.0)


def test_retrieve_hand_computed_toy():
    # q = [1,2,3,4]: A matches exactly, C correlates 0.8, B is the negation
    db = make_db([[1, 2, 3, 4], [4, 3, 2, 1], [1, 3, 2, 4]])
    ranked = retrieve(np.array([1.0, 2, 3, 4]), db, topn=3)
    assert [r[0] for r in ranked] == ["img0", "img2", "img1"]
    assert ranked[0][2] == pytest.approx(1.0)
    assert ranked[1][2] == pytest.approx(0.8)
    assert ranked[2][2] == pytest.approx(-1.0)


def test_retrieve_zero_variance_flagged_zero():
    db = make_db([[1.0, 1, 1, 1], [0, 1, 2, 3]])
    ranked = retrieve(np.array([0.0, 1, 2, 3]), db, topn=2)
    sims = dict((r[0], r[2]) for r in ranked)
    assert sims["img0"] == 0.0


@pytest.mark.parametrize("topn", [0, -1, 1.5])
def test_retrieve_rejects_bad_topn(topn):
    db = make_db([[1.0, 2, 3, 4], [4, 3, 2, 1], [1, 3, 2, 4]])
    with pytest.raises(InvalidInput):
        retrieve(np.array([1.0, 2, 3, 4]), db, topn=topn)


@pytest.mark.parametrize("topn", [0, -1, 1.5])
def test_score_retrieval_rejects_bad_topn(topn):
    with pytest.raises(InvalidInput):
        score_retrieval([["a", "b"]], [("q0", "X")], {"a": "X", "b": "Y"}, topn=topn)


def test_score_retrieval_formulas():
    db_labels = {f"d{i}": "X" for i in range(20)}
    rankings = [[f"d{i}" for i in range(10)]]
    metrics = score_retrieval(rankings, [("q0", "X")], db_labels, topn=10)
    assert metrics.precision == pytest.approx(1.0)
    assert metrics.recall == pytest.approx(0.5)

    db_labels = {"a": "X", "b": "Y"}
    metrics = score_retrieval([["b"]], [("q0", "X")], db_labels, topn=10)
    assert metrics.precision == 0.0 and metrics.recall == 0.0


def test_score_retrieval_toy_confusion():
    db_labels = {"a": "X", "b": "X", "c": "Y"}
    metrics = score_retrieval([["a", "c"]], [("q0", "X")], db_labels, topn=2)
    qid, nc, nf, nm, p, r = metrics.per_query[0]
    assert (nc, nf, nm) == (1, 1, 2)
    assert p == pytest.approx(0.5) and r == pytest.approx(0.5)
    assert metrics.confusion == {("X", "X"): 1, ("X", "Y"): 1}
    mat = metrics.confusion_matrix()
    assert mat.tolist() == [[1, 1], [0, 0]]


def test_score_retrieval_unlabeled_raises():
    with pytest.raises(InvalidInput, match="^retrieved id 'mystery' has no label$"):
        score_retrieval([["mystery"]], [("q0", "X")], {"a": "X"}, topn=1)


def test_feature_db_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    db = make_db(rng.standard_normal((5, 9)), labels=list("ABABA"))
    save_feature_db(db, str(tmp_path / "db"))
    back = load_feature_db(str(tmp_path / "db"))
    assert back.ids == db.ids and back.labels == db.labels
    assert np.array_equal(back.features, db.features)
    assert back.patch == 8 and back.provenance_hash == db.provenance_hash
    assert back.matrix_provenance == db.matrix_provenance


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:-5],
    lambda data: data.replace(b" patch=", b" patch", 1),
    lambda data: data.replace(b" hash=", b" hsh=", 1),
    # a count far past the file's size fails before any allocation
    lambda data: data.replace(b"count=5 ", b"count=1000000000000 ", 1),
    # the same length, so only the header's hash tells
    lambda data: data.replace(b"euler n=8 k=4\n", b"euler n=8 k=5\n", 1),
], ids=["truncated_blob", "token_without_equals", "missing_key",
        "overstated_count", "provenance_edited"])
def test_feature_db_corruption_fails_closed(tmp_path, corrupt):
    db = make_db(np.random.default_rng(7).standard_normal((5, 9)))
    save_feature_db(db, str(tmp_path / "db"))
    blob = tmp_path / "db" / "features.bin"
    blob.write_bytes(corrupt(blob.read_bytes()))
    with pytest.raises(ParseError):
        load_feature_db(str(tmp_path / "db"))


def test_feature_db_of_format_1_is_refused_at_line_1(tmp_path):
    # format 1 stored a Haar depth; its rows may be of another depth than
    # every query's, so it is refused rather than read
    db = make_db(np.random.default_rng(7).standard_normal((5, 9)))
    save_feature_db(db, str(tmp_path / "db"))
    blob = tmp_path / "db" / "features.bin"
    data = blob.read_bytes()
    assert data.startswith(b"ESFDB2\n")
    blob.write_bytes(b"ESFDB1\n" + data[len(b"ESFDB2\n"):].replace(
        b" patch=8 ", b" patch=8 levels=-1 ", 1))
    with pytest.raises(ParseError, match="^bad feature file magic$") as exc:
        load_feature_db(str(tmp_path / "db"))
    assert exc.value.line == 1


def test_feature_db_blob_is_row_major_float64(tmp_path):
    feats = np.random.default_rng(9).standard_normal((4, 6))[:, ::2]   # strided
    save_feature_db(make_db(feats), str(tmp_path / "db"))
    data = (tmp_path / "db" / "features.bin").read_bytes()
    assert data.endswith(b"euler n=8 k=4\n" + np.ascontiguousarray(feats).tobytes())


def test_pgm_round_trip(tmp_path):
    img = np.random.default_rng(8).integers(0, 256, (24, 17)).astype(float)
    path = str(tmp_path / "x.pgm")
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_ascii(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment\n3 2\n255\n0 1 2\n3 4 5\n")
    img = read_pgm(str(path))
    assert img.shape == (2, 3)
    assert img[1, 2] == 5


def _header_tokens_by_bytes(data):
    """The byte-at-a-time header scan _PGM_TOKEN replaced: up to four
    tokens and the offset just past the last one."""
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i] not in b"\n":
                i += 1
        elif data[i] in b" \t\r\n":
            i += 1
        else:
            j = i
            while j < len(data) and data[j] not in b" \t\r\n#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


# headers made mostly of the bytes the scan treats specially
_HEADER_BYTES = st.one_of(
    st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"#", b"P5", b"7", b"x",
                              b"\x0b", b"\xff"]), max_size=40).map(b"".join),
    st.binary(max_size=40))


@settings(max_examples=500, deadline=None)
@given(_HEADER_BYTES)
def test_pgm_header_pattern_reads_the_tokens_the_byte_scan_read(data):
    tokens, i = [], 0
    while len(tokens) < 4 and (match := _PGM_TOKEN.match(data, i)):
        tokens.append(match[1])
        i = match.end()
    want, end = _header_tokens_by_bytes(data)
    assert tokens == want
    if len(tokens) == 4:        # with fewer, read_pgm refuses the file
        assert i == end


@pytest.mark.parametrize("content", [b"P5\n3 2\n255\n\x00\x01\x02\x03\x04",
                                     b"P2\n3 2\n255\n0 1 2\n3 4\n",
                                     b"P5\n4x 4\n255\n" + bytes(16),
                                     b"P2\n3 1\n255\n0 300 2\n",
                                     b"P2\n-3 2\n255\n0 1 2\n3 4 5\n",
                                     b"P2\n3 1\n255\n0 x 2\n",
                                     b"P5 2 1 100\n\xc8\x05"],
                         ids=["p5_raster", "p2_samples", "non_integer_size",
                              "p2_sample_above_maxval", "negative_width",
                              "p2_non_integer_sample", "p5_byte_above_maxval"])
def test_pgm_truncated_raster(tmp_path, content):
    path = tmp_path / "short.pgm"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        read_pgm(str(path))
