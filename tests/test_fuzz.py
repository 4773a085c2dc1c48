"""Byte-mutation fuzzing of the text and binary readers.

Each reader gets valid input with a few bytes set, inserted or deleted,
or with its tail cut off.  Whatever it makes of that, it either returns
or raises an EulerCSError subclass; any other exception fails the test.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercs.cli import main
from eulercs.errors import EulerCSError
from eulercs.imaging import (FeatureDB, load_feature_db, read_pgm, save_feature_db,
                             write_pgm)

# bytes the formats give meaning to, then any byte at all
_BYTES = st.one_of(st.sampled_from(list(b"0123456789 \t\r\n-+:,=#.eP\x00\xff")),
                   st.integers(0, 255))
_P5 = b"P5\n3 2\n255\n" + bytes([0, 17, 255, 128, 9, 200])
_P2 = b"P2\n# two rows\n3 2\n200\n0 17 200\n128 9 100\n"


@st.composite
def _mutated(draw, data, units):
    """`data` after one to four random edits, each drawing new bytes from `units`."""
    out = list(data)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if edit == "insert" or i == len(out):
            out.insert(i, draw(units))
        elif edit == "set":
            out[i] = draw(units)
        elif edit == "delete":
            del out[i]
        else:
            del out[i:]
    return bytes(out)


@pytest.fixture(scope="module")
def feature_db_files(tmp_path_factory):
    """The two files of a saved two-row feature database, by name."""
    directory = tmp_path_factory.mktemp("fdb")
    save_feature_db(FeatureDB(ids=["a_0", "b_0"], labels=["a", "b"],
                              paths=["a_0.pgm", "b_0.pgm"],
                              features=np.array([[1.5, -2.0, 0.25], [0.0, 3.0, -1.0]]),
                              patch=8, matrix_provenance="euler n=8 k=4"),
                    str(directory))
    return {name: (directory / name).read_bytes()
            for name in ("manifest.tsv", "features.bin")}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([_P5, _P2]).flatmap(lambda pgm: _mutated(pgm, _BYTES)))
def test_read_pgm_fails_closed(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data)
    try:
        read_pgm(str(path))
    except EulerCSError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["manifest.tsv", "features.bin"]), st.data())
def test_load_feature_db_fails_closed(tmp_path_factory, feature_db_files, name, data):
    files = dict(feature_db_files)
    files[name] = data.draw(_mutated(files[name], _BYTES))
    directory = tmp_path_factory.getbasetemp() / "fuzz_fdb"
    directory.mkdir(exist_ok=True)
    for file_name, content in files.items():
        (directory / file_name).write_bytes(content)
    try:
        load_feature_db(str(directory))
    except EulerCSError:
        pass


# Comma-list flags of the CLI, each with the fixed flags that make every
# run small: orders of at most 40, one trial per level.  --topn takes one
# integer, so a list of more is a usage error; it queries the two-image
# database of `cli_dir`.  {out} is that directory.
_LIST_FLAGS = {
    "gen_index": (["gen"], "--index", ["--out", "{out}/m.esm"]),
    "gen_ternary": (["gen"], "--ternary", ["--out", "{out}/t.esm"]),
    "sweep_levels": (["bench", "sweep", "--index", "11,5", "--trials", "1"], "--levels",
                     ["--out", "{out}/s"]),
    "phase_rows": (["bench", "phase", "--M", "121", "--trials", "1"], "--rows",
                   ["--out", "{out}/p"]),
    "query_topn": (["cbir", "query", "--db", "{out}/db"], "--topn",
                   ["--image", "{out}/images/a_0.pgm"]),
    "score_topn": (["cbir", "score", "--db", "{out}/db"], "--topn",
                   ["--queries", "{out}/images"]),
}
# values near the edge cases (0, 1, 2, negatives) half of the time
_SMALL = st.one_of(st.integers(-2, 3), st.integers(-40, 40))
_JUNK = st.sampled_from(["", " ", "x", "1.5", "+3", " 4", "1e2", "0x1", "٣"])


@st.composite
def _ternary_ints(draw):
    """p, i, j with |p|**i <= 16 when i >= 1, so k is below 16 and the
    matrix below 1 MB; --ternary 2,20,1 would build a 2^20-order Sylvester
    Hadamard matrix before any size check."""
    i = draw(_SMALL)
    bound = 40 if i < 1 else max(b for b in range(1, 17) if b ** i <= 16)
    p = draw(st.one_of(st.integers(-min(bound, 2), min(bound, 3)),
                       st.integers(-bound, bound)))
    return [p, i, draw(_SMALL)]


@st.composite
def _list_value(draw, flag):
    """A comma list: small integers, sometimes with a junk item."""
    if flag == "gen_ternary" and draw(st.booleans()):
        items = draw(_ternary_ints())
    else:
        # three numbers for --ternary come only from _ternary_ints
        items = draw(st.lists(_SMALL, max_size=4).filter(
            lambda xs: flag != "gen_ternary" or len(xs) != 3))
    items = [str(x) for x in items]
    if draw(st.integers(0, 4)) == 0:
        items.insert(draw(st.integers(0, len(items))), draw(_JUNK))
    return ",".join(items)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """Output directory of the CLI fuzz, holding a two-image CBIR database."""
    out = tmp_path_factory.mktemp("fuzz_cli")
    (out / "images").mkdir()
    rng = np.random.default_rng(3)
    for name in ("a_0", "b_0"):
        write_pgm(rng.integers(0, 256, (8, 8)), str(out / "images" / f"{name}.pgm"))
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["cbir", "index", "--images", str(out / "images"), "--rows", "32",
                     "--patch", "8", "--out", str(out / "db")]) == 0
    return out


@pytest.mark.parametrize("flag", list(_LIST_FLAGS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_list_flags_fail_closed(cli_dir, flag, data):
    head, option, tail = _LIST_FLAGS[flag]
    value = data.draw(_list_value(flag), label=option)
    argv = ([arg.format(out=cli_dir) for arg in head] + [f"{option}={value}"]
            + [arg.format(out=cli_dir) for arg in tail])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
