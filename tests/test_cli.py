import argparse
import json
import os
import re
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eulercs import cli, errors, euler, experiments, props, recovery
from eulercs.cli import main
from eulercs.construct import load_esm
from eulercs.errors import ParseError
from eulercs.imaging import load_feature_db, read_pgm, write_pgm


def run(argv):
    return main(argv)


def test_gen_index_and_verify(tmp_path):
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--index", "11,5", "--out", out]) == 0
    mat = load_esm(out)
    assert (mat.m, mat.M) == (55, 121)
    assert os.path.exists(out + ".manifest.json")
    assert run(["verify", out]) == 0


def test_gen_prime_rows_fails_with_exit_3(tmp_path, capsys):
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--rows", "7", "--out", out]) == 3
    assert "prime" in capsys.readouterr().err


def test_gen_extend(tmp_path):
    out = str(tmp_path / "e.esm")
    assert run(["gen", "--extend", "12", "--out", out]) == 0
    mat = load_esm(out)
    assert (mat.m, mat.M) == (24, 162)
    assert run(["verify", out]) == 0


def test_gen_ternary(tmp_path):
    out = str(tmp_path / "t.esm")
    assert run(["gen", "--ternary", "5,1,1", "--out", out]) == 0
    assert run(["verify", out]) == 0


@pytest.mark.parametrize("argv", [
    ["gen", "--index", "a,b"],
    ["gen", "--ternary", "5,x,1"],
    ["bench", "sweep", "--index", "a,b"],
    ["bench", "sweep", "--index", "3,2", "--levels", "1,two"],
    ["bench", "phase", "--M", "121", "--rows", "22,x"],
], ids=["gen_index", "gen_ternary", "sweep_index",
        "sweep_levels", "phase_rows"])
def test_int_list_flags_fail_closed(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_gen_requires_one_selector(tmp_path, capsys):
    assert run(["gen", "--index", "3,2", "--rows", "6",
                "--out", str(tmp_path / "x")]) == 2
    assert (capsys.readouterr().err
            == "error: argument --rows: not allowed with argument --index\n")
    assert os.listdir(tmp_path) == []


def test_gen_round_trip_all_selectors(tmp_path):
    cases = [["--index", "3,2"], ["--index", "7,3"], ["--rows", "12"],
             ["--rows", "20"], ["--extend", "12"], ["--ternary", "5,1,1"]]
    for i, flags in enumerate(cases):
        out = str(tmp_path / f"m{i}.esm")
        assert run(["gen", *flags, "--out", out]) == 0
        assert run(["verify", out]) == 0


def test_gen_deterministic_bytes(tmp_path):
    a = str(tmp_path / "a.esm")
    b = str(tmp_path / "b.esm")
    run(["gen", "--index", "11,5", "--out", a])
    run(["gen", "--index", "11,5", "--out", b])
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_verify_reports_coherence(tmp_path, capsys):
    out = str(tmp_path / "m.esm")
    run(["gen", "--index", "11,5", "--out", out])
    capsys.readouterr()
    assert run(["verify", out]) == 0
    stdout = capsys.readouterr().out
    assert "coherence=0.2" in stdout
    assert "welch=0.1" in stdout


@pytest.mark.parametrize("index, line, text, message", [
    # legal support, but not the one the square dictates
    ("3,2", 2, "1 5", "does not match"),
    ("11,5", 1, "euler n=x k=5", "not a well-formed euler line"),
    ("11,5", 1, "euler k=5", "not a well-formed euler line"),
    ("11,5", 1, "euler n=11 k=5 a=b=c", "not a well-formed euler line"),
    ("11,5", 1, "euler n=6 k=2", "cannot be rebuilt"),
    ("11,5", 0, "ESM v1 rows=60 cols=121 alphabet=binary k=5", "does not match"),
], ids=["column_support", "non_integer", "missing_field", "trailing_token",
        "unbuildable", "header_rows"])
def test_verify_detects_corruption(tmp_path, capsys, index, line, text, message):
    out = str(tmp_path / "m.esm")
    run(["gen", "--index", index, "--out", out])
    lines = Path(out).read_text().splitlines()
    lines[line] = text
    Path(out).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_verify_fails_square_validation_in_one_error_line(tmp_path, capsys, monkeypatch):
    # a (5,2) square with two cells of row 0 swapped: the matrix's columns are
    # only permuted, so its overlap stays 1 and verify rebuilds the same
    # matrix, but the square is no longer column-Latin
    square = experiments.euler_square(5, 2)
    cells = square.cells.copy()
    cells[0, [0, 1]] = cells[0, [1, 0]]
    shuffled = type(square)(cells=cells, provenance=square.provenance)
    monkeypatch.setattr(experiments, "euler_square", lambda n, k: shuffled)
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--index", "5,2", "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == props.coherence(load_esm(out)).to_text()
    assert captured.err.startswith("error: euler square validation: column-Latin ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("at, value, error", [
    # coordinate 1 repeats coordinate 0: Latin but not orthogonal, so the
    # overlap check, the one proof of orthogonality, is the check that fails
    (np.s_[:, :, 1], lambda cells: cells[:, :, 0], "max column overlap 2 exceeds 1"),
    # coordinate 1 of cell (0,0) is -1, row 4, still above the cell's row 0
    (np.s_[0, 0, 1], lambda cells: -1, "euler square validation: cell value out of range"),
], ids=["not_orthogonal", "out_of_range"])
def test_verify_fails_planted_square_in_one_error_line(tmp_path, capsys, monkeypatch,
                                                       at, value, error):
    square = experiments.euler_square(5, 2)
    cells = square.cells.copy()
    cells[at] = value(cells)
    planted = type(square)(cells=cells, provenance=square.provenance)
    monkeypatch.setattr(experiments, "euler_square", lambda n, k: planted)
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--index", "5,2", "--out", out]) == 0
    capsys.readouterr()
    assert run(["verify", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == props.coherence(load_esm(out)).to_text()
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("n, k", [(11, 5), (128, 16)])
def test_verify_counts_each_pair_once(tmp_path, monkeypatch, n, k):
    # coherence proves the C(k,2) coordinate pairs, and the square check adds
    # only the (row, r) and (column, r) Latin counts
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--index", f"{n},{k}", "--out", out]) == 0
    calls = []

    def counted(a, b, span, first_repeat=euler.first_repeat):
        calls.append(span)
        return first_repeat(a, b, span)

    monkeypatch.setattr(euler, "first_repeat", counted)
    monkeypatch.setattr(props, "first_repeat", counted)
    assert run(["verify", out]) == 0
    assert len(calls) == k * (k - 1) // 2 + 2 * k


def test_check_rebuild_drops_the_rebuild_before_the_square_check(tmp_path):
    # the rebuild and its square's cells are never held with a copy of the
    # cells as well: the peak stays near the rebuild's own cells and rows
    out = str(tmp_path / "m.esm")
    assert run(["gen", "--index", "128,16", "--out", out]) == 0
    mat = load_esm(out)
    spec = experiments.MatrixSpec.from_provenance(mat.provenance)
    tracemalloc.start()
    try:
        cli._check_rebuild(mat, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * mat.rows.nbytes


def test_verify_reports_unknown_provenance(tmp_path):
    out = str(tmp_path / "m.esm")
    run(["gen", "--index", "3,2", "--out", out])
    lines = Path(out).read_text().splitlines()
    lines[1] = "from-text"
    Path(out).write_text("\n".join(lines) + "\n")
    assert run(["verify", out]) == 0


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "bad.esm"
    bad.write_text("ESM v1 rows=6 cols=9 alphabet=binary k=2\nx\n1 99\n")
    assert run(["verify", str(bad)]) == 1


def test_verify_huge_header_k_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.esm"
    bad.write_text("ESM v1 rows=6 cols=0 alphabet=binary k=99999999999999999999\nx\n")
    assert run(["verify", str(bad)]) == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("provenance, family", [
    ("euler n=" + "1" * 5000 + " k=2", "euler"),
    ("rows m=6 via euler n=3 k=" + "2" * 5000, "rows"),
    ("ternary p=5 i=1 j=" + "1" * 4301 + " hadamard=4", "ternary"),
], ids=["euler_n", "rows_via_k", "ternary_j"])
def test_verify_provenance_number_too_long_for_int_exits_1(tmp_path, capsys, provenance,
                                                            family):
    # int() refuses more than 4300 digits with a ValueError
    out = tmp_path / "m.esm"
    run(["gen", "--index", "3,2", "--out", str(out)])
    lines = out.read_text().splitlines()
    lines[1] = provenance
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: provenance {family} line has a number too long to read\n")


def test_verify_unshapeable_empty_matrix_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.esm"
    bad.write_text("ESM v1 rows=4611686018427387904 cols=0 alphabet=binary "
                   "k=4611686018427387904\nx\n")
    assert run(["verify", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: counts rows=4611686018427387904 cols=0 k=4611686018427387904 "
        "out of range (line 1)\n")


@pytest.mark.parametrize("cols, body", [(0, ""), (1, "1 4\n")],
                         ids=["zero_columns", "one_column"])
def test_verify_of_fewer_than_two_columns_exits_2(tmp_path, capsys, cols, body):
    path = tmp_path / "few.esm"
    path.write_text(f"ESM v1 rows=6 cols={cols} alphabet=binary k=2\nx\n{body}")
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: need at least 2 columns\n")


def _bad_support_esm(tmp_path):
    """m.esm, and bad.esm: its copy whose column 2 (line 4) reads '1 x'."""
    run(["gen", "--index", "3,2", "--out", str(tmp_path / "m.esm")])
    lines = (tmp_path / "m.esm").read_text().splitlines()
    lines[3] = "1 x"
    (tmp_path / "bad.esm").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("argv, code, err", [
    (["gen", "--rows", "0", "--out", "{tmp}/o.esm"], 2,
     "error: row size 0 must be >= 1\n"),
    (["gen", "--rows", "-5", "--out", "{tmp}/o.esm"], 2,
     "error: row size -5 must be >= 1\n"),
    (["gen", "--rows", "5", "--out", "{tmp}/o.esm"], 3,
     "error: row size 5 is below the smallest constructible (6)\n"),
    (["verify", "{tmp}/bad.esm"], 1, "error: bad support token 'x' (line 4)\n"),
    (["recover", "--matrix", "{tmp}/m.esm", "--y", "{tmp}/empty.csv",
      "--out", "{tmp}/x.csv"], 1, "error: {tmp}/empty.csv: no measurements\n"),
], ids=["gen_rows_0", "gen_rows_negative", "gen_rows_5", "verify_bad_token_line",
        "recover_empty_y"])
def test_exit_code_and_full_stderr(tmp_path, capsys, argv, code, err):
    tmp = str(tmp_path)
    _bad_support_esm(tmp_path)
    (tmp_path / "empty.csv").write_text("")
    before = sorted(os.listdir(tmp))
    capsys.readouterr()
    assert run([a.format(tmp=tmp) for a in argv]) == code
    assert capsys.readouterr().err == err.format(tmp=tmp)
    assert sorted(os.listdir(tmp)) == before


def test_bench_sweep(tmp_path):
    out = str(tmp_path / "sweep")
    assert run(["bench", "sweep", "--index", "3,2", "--kmax", "2",
                "--trials", "10", "--seed", "7", "--out", out]) == 0
    rows = json.loads(Path(out + ".json").read_text())["rows"]
    assert [row["k"] for row in rows] == [1, 2]
    csv = Path(out + ".csv").read_text().splitlines()
    assert csv[0] == "k,successes,trials,success_pct"
    assert os.path.exists(out + ".manifest.json")


def test_bench_sweep_identical_reruns(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["bench", "sweep", "--index", "5,2", "--kmax", "2",
            "--trials", "10", "--seed", "3"]
    run([*args, "--out", a])
    run([*args, "--out", b])
    assert Path(a + ".json").read_text() == Path(b + ".json").read_text()
    assert Path(a + ".csv").read_text() == Path(b + ".csv").read_text()


def test_bench_phase(tmp_path):
    out = str(tmp_path / "phase")
    assert run(["bench", "phase", "--M", "121", "--rows", "22,33",
                "--trials", "10", "--seed", "7", "--out", out]) == 0
    rows = json.loads(Path(out + ".json").read_text())["rows"]
    assert [row["m"] for row in rows] == [22, 33]


def test_bench_phase_rejects_fraction_above_one(tmp_path, capsys):
    out = str(tmp_path / "phase")
    assert run(["bench", "phase", "--M", "121", "--rows", "22", "--fraction",
                "1.5", "--trials", "5", "--out", out]) == 2
    assert "fraction" in capsys.readouterr().err
    assert not os.path.exists(out + ".json")


def test_bench_recon(tmp_path):
    from eulercs.imaging import PatchGrid, haar_inverse, unpatchify
    # constant patches are 1-sparse in the transform domain and survive the
    # 8-bit quantization of the image file exactly
    patches = []
    for value in (17.0, 80.0, 200.0, 5.0):
        coeffs = np.zeros(64)
        coeffs[0] = value * 8
        patches.append(haar_inverse(coeffs))
    img = unpatchify(PatchGrid(16, 16, 8), np.stack(patches))
    src = str(tmp_path / "in.pgm")
    write_pgm(img, src)
    out = str(tmp_path / "rec")
    assert run(["bench", "recon", "--image", src, "--rows", "32",
                "--patch", "8", "--out", out]) == 0
    recon = read_pgm(out + ".pgm")
    assert np.array_equal(recon, read_pgm(src))


@pytest.mark.parametrize("argv, code", [
    (["bench", "phase", "--M", "0", "--rows", "22"], 2),
    (["bench", "phase", "--M", "-4", "--rows", "22"], 2),
    (["bench", "phase", "--family", "gaussian", "--M", "-3", "--rows", "22"], 2),
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "32", "--patch", "0"], 2),
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "32", "--patch", "0",
      "--family", "gaussian"], 2),
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "32", "--patch", "-8"], 2),
    (["cbir", "index", "--images", "{tmp}", "--rows", "32", "--patch", "0"], 2),
    (["cbir", "index", "--images", "{tmp}", "--rows", "32", "--patch", "-8"], 2),
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "-3", "--patch", "8",
      "--family", "gaussian"], 2),
    (["bench", "sweep", "--family", "gaussian", "--m", "-2", "--M", "10"], 2),
    (["bench", "sweep", "--family", "gaussian", "--m", "5", "--M", "-1"], 2),
    (["bench", "sweep", "--index", "11,5", "--rows", "60"], 2),
    (["bench", "sweep", "--index", "11,5", "--family", "gaussian", "--m", "55",
      "--M", "121"], 2),
    (["bench", "sweep", "--rows", "60", "--m", "3"], 2),
    (["bench", "sweep", "--family", "gaussian", "--m", "55"], 2),
    (["bench", "phase", "--M", "120", "--rows", "22"], 3),
    (["bench", "phase", "--M", "121", "--rows", "23"], 3),
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "33", "--patch", "8"], 3),
], ids=["phase_M_0", "phase_M_negative", "phase_gaussian_M_negative",
        "recon_patch_0", "recon_gaussian_patch_0", "recon_patch_negative",
        "cbir_index_patch_0", "cbir_index_patch_negative",
        "recon_gaussian_rows_negative", "sweep_gaussian_m_negative",
        "sweep_gaussian_M_negative", "sweep_index_and_rows",
        "sweep_index_and_gaussian", "sweep_m_without_family", "sweep_gaussian_without_M",
        "phase_M_not_square", "phase_rows_not_multiple", "recon_rows_not_multiple"])
def test_matrix_shape_fails_closed(tmp_path, capsys, argv, code):
    tmp = str(tmp_path)
    write_pgm(np.zeros((16, 16)), f"{tmp}/in.pgm")
    assert run([*(a.format(tmp=tmp) for a in argv), "--out", f"{tmp}/o"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp) == ["in.pgm"]


@pytest.mark.parametrize("argv, code, err", [
    (["bench", "recon", "--image", "{tmp}/in24.pgm", "--rows", "24", "--patch", "12"],
     2, "error: patch edge 12 is not a power of two\n"),
    (["bench", "sweep", "--family", "gaussian", "--m", "20", "--M", "10",
      "--levels", "15", "--trials", "2"], 2, "error: sparsity level 15 outside 1..10\n"),
    (["bench", "phase", "--family", "gaussian", "--M", "4", "--rows", "20",
      "--trials", "3"], 0, "report written to {tmp}/o.json / {tmp}/o.csv (<s>)\n"),
    (["bench", "recon", "--image", "{tmp}/in16.pgm", "--rows", "32", "--patch", "8"],
     1, "error: SNR undefined for the zero signal\n"),
    # numpy refuses a negative seed with a raw ValueError
    (["bench", "sweep", "--index", "11,5", "--kmax", "2", "--trials", "3",
      "--seed", "-1"], 2, "error: seed -1 must be >= 0\n"),
    (["bench", "sweep", "--family", "gaussian", "--m", "20", "--M", "40",
      "--kmax", "2", "--trials", "3", "--seed", "-1"], 2,
     "error: seed -1 must be >= 0\n"),
    (["bench", "phase", "--M", "121", "--rows", "22,33", "--trials", "3",
      "--seed", "-2"], 2, "error: seed -2 must be >= 0\n"),
    (["bench", "phase", "--family", "gaussian", "--M", "121", "--rows", "22,33",
      "--trials", "3", "--seed", "-2"], 2, "error: seed -2 must be >= 0\n"),
    (["bench", "recon", "--image", "{tmp}/in16.pgm", "--rows", "32", "--patch", "8",
      "--family", "gaussian", "--seed", "-1"], 2, "error: seed -1 must be >= 0\n"),
    (["bench", "recon", "--image", "{tmp}/in16.pgm", "--rows", "32", "--patch", "8",
      "--family", "bernoulli", "--seed", "-1"], 2, "error: seed -1 must be >= 0\n"),
    (["bench", "sweep", "--index", "11,5", "--trials", "0"], 2,
     "error: trials must be >= 1\n"),
], ids=["recon_patch_not_power_of_two",
        "sweep_level_above_M", "phase_rows_above_M", "recon_zero_image",
        "sweep_euler_negative_seed", "sweep_gaussian_negative_seed",
        "phase_euler_negative_seed", "phase_gaussian_negative_seed",
        "recon_gaussian_negative_seed", "recon_bernoulli_negative_seed",
        "sweep_trials_0"])
def test_bench_limits_exit_code_and_stderr(tmp_path, capsys, monkeypatch, argv,
                                           code, err):
    tmp = str(tmp_path)
    write_pgm(np.zeros((16, 16)), f"{tmp}/in16.pgm")
    write_pgm(np.zeros((24, 24)), f"{tmp}/in24.pgm")
    if code == 2:
        monkeypatch.setattr(recovery, "recover", lambda *a: pytest.fail("solver ran"))
    assert run([*(a.format(tmp=tmp) for a in argv), "--out", f"{tmp}/o"]) == code
    assert (re.sub(r"\(\d+\.\d\ds\)", "(<s>)", capsys.readouterr().err)
            == err.format(tmp=tmp))
    if code:
        assert sorted(os.listdir(tmp)) == ["in16.pgm", "in24.pgm"]


@pytest.mark.parametrize("exc, code", [
    (errors.InvalidInput("level refused in a worker"), 2),
    (MemoryError("Unable to allocate 9.0 GiB"), 3),
], ids=["InvalidInput", "MemoryError"])
def test_bench_sweep_worker_error_keeps_its_exit_code(tmp_path, capsys, monkeypatch,
                                                      exc, code):
    parent = os.getpid()
    outcomes = experiments._trial_outcomes

    def fail_in_worker(*args):
        if os.getpid() != parent:
            raise exc
        return outcomes(*args)

    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_trial_outcomes", fail_in_worker)
    assert run(["bench", "sweep", "--index", "11,5", "--kmax", "3", "--trials", "2",
                "--out", str(tmp_path / "s")]) == code
    assert capsys.readouterr().err == f"error: {exc}\n"
    assert os.listdir(tmp_path) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # every worker was reaped


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_bench_sweep_kmax_below_one_exits_2(tmp_path, capsys, kmax):
    assert run(["bench", "sweep", "--index", "3,2", "--kmax", kmax,
                "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: need at least one sparsity level\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kmax", ["3", "10"])
def test_bench_sweep_kmax_with_levels_exits_2(tmp_path, capsys, kmax):
    # a sweep takes its levels from one flag, so its manifest records no ignored one
    assert run(["bench", "sweep", "--index", "3,2", "--kmax", kmax, "--levels", "1,2",
                "--out", str(tmp_path / "s")]) == 2
    assert (capsys.readouterr().err
            == "error: argument --levels: not allowed with argument --kmax\n")
    assert os.listdir(tmp_path) == []


# every patch takes its full Haar depth and gen writes only ESM, so a
# depth or format flag is a usage error that writes nothing
@pytest.mark.parametrize("argv, flag", [
    (["bench", "recon", "--image", "{tmp}/in.pgm", "--rows", "32", "--patch", "8",
      "--out", "{tmp}/o"], ["--levels", "2"]),
    (["cbir", "index", "--images", "{tmp}", "--rows", "32", "--patch", "8",
      "--out", "{tmp}/db"], ["--levels", "2"]),
    (["gen", "--index", "3,2", "--out", "{tmp}/m.csv"], ["--format", "csv"]),
], ids=["bench_recon_levels", "cbir_index_levels", "gen_format"])
def test_removed_flags_exit_2(tmp_path, capsys, argv, flag):
    tmp = str(tmp_path)
    write_pgm(np.zeros((16, 16)), f"{tmp}/in.pgm")
    assert run([*(a.format(tmp=tmp) for a in argv), *flag]) == 2
    assert (capsys.readouterr().err
            == f"error: unrecognized arguments: {' '.join(flag)}\n")
    assert os.listdir(tmp) == ["in.pgm"]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_phase_trials_below_one_exits_2(tmp_path, capsys, trials):
    out = str(tmp_path / "phase")
    assert run(["bench", "phase", "--M", "121", "--rows", "22", "--trials",
                trials, "--out", out]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"
    assert not os.path.exists(out + ".json")


# One case per construction that can be refused; each id keeps the name
# the case had when every refusal had a class of its own.
@pytest.mark.parametrize("message", [
    "q=131072 exceeds cap 65536",
    "order 6 must be 1, 2, or a multiple of 4",
    "index (12,3) not constructible: k exceeds minpp(12)-1 = 2",
    "need k >= 2 and n >= 3, got (11,1)",
    "order n=2 must be >= 3",
    "n=11 is a single prime power; nothing to extend",
    "row size 7 is prime",
], ids=["FieldTooLarge", "HadamardUnavailable", "IndexNotConstructible",
        "IndexTooSmall", "InvalidOrder", "NothingToExtend",
        "UnsupportedRowSize"])
def test_infeasible_errors_exit_3(tmp_path, capsys, monkeypatch, message):
    def infeasible(*args, **kwargs):
        raise errors.Infeasible(message)

    monkeypatch.setattr(experiments, "run_phase_transition", infeasible)
    assert run(["bench", "phase", "--M", "121", "--rows", "22",
                "--out", str(tmp_path / "phase")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_recover(tmp_path):
    mat = str(tmp_path / "m.esm")
    run(["gen", "--index", "11,5", "--out", mat])
    A = load_esm(mat).to_dense().astype(float)
    x = np.zeros(121)
    x[[4, 77]] = [1.5, -2.0]
    yfile = str(tmp_path / "y.csv")
    np.savetxt(yfile, (A @ x)[None, :], delimiter=",")
    out = str(tmp_path / "xhat.csv")
    assert run(["recover", "--matrix", mat, "--y", yfile, "--k", "2",
                "--out", out]) == 0
    xhat = np.loadtxt(out, delimiter=",")
    assert np.allclose(xhat, x, atol=1e-8)


@pytest.mark.parametrize("solver", recovery.SOLVERS)
@pytest.mark.parametrize("y_text, k, code", [
    ("1,abc\n", "2", 1),
    (None, "-3", 2),
    (None, "99", 2),
], ids=["non_numeric_y", "negative_k", "k_above_rows"])
def test_recover_fails_closed(tmp_path, capsys, y_text, k, code, solver):
    mat = str(tmp_path / "m.esm")
    run(["gen", "--index", "11,5", "--out", mat])
    yfile = tmp_path / "y.csv"
    yfile.write_text(y_text or ",".join(["1"] * 55) + "\n")
    out = tmp_path / "xhat.csv"
    capsys.readouterr()
    assert run(["recover", "--matrix", mat, "--y", str(yfile), "--solver", solver,
                "--k", k, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("solver", recovery.SOLVERS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_recover_rejects_non_finite_y_before_solving(tmp_path, capsys, monkeypatch,
                                                     solver, value):
    mat = str(tmp_path / "m.esm")
    run(["gen", "--index", "11,5", "--out", mat])
    yfile = tmp_path / "y.csv"
    yfile.write_text(",".join(["1"] * 54 + [value]) + "\n")
    monkeypatch.setattr(recovery, "recover", lambda *a: pytest.fail("solver ran"))
    out = tmp_path / "xhat.csv"
    capsys.readouterr()
    assert run(["recover", "--matrix", mat, "--y", str(yfile), "--solver", solver,
                "--k", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {yfile}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("feasible", [False, True], ids=["infeasible", "feasible"])
def test_recover_bp_fails_closed(tmp_path, capsys, feasible):
    mat = str(tmp_path / "m.esm")
    run(["gen", "--index", "11,5", "--out", mat])
    A = load_esm(mat).to_dense().astype(float)
    # the layer blocks' row sums of 1 + arange(55) differ: no exact solution
    y = A[:, 4] * 1.5 - A[:, 77] * 2.0 if feasible else 1.0 + np.arange(55)
    yfile = str(tmp_path / "y.csv")
    np.savetxt(yfile, y[None, :], delimiter=",")
    out = tmp_path / "xhat.csv"
    capsys.readouterr()
    code = run(["recover", "--matrix", mat, "--y", yfile, "--solver", "bp",
                "--k", "2", "--out", str(out)])
    err = capsys.readouterr().err
    if feasible:
        assert code == 0 and out.exists()
        assert err.startswith("support=[4, 77] ")
    else:
        assert code == 1 and not out.exists()
        assert err.startswith("error: bp did not converge: residual=")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, path", [
    (["verify", "{tmp}/nothere.esm"], "nothere.esm"),
    (["recover", "--matrix", "{tmp}/m.esm", "--y", "{tmp}/nothere.csv",
      "--k", "1", "--out", "{tmp}/x.csv"], "nothere.csv"),
    (["cbir", "score", "--db", "{tmp}/nothere", "--queries", "{tmp}"], "nothere"),
    (["cbir", "index", "--images", "{tmp}/nothere", "--rows", "32",
      "--patch", "8", "--out", "{tmp}/db"], "nothere"),
    (["bench", "recon", "--image", "{tmp}/nothere.pgm", "--rows", "32",
      "--patch", "8", "--out", "{tmp}/r"], "nothere.pgm"),
    (["verify", "{tmp}"], "{tmp}"),
], ids=["verify", "recover_y", "cbir_score_db", "cbir_index_images",
        "bench_recon_image", "verify_directory"])
def test_missing_path_fails_closed(tmp_path, capsys, argv, path):
    tmp = str(tmp_path)
    run(["gen", "--index", "3,2", "--out", f"{tmp}/m.esm"])
    capsys.readouterr()
    assert run([a.format(tmp=tmp) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(tmp=tmp) in err


@pytest.fixture()
def corpus(tmp_path):
    rng = np.random.default_rng(11)
    imgdir = tmp_path / "imgs"
    qdir = tmp_path / "queries"
    imgdir.mkdir(); qdir.mkdir()
    for c in range(3):
        base = rng.integers(0, 256, (16, 16)).astype(float)
        for i in range(4):
            noisy = np.clip(base + rng.standard_normal((16, 16)) * 8, 0, 255)
            write_pgm(noisy, str(imgdir / f"c{c}_{i}.pgm"))
        write_pgm(np.clip(base + rng.standard_normal((16, 16)) * 8, 0, 255),
                  str(qdir / f"c{c}_q.pgm"))
    return imgdir, qdir


def test_cbir_pipeline(tmp_path, corpus, capsys):
    imgdir, qdir = corpus
    db = str(tmp_path / "db")
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", db]) == 0
    capsys.readouterr()
    assert run(["cbir", "query", "--db", db,
                "--image", str(imgdir / "c1_2.pgm"), "--topn", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[1] == "c1_2"   # self first
    # six hits per query: the four of its own class, then two of one other
    assert run(["cbir", "score", "--db", db, "--queries", str(qdir),
                "--topn", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "precision=0.6666666666666666",
        "recall=1.0",
        "classes=c0,c1,c2",
        "confusion[c0]=4,2,0",
        "confusion[c1]=0,4,2",
        "confusion[c2]=0,2,4",
    ]


@pytest.mark.parametrize("topn", ["0", "-1"])
def test_cbir_topn_below_one_exits_2(tmp_path, corpus, capsys, topn):
    imgdir, qdir = corpus
    db = str(tmp_path / "db")
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", db]) == 0
    capsys.readouterr()
    assert run(["cbir", "query", "--db", db, "--image", str(imgdir / "c1_2.pgm"),
                "--topn", topn]) == 2
    assert run(["cbir", "score", "--db", db, "--queries", str(qdir),
                "--topn", topn]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"error: topn={topn} is not an integer of at least 1") == 2


@pytest.mark.parametrize("name, old, line", [
    ("matrix.esm", b"euler n=", 2),
    ("features.bin", b"count=", 2),
    ("features.bin", b"euler n=", 3),
    ("manifest.tsv", b"c0_1", 2),
], ids=["esm_provenance", "feature_header", "feature_provenance", "manifest"])
def test_non_utf8_byte_fails_closed(tmp_path, corpus, name, old, line):
    imgdir, _ = corpus
    db = tmp_path / "db"
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", str(db)]) == 0
    path = db / name
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, b"\xff" + old[1:], 1))
    with pytest.raises(ParseError) as exc:
        load_esm(str(path)) if name.endswith(".esm") else load_feature_db(str(db))
    assert exc.value.line == line
    argv = (["verify", str(path)] if name.endswith(".esm") else
            ["cbir", "query", "--db", str(db), "--image", str(imgdir / "c0_0.pgm")])
    assert run(argv) == 1


_NO_FIT = "does not fit the header"


@pytest.mark.parametrize("gen, edits, message", [
    (["--index", "3,2"], {1: "euler n=4099 k=2"}, _NO_FIT),
    (["--index", "3,2"], {1: "euler n=3 k=4099"}, _NO_FIT),
    (["--index", "3,2"], {1: "rows m=8198 via euler n=4099 k=2"}, _NO_FIT),
    (["--index", "3,2"], {1: "rows m=99999999999999999999 via euler n=3 k=2"}, _NO_FIT),
    (["--index", "3,2"], {1: "extended n=4100 k=3 stages=2"}, _NO_FIT),
    (["--ternary", "5,1,1"], {1: "ternary p=4099 i=1 j=1 hadamard=4100"}, _NO_FIT),
    (["--ternary", "5,1,1"], {1: "ternary p=2 i=1000000000 j=1 hadamard=4"}, _NO_FIT),
    # the provenance fits a header that lies about the columns: the file
    # is too small for the header, so nothing is built before it is read
    (["--index", "3,2"], {0: "ESM v1 rows=32768 cols=1048576 alphabet=binary k=32",
                          1: "euler n=1024 k=32"},
     "expected 1048576 column lines (line 11)"),
], ids=["euler_order", "euler_degree", "rows_square", "rows_count", "extended",
        "ternary_prime", "ternary_power", "header_cols"])
def test_verify_rejects_hostile_provenance_before_build(tmp_path, capsys, monkeypatch,
                                                        gen, edits, message):
    out = tmp_path / "m.esm"
    assert run(["gen", *gen, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    for line, text in edits.items():
        lines[line] = text
    out.write_text("\n".join(lines) + "\n")

    def no_build(spec):
        raise AssertionError(f"verify built {spec}")

    monkeypatch.setattr("eulercs.experiments.make_matrix", no_build)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert message in capsys.readouterr().err


def _verify_outcome(capsys, path):
    """(exit code, stdout, stderr) of `eulercs verify path`."""
    capsys.readouterr()
    return run(["verify", str(path)]), *capsys.readouterr()


@pytest.mark.parametrize("gen", [
    ["--index", "11,5"], ["--rows", "60"], ["--extend", "12"], ["--ternary", "5,1,1"],
], ids=["euler", "rows", "extended", "ternary"])
def test_verify_of_a_written_file_reads_only_its_header(tmp_path, capsys, monkeypatch, gen):
    # the file is byte for byte its rebuild's, so the rebuild is the matrix
    # verify reports on: the file is never parsed
    out = tmp_path / "m.esm"
    assert run(["gen", *gen, "--out", str(out)]) == 0
    expected = props.coherence(load_esm(str(out))).to_text()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_canonical_rebuild", lambda path: None)
        assert _verify_outcome(capsys, out) == (0, expected, "verification passed\n")

    def no_load(path):
        raise AssertionError(f"verify parsed {path}")

    monkeypatch.setattr("eulercs.construct.load_esm", no_load)
    assert _verify_outcome(capsys, out) == (0, expected, "verification passed\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_verify_reads_a_pipe_once(tmp_path, capsys):
    # only load_esm reads a pipe: lines read before it would be gone
    out = tmp_path / "m.esm"
    assert run(["gen", "--index", "3,2", "--out", str(out)]) == 0
    expected = props.coherence(load_esm(str(out))).to_text()
    r, w = os.pipe()
    try:
        os.write(w, out.read_bytes())
        os.close(w)
        assert _verify_outcome(capsys, f"/proc/self/fd/{r}") == (
            0, expected, "verification passed\n")
    finally:
        os.close(r)


def _edit_line(line, text):
    def edit(data):
        lines = data.split(b"\n")
        lines[line] = text
        return b"\n".join(lines)
    return edit


@pytest.mark.parametrize("edit", [
    lambda data: data.replace(b"\n", b"\r\n"),
    _edit_line(3, b"2\t5"),
    _edit_line(2, b"1 5"),
    lambda data: data[:-2],
    lambda data: data + b"1 4\n",
    _edit_line(0, b"ESM v1 rows=6 cols=18 alphabet=binary k=2"),
    _edit_line(0, b"ESM v1 rows=6 cols=9 alphabet=binary k=3"),
    _edit_line(1, b"unknown"),
    lambda data: data.replace(b"2 6", b"2 \xff"),
], ids=["crlf", "tab_line", "tampered_support", "truncated_last_line", "extra_line",
        "header_cols_doubled", "header_k", "unknown_provenance", "non_utf8"])
def test_verify_of_any_other_file_is_the_reader_path(tmp_path, capsys, monkeypatch, edit):
    # a file that is not its rebuild's bytes gets exactly the outcome of
    # load_esm and the array compare: exit code, report and error line
    out = tmp_path / "m.esm"
    assert run(["gen", "--index", "3,2", "--out", str(out)]) == 0
    data = out.read_bytes()
    out.write_bytes(edit(data))
    assert out.read_bytes() != data
    outcome = _verify_outcome(capsys, out)
    monkeypatch.setattr(cli, "_canonical_rebuild", lambda path: None)
    assert _verify_outcome(capsys, out) == outcome


def test_cbir_without_images_exits_2(tmp_path, corpus, capsys):
    imgdir, _ = corpus
    empty, db = tmp_path / "empty", tmp_path / "db"
    empty.mkdir()
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", str(db)]) == 0
    capsys.readouterr()
    assert run(["cbir", "score", "--db", str(db), "--queries", str(empty)]) == 2
    assert capsys.readouterr() == ("", f"error: no .pgm query images found in {empty}\n")
    assert run(["cbir", "index", "--images", str(empty), "--rows", "32",
                "--patch", "8", "--out", str(tmp_path / "db2")]) == 2
    assert capsys.readouterr() == ("", f"error: no .pgm images found in {empty}\n")
    assert not (tmp_path / "db2").exists()


def test_cbir_index_mixed_image_sizes(tmp_path, capsys):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    rng = np.random.default_rng(3)
    write_pgm(rng.integers(0, 256, (16, 16)).astype(float), str(imgdir / "a_0.pgm"))
    write_pgm(rng.integers(0, 256, (16, 24)).astype(float), str(imgdir / "b_0.pgm"))
    capsys.readouterr()
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", str(tmp_path / "db")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b_0.pgm" in err


def test_gen_field_above_cap_exits_3(tmp_path, capsys):
    assert run(["gen", "--index", "65537,2", "--out", str(tmp_path / "m.esm")]) == 3
    assert capsys.readouterr().err == "error: q=65537 exceeds cap 65536\n"


def test_gen_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def no_memory(square):
        raise MemoryError("Unable to allocate 73.0 GiB")

    monkeypatch.setattr("eulercs.experiments.build_binary_matrix", no_memory)
    out = tmp_path / "m.esm"
    assert run(["gen", "--index", "7,2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate 73.0 GiB\n"
    assert not out.exists()


def test_cbir_matrix_must_match_feature_db(tmp_path, corpus, capsys):
    imgdir, _ = corpus
    db = tmp_path / "db"
    assert run(["cbir", "index", "--images", str(imgdir), "--rows", "32",
                "--patch", "8", "--out", str(db)]) == 0
    esm = db / "matrix.esm"
    lines = esm.read_text().splitlines()
    lines[1] = "euler n=8 k=5"
    esm.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["cbir", "query", "--db", str(db),
                "--image", str(imgdir / "c0_0.pgm")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "euler n=8 k=4" in captured.err


@pytest.mark.parametrize("argv", [
    ["--index", "1000000000000000003,2"],
    ["--rows", "1000000000000000003"],
    ["--ternary", "40,40,1"],
    ["--ternary", "2,20,1"],
    ["--ternary", "2,300000,1"],
    ["--ternary", f"{10 ** 300},15,1"],
], ids=["index", "rows", "ternary", "ternary_power_of_two", "ternary_long_exponent",
        "ternary_long_base"])
def test_gen_huge_request_exits_3_at_once(tmp_path, capsys, argv):
    # each needs a field above the cap: trial division finds a prime factor
    # above it by stopping at the cap instead of dividing on up to sqrt(n),
    # and the ternary build refuses an order above the cap before forming it
    t0 = time.perf_counter()
    assert run(["gen", *argv, "--out", str(tmp_path / "m.esm")]) == 3
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# argv, and what the full table's parser makes of it: a namespace ("ns"),
# a usage error ("error") or a printed help or version and its exit ("exit")
PARSE_CORPUS = [
    (["gen", "--index", "3,2", "--out", "m.esm"], "ns"),
    (["gen", "--rows", "12", "--out", "m.esm"], "ns"),
    (["gen", "--extend", "12", "--out", "m.esm"], "ns"),
    (["gen", "--ternary", "5,1,1", "--out", "m.esm"], "ns"),
    (["verify", "m.esm"], "ns"),
    (["bench", "sweep", "--index", "11,5", "--kmax", "3", "--trials", "5", "--out", "s"], "ns"),
    (["bench", "sweep", "--family", "gaussian", "--m", "20", "--M", "40",
      "--levels", "1,2", "--solver", "bp", "--seed", "3", "--out", "s"], "ns"),
    (["bench", "phase", "--M", "121", "--rows", "22,33", "--fraction", "0.5",
      "--family", "gaussian", "--out", "p"], "ns"),
    (["bench", "recon", "--image", "i.pgm", "--rows", "32", "--patch", "8",
      "--family", "bernoulli", "--out", "r"], "ns"),
    (["recover", "--matrix", "m.esm", "--y", "y.csv", "--k", "3", "--solver", "bp",
      "--out", "x.csv"], "ns"),
    (["cbir", "index", "--images", "d", "--rows", "32", "--patch", "8", "--out", "db"], "ns"),
    (["cbir", "query", "--db", "db", "--image", "q.pgm", "--topn", "3"], "ns"),
    (["cbir", "score", "--db", "db", "--queries", "q"], "ns"),
    # a required option or positional missing
    (["gen", "--index", "3,2"], "error"),
    (["gen", "--out", "m.esm"], "error"),
    (["verify"], "error"),
    (["bench", "phase", "--rows", "22", "--out", "p"], "error"),
    (["cbir", "index", "--images", "d", "--out", "db"], "error"),
    # both of a mutually exclusive pair
    (["gen", "--index", "3,2", "--rows", "6", "--out", "m.esm"], "error"),
    (["bench", "sweep", "--index", "3,2", "--kmax", "3", "--levels", "1", "--out", "s"], "error"),
    # a bad choice
    (["bench", "sweep", "--family", "cauchy", "--out", "s"], "error"),
    (["bench", "phase", "--M", "9", "--rows", "6", "--family", "ternary", "--out", "p"], "error"),
    (["recover", "--matrix", "m", "--y", "y", "--solver", "lasso", "--out", "x"], "error"),
    # a value that is not an integer
    (["gen", "--rows", "six", "--out", "m.esm"], "error"),
    (["cbir", "query", "--db", "db", "--image", "q.pgm", "--topn", "many"], "error"),
    # an unrecognized argument
    (["gen", "--index", "3,2", "--format", "csv", "--out", "m.csv"], "error"),
    (["verify", "a.esm", "b.esm"], "error"),
    (["gen", "--version"], "error"),
    # a missing or unknown subcommand
    (["bench"], "error"),
    (["cbir"], "error"),
    (["bench", "nope"], "error"),
    (["cbir", "--topn", "3"], "error"),
    # no command: nothing, an option, --, an unknown name
    ([], "error"),
    (["--", "gen", "--index", "3,2", "--out", "m.esm"], "error"),
    (["nope", "gen"], "error"),
    (["--verbose", "gen"], "error"),
    # help before the command, after it and after a subcommand, and version
    (["-h"], "exit"),
    (["--help"], "exit"),
    (["--version"], "exit"),
    (["-h", "gen"], "exit"),
    (["--version", "bench", "sweep"], "exit"),
    (["gen", "-h"], "exit"),
    (["bench", "-h"], "exit"),
    (["bench", "-h", "sweep"], "exit"),
    (["bench", "sweep", "-h"], "exit"),
    (["cbir", "--help", "index"], "exit"),
    (["cbir", "score", "--help"], "exit"),
]


def _parse_outcome(parser, argv, capsys):
    """The namespace argv parses to, its usage error's message, or the
    exit code and stdout of a help or version."""
    capsys.readouterr()
    try:
        return "ns", vars(parser.parse_args(argv))
    except errors.InvalidInput as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", (exc.code, capsys.readouterr().out)


@pytest.mark.parametrize("argv, kind", PARSE_CORPUS,
                         ids=["_".join(argv) or "no_argv" for argv, _ in PARSE_CORPUS])
def test_parser_of_argv_parses_it_as_the_full_table(capsys, argv, kind):
    full = _parse_outcome(cli.build_parser(), argv, capsys)
    assert full[0] == kind
    if kind == "exit":
        assert full[1][0] == 0 and full[1][1]
    assert _parse_outcome(cli.build_parser(argv), argv, capsys) == full


@pytest.fixture
def built_parsers(monkeypatch):
    """The names of the subparsers built since the list was last cleared."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    return built


def test_main_builds_only_the_parsers_of_its_command(tmp_path, built_parsers):
    cli.build_parser()
    assert len(built_parsers) == 11
    out = str(tmp_path / "m.esm")
    for argv, names in [
            (["gen", "--index", "3,2", "--out", out], ["gen"]),
            (["verify", out], ["verify"]),
            (["bench", "sweep", "--index", "3,2", "--kmax", "1", "--trials", "1",
              "--out", str(tmp_path / "s")], ["bench", "sweep"])]:
        built_parsers.clear()
        assert run(argv) == 0
        assert built_parsers == names


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys, built_parsers):
    # the path of the eulercs console script and of python -m eulercs.cli
    out = str(tmp_path / "m.esm")
    monkeypatch.setattr(sys, "argv", ["eulercs", "gen", "--index", "3,2", "--out", out])
    assert main() == 0
    assert load_esm(out).M == 9
    assert built_parsers == ["gen"]
    monkeypatch.setattr(sys, "argv", ["eulercs", "bench", "-h"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert "{sweep,phase,recon}" in capsys.readouterr().out
