"""Command-line front end.

Subcommands: gen, verify, bench (sweep|phase|recon), recover,
cbir (index|query|score).  Machine-readable output goes to stdout /
output files, human summaries to stderr.  Every output artifact gets a
sibling <out>.manifest.json recording the invocation, so reruns are
reproducible byte for byte.

Exit codes follow the error's class (errors.py): 0 success, 1 a failed
verification or any other EulerCSError (a broken invariant, a parse
error, nan or inf measurements too, a convergence failure), 2
InvalidInput (argparse's usage errors too) or a path that cannot be
opened, 3 Infeasible (such as an m x M shape no euler square has) or out
of memory.  Each error prints one `error:` line, which a ParseError that
knows its line ends with ` (line N)`; a failed verification prints it
after its report.
"""

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, construct, experiments, imaging, props, recovery
from .errors import EulerCSError, Infeasible, InvalidInput, ParseError
from .euler import EulerSquare, validate_euler_square


def _write_manifest(out_path, subcommand, args, seed, inputs, outputs, wall):
    manifest = {
        "subcommand": subcommand,
        "flags": {k: v for k, v in sorted(vars(args).items())
                  if k != "func" and v is not None},
        "master_seed": seed,
        "tool_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "wall_clock": wall,
    }
    with open(out_path + ".manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _parse_ints(text, what, count=None):
    """Comma-separated integers; `count` of them when given."""
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        values = ()
    if not values or (count is not None and len(values) != count):
        raise InvalidInput(f"{what} expects {count or 'a list of'} "
                           f"comma-separated integers, got {text!r}")
    return values


def _matrix_spec(args):
    """The MatrixSpec named by the matrix selector flags of gen or bench sweep.

    The parser lets exactly one selector through; --m and --M size only
    a --family matrix.
    """
    MatrixSpec = experiments.MatrixSpec
    family = getattr(args, "family", None)
    m, M = getattr(args, "m", None), getattr(args, "M", None)
    if family is None and (m is not None or M is not None):
        raise InvalidInput("--m and --M size only a --family gaussian/bernoulli matrix")
    if args.index is not None:
        n, k = _parse_ints(args.index, "--index", 2)
        return MatrixSpec(family="euler", n=n, k=k)
    if args.rows is not None:
        return MatrixSpec(family="rows", row_size=args.rows)
    if getattr(args, "extend", None) is not None:
        return MatrixSpec(family="extended", n=args.extend)
    if getattr(args, "ternary", None) is not None:
        p, i, j = _parse_ints(args.ternary, "--ternary", 3)
        return MatrixSpec(family="ternary", p=p, i=i, j=j)
    if m is None or M is None:
        raise InvalidInput("--family gaussian/bernoulli needs --m and --M")
    return MatrixSpec.of_shape(family, m, M, args.seed)


def _patch_columns(P):
    """The P*P columns that measure a P x P patch; rejects an edge below 1."""
    if P < 1:
        raise InvalidInput(f"patch edge {P} must be >= 1")
    return P * P


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args):
    t0 = time.perf_counter()
    mat = experiments.make_matrix(_matrix_spec(args))
    construct.save_esm(mat, args.out)
    _write_manifest(args.out, "gen", args, None, [], [args.out],
                    time.perf_counter() - t0)
    print(f"wrote {mat.m}x{mat.M} {mat.alphabet} matrix to {args.out}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify

def _fits_header(mat, spec):
    """Whether the provenance line's matrix can be the one the header describes.

    Decided from the line's numbers alone, so a line that claims a huge
    matrix fails before anything is built.  A claim fits when its columns
    and column weight are no more than the header's and its numbers agree
    with each other.  The header's cols and k are bounded by the file's
    own lines, so rebuilding a claim that fits costs about as much as
    reading the file did.
    """
    if spec.family == "ternary":
        if spec.p > 1 and spec.i > mat.M.bit_length():   # then p**i > M
            return False
        n = spec.p ** spec.i
        k = n - spec.j
        return n * n * k <= mat.M and k <= mat.k
    if spec.family == "rows":
        via = experiments.MatrixSpec.from_provenance(mat.provenance.split(" via ")[1])
        return spec.row_size == via.n * via.k and _fits_header(mat, via)
    # euler and extended: the n*n columns of the order-n square come first
    return spec.n * spec.n <= mat.M and (spec.family != "euler" or spec.k <= mat.k)


def _check_rebuild(mat, spec):
    """Raise EulerCSError at the first way `mat` differs from the matrix its
    provenance spec builds, or at an euler square that does not validate."""
    if not _fits_header(mat, spec):
        raise EulerCSError(f"provenance {mat.provenance!r} does not fit the header "
                           f"rows={mat.m} cols={mat.M} k={mat.k}")
    try:
        rebuilt = experiments.make_matrix(spec)
    except EulerCSError as exc:
        raise EulerCSError(f"provenance {mat.provenance!r} cannot be rebuilt: {exc}") from None
    same = ((rebuilt.m, rebuilt.alphabet, rebuilt.provenance)
            == (mat.m, mat.alphabet, mat.provenance)
            and np.array_equal(rebuilt.rows, mat.rows)
            and np.array_equal(rebuilt.vals, mat.vals))
    if not same:
        raise EulerCSError("matrix does not match its provenance rebuild")
    if spec.family == "euler":
        cells = (rebuilt.rows - np.arange(spec.k) * spec.n).reshape(spec.n, spec.n, -1)
        val = validate_euler_square(EulerSquare(cells))
        if not val.ok:
            raise EulerCSError(f"euler square validation: {val.message}")


def cmd_verify(args):
    """Print the exhaustive coherence report, then check the provenance.

    Provenance of the euler, rows, extended and ternary families (the
    lines their constructions write) is parsed into a MatrixSpec, and a
    malformed line of those families is a ParseError before anything is
    printed.  After the report, the first failed check (_check_rebuild,
    then column overlap <= 1) raises EulerCSError, which main prints as
    one `error:` line.  Any other provenance is only reported.
    """
    mat = construct.load_esm(args.matrix)
    spec = experiments.MatrixSpec.from_provenance(mat.provenance)
    report = props.coherence(mat)
    sys.stdout.write(report.to_text())
    if spec is not None:
        _check_rebuild(mat, spec)
        # a file that matches its rebuild exceeds 1 only if the construction is broken
        if report.max_overlap > 1:
            raise EulerCSError(f"max column overlap {report.max_overlap} exceeds 1")
    print("verification passed", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# bench

def _emit_report(report, out, args, seed, inputs, extra_outputs=()):
    outputs = list(extra_outputs)
    with open(out + ".json", "w") as f:
        f.write(report.to_json())
    with open(out + ".csv", "w") as f:
        f.write(report.to_csv())
    outputs += [out + ".json", out + ".csv"]
    _write_manifest(out, "bench", args, seed, inputs, outputs, report.wall_clock)
    print(f"report written to {out}.json / {out}.csv "
          f"({report.wall_clock:.2f}s)", file=sys.stderr)


def cmd_bench_sweep(args):
    spec = _matrix_spec(args)
    levels = (_parse_ints(args.levels, "--levels")
              if args.levels else tuple(range(1, args.kmax + 1)))
    cfg = experiments.SweepConfig(matrix=spec, sparsity_levels=levels,
                                  trials=args.trials,
                                  solver=args.solver, master_seed=args.seed)
    report = experiments.run_sweep(cfg)
    _emit_report(report, args.out, args, args.seed, [])
    return 0


def cmd_bench_phase(args):
    row_sizes = list(_parse_ints(args.rows, "--rows"))
    report = experiments.run_phase_transition(
        args.M, row_sizes, fraction=args.fraction, trials=args.trials,
        solver=args.solver, master_seed=args.seed, family=args.family)
    _emit_report(report, args.out, args, args.seed, [])
    return 0


def cmd_bench_recon(args):
    image = imaging.read_pgm(args.image)
    A = experiments.make_matrix(experiments.MatrixSpec.of_shape(
        args.family, args.rows, _patch_columns(args.patch), args.seed))
    recon, report = experiments.run_patch_reconstruction(
        image, A, args.patch, solver=args.solver)
    imaging.write_pgm(recon, args.out + ".pgm")
    _emit_report(report, args.out, args, args.seed, [args.image],
                 [args.out + ".pgm"])
    return 0


# ---------------------------------------------------------------------------
# recover

def cmd_recover(args):
    mat = construct.load_esm(args.matrix)
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, in one error line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            y = np.loadtxt(args.y, delimiter=",").ravel()
    except ValueError as exc:
        raise ParseError(f"{args.y}: {exc}") from None
    if not y.size:
        raise ParseError(f"{args.y}: no measurements")
    if not np.isfinite(y).all():
        raise ParseError(f"{args.y}: measurements must be finite numbers")
    K = args.k if args.k is not None else mat.m // 2
    result = recovery.recover(mat, y[None], K, args.solver)[0]
    if not result.converged:
        raise EulerCSError(f"{args.solver} did not converge: "
                           f"residual={result.residual_norm:.3e}")
    np.savetxt(args.out, result.estimate[None, :], delimiter=",")
    _write_manifest(args.out, "recover", args, None, [args.matrix, args.y],
                    [args.out], 0.0)
    print(f"support={sorted(result.support)} residual={result.residual_norm:.3e}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# cbir

def _scan_images(directory):
    entries = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".pgm"):
            label = name.split("_")[0]
            entries.append((os.path.splitext(name)[0], label,
                            os.path.join(directory, name)))
    return entries


def cmd_cbir_index(args):
    t0 = time.perf_counter()
    P = args.patch
    mat = experiments.make_matrix(
        experiments.MatrixSpec.of_shape("euler", args.rows, _patch_columns(P)))
    entries = _scan_images(args.images)
    if not entries:
        raise InvalidInput(f"no .pgm images found in {args.images}")
    feats = None
    for i, (_, _, path) in enumerate(entries):
        feat = imaging.extract_features(imaging.read_pgm(path), mat, P)
        if feats is None:
            feats = np.empty((len(entries), feat.size))
        elif feat.size != feats.shape[1]:
            raise EulerCSError(f"{path}: {feat.size} features, but {entries[0][2]} "
                               f"gives {feats.shape[1]}; index images of one size")
        feats[i] = feat
    db = imaging.FeatureDB(ids=[e[0] for e in entries],
                           labels=[e[1] for e in entries],
                           paths=[e[2] for e in entries],
                           features=feats, patch=P, matrix_provenance=mat.provenance)
    imaging.save_feature_db(db, args.out)
    construct.save_esm(mat, os.path.join(args.out, "matrix.esm"))
    _write_manifest(os.path.join(args.out, "db"), "cbir-index", args, None,
                    [args.images], [args.out], time.perf_counter() - t0)
    print(f"indexed {len(entries)} images into {args.out}", file=sys.stderr)
    return 0


def _db_and_matrix(db_dir):
    db = imaging.load_feature_db(db_dir)
    path = os.path.join(db_dir, "matrix.esm")
    mat = construct.load_esm(path)
    if mat.provenance != db.matrix_provenance:
        raise ParseError(f"{path}: provenance {mat.provenance!r} is not the "
                         f"feature database's {db.matrix_provenance!r}", line=2)
    return db, mat


def cmd_cbir_query(args):
    db, mat = _db_and_matrix(args.db)
    feat = imaging.extract_features(imaging.read_pgm(args.image), mat, db.patch)
    for rank, (ident, label, sim) in enumerate(
            imaging.retrieve(feat, db, args.topn), start=1):
        print(f"{rank}\t{ident}\t{label}\t{sim:.6f}")
    return 0


def cmd_cbir_score(args):
    db, mat = _db_and_matrix(args.db)
    queries = _scan_images(args.queries)
    if not queries:
        raise InvalidInput(f"no .pgm query images found in {args.queries}")
    rankings, query_labels = [], []
    for ident, label, path in queries:
        feat = imaging.extract_features(imaging.read_pgm(path), mat, db.patch)
        ranked = imaging.retrieve(feat, db, args.topn)
        rankings.append([r[0] for r in ranked])
        query_labels.append((ident, label))
    metrics = imaging.score_retrieval(rankings, query_labels,
                                      dict(zip(db.ids, db.labels)), args.topn)
    print(f"precision={metrics.precision!r}")
    print(f"recall={metrics.recall!r}")
    print("classes=" + ",".join(metrics.classes))
    for row_label, row in zip(metrics.classes, metrics.confusion_matrix()):
        print(f"confusion[{row_label}]=" + ",".join(str(int(v)) for v in row))
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse usage error is an InvalidInput, reported like any other."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser():
    parser = _Parser(prog="eulercs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct a sensing matrix")
    sel = gen.add_mutually_exclusive_group(required=True)
    sel.add_argument("--index", help="n,k Euler-square index")
    sel.add_argument("--rows", type=int, help="target row size m")
    sel.add_argument("--extend", type=int, help="column-extended matrix for order n")
    sel.add_argument("--ternary", help="p,i,j ternary expansion parameters")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="verify a matrix file")
    ver.add_argument("matrix")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run an experiment")
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    sweep = bsub.add_parser("sweep")
    sweep_sel = sweep.add_mutually_exclusive_group(required=True)
    sweep_sel.add_argument("--index")
    sweep_sel.add_argument("--rows", type=int)
    sweep_sel.add_argument("--family", choices=["gaussian", "bernoulli"])
    sweep.add_argument("--m", type=int)
    sweep.add_argument("--M", type=int)
    sweep_levels = sweep.add_mutually_exclusive_group()
    sweep_levels.add_argument("--kmax", type=int, default=10)
    sweep_levels.add_argument("--levels", help="explicit comma-separated sparsity levels")
    sweep.add_argument("--trials", type=int, default=1000)
    sweep.add_argument("--solver", choices=recovery.SOLVERS, default="omp")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_bench_sweep)

    phase = bsub.add_parser("phase")
    phase.add_argument("--M", type=int, required=True)
    phase.add_argument("--rows", required=True, help="comma-separated row sizes")
    phase.add_argument("--fraction", type=float, default=0.9)
    phase.add_argument("--trials", type=int, default=1000)
    phase.add_argument("--solver", choices=recovery.SOLVERS, default="omp")
    phase.add_argument("--family", default="euler",
                       choices=["euler", "gaussian", "bernoulli"])
    phase.add_argument("--seed", type=int, default=0)
    phase.add_argument("--out", required=True)
    phase.set_defaults(func=cmd_bench_phase)

    recon = bsub.add_parser("recon")
    recon.add_argument("--image", required=True)
    recon.add_argument("--rows", type=int, required=True)
    recon.add_argument("--patch", type=int, default=32)
    recon.add_argument("--family", default="euler",
                       choices=["euler", "gaussian", "bernoulli"])
    recon.add_argument("--solver", choices=recovery.SOLVERS, default="omp")
    recon.add_argument("--seed", type=int, default=0)
    recon.add_argument("--out", required=True)
    recon.set_defaults(func=cmd_bench_recon)

    rec = sub.add_parser("recover", help="recover a signal from measurements")
    rec.add_argument("--matrix", required=True)
    rec.add_argument("--y", required=True, help="CSV measurement vector")
    rec.add_argument("--k", type=int)
    rec.add_argument("--solver", choices=recovery.SOLVERS, default="omp")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_recover)

    cbir = sub.add_parser("cbir", help="content-based retrieval pipeline")
    csub = cbir.add_subparsers(dest="cbir_command", required=True)

    idx = csub.add_parser("index")
    idx.add_argument("--images", required=True)
    idx.add_argument("--rows", type=int, required=True)
    idx.add_argument("--patch", type=int, default=32)
    idx.add_argument("--out", required=True)
    idx.set_defaults(func=cmd_cbir_index)

    qry = csub.add_parser("query")
    qry.add_argument("--db", required=True)
    qry.add_argument("--image", required=True)
    qry.add_argument("--topn", type=int, default=10)
    qry.set_defaults(func=cmd_cbir_query)

    score = csub.add_parser("score")
    score.add_argument("--db", required=True)
    score.add_argument("--queries", required=True)
    score.add_argument("--topn", type=int, default=10)
    score.set_defaults(func=cmd_cbir_score)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (Infeasible, MemoryError) as exc:
        # a request that does not fit in memory is infeasible here too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing or unreadable input path, or an unwritable output
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except EulerCSError as exc:
        line = getattr(exc, "line", None)       # a ParseError's first bad line
        where = f" (line {line})" if line is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
