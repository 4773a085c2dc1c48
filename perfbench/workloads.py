"""The benchmark's four workloads.

A workload builds its inputs from the seed in `setup()` and hands out
one pass of ops with `ops()`.  Every op is a closed-loop call into the
public eulercs API or into the CLI through `eulercs.cli.main`; the
runner times `Op.run` alone and afterwards calls `Op.inspect`, which
returns the op's canonical output text (hashed into the report digest)
and the list of failed output checks.

Modules are looked up as attributes at call time (`experiments.run_sweep`,
not a name imported once), so the traced run's wrappers see every call.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import os

import numpy as np

import eulercs.cli as cli
from eulercs import construct, euler, experiments, fields, imaging


@dataclasses.dataclass
class Op:
    name: str
    run: object          # () -> output; the timed part
    inspect: object      # (output, first_pass) -> (canonical text, [problems])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path):
    with open(path, "rb") as f:
        return _sha(f.read())


def _quiet_cli(argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Workload:
    name = ""
    SIZES = {}

    def __init__(self, seed, workdir, size="full"):
        self.seed = seed
        self.workdir = workdir
        self.size = self.SIZES[size]

    def setup(self):
        """Make the inputs from the seed and warm up; safe to repeat."""

    def ops(self):
        raise NotImplementedError

    def quality(self, outputs):
        """Result-quality figures from one pass's outputs, by op name."""
        return {}

    def trace_metrics(self, outputs, table, passes):
        """Workload-specific per-layer figures from the span table."""
        return {}


# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Full-trial success sweeps, one `run_sweep` call per op.

    OMP on Euler (11,5) and on a size-matched Gaussian 55x121 over the
    criterion 7 levels 1..27, OMP on Euler (23,10), and a short basis
    pursuit sweep on (11,5).  The recovery layer dominates; fields,
    construct and props are nearly idle.
    """
    name = "sweep"
    SIZES = {"full": dict(trials=40, kmax=27, big_trials=10, big_kmax=40,
                          bp_trials=10, bp_kmax=4),
             "tiny": dict(trials=2, kmax=3, big_trials=1, big_kmax=2,
                          bp_trials=1, bp_kmax=1)}

    def setup(self):
        s, seed = self.size, self.seed
        spec = experiments.MatrixSpec
        self.sweeps = [
            ("omp_euler_11_5", 5, experiments.SweepConfig(
                spec(family="euler", n=11, k=5), tuple(range(1, s["kmax"] + 1)),
                trials=s["trials"], master_seed=seed)),
            ("omp_gaussian_55x121", None, experiments.SweepConfig(
                spec(family="gaussian", m=55, M=121, seed=seed),
                tuple(range(1, s["kmax"] + 1)), trials=s["trials"], master_seed=seed)),
            ("omp_euler_23_10", 10, experiments.SweepConfig(
                spec(family="euler", n=23, k=10), tuple(range(1, s["big_kmax"] + 1)),
                trials=s["big_trials"], master_seed=seed)),
            ("bp_euler_11_5", None, experiments.SweepConfig(
                spec(family="euler", n=11, k=5), tuple(range(1, s["bp_kmax"] + 1)),
                trials=s["bp_trials"], solver="bp", master_seed=seed)),
        ]
        # one trial per matrix: lazy imports and field tables are ready
        # before the timed loop, as in any process past its first sweep
        for _, _, cfg in self.sweeps:
            experiments.run_sweep(dataclasses.replace(cfg, sparsity_levels=(1,),
                                                      trials=1))

    def ops(self):
        return [Op(name, lambda cfg=cfg: experiments.run_sweep(cfg),
                   lambda rep, first, cfg=cfg, k=k: self._inspect(rep, cfg, k))
                for name, k, cfg in self.sweeps]

    @staticmethod
    def _inspect(report, cfg, degree):
        problems = []
        if [r["k"] for r in report.rows] != list(cfg.sparsity_levels):
            problems.append("report levels differ from the configured levels")
        for r in report.rows:
            # coherence 1/k guarantees recovery of every k'-sparse signal
            # with k' < (1 + k)/2; the guarantee is checked for OMP only
            if degree and cfg.solver == "omp" and 2 * r["k"] < 1 + degree \
                    and r["successes"] != r["trials"]:
                problems.append(f"level {r['k']} is inside the guarantee but "
                                f"reached {r['success_pct']}%")
        return report.to_json(), problems

    def quality(self, outputs):
        def mean_pct(solver):
            pcts = [r["success_pct"] for (name, _, cfg) in self.sweeps
                    if cfg.solver == solver for r in outputs[name].rows]
            return sum(pcts) / len(pcts)
        return {"omp_success_pct": mean_pct("omp"), "bp_success_pct": mean_pct("bp")}


# ---------------------------------------------------------------------------

class Phase(Workload):
    """Criterion 8's phase grid (M=121, OMP) at reduced trials, one row
    size per op.  OMP runs up to K ~ m/2 and the early-exit rule stops a
    level once its outcome is fixed.

    The grid keeps criterion 8's master seed whatever the run's seed:
    the signals decide k*, and so how many levels each row size scans,
    and across master seeds the work of a pass varies by about half.
    """
    name = "phase"
    M = 121
    MASTER_SEED = 7
    SIZES = {"full": dict(trials=20, rows=tuple(range(22, 111, 11))),
             "tiny": dict(trials=2, rows=(22, 33))}

    def setup(self):
        experiments.run_phase_transition(self.M, [22], trials=1,
                                         master_seed=self.MASTER_SEED)

    def ops(self):
        s = self.size
        self._k_star = {}
        return [Op(f"m{m}",
                   lambda m=m: experiments.run_phase_transition(
                       self.M, [m], trials=s["trials"], master_seed=self.MASTER_SEED),
                   lambda rep, first, m=m: self._inspect(rep, m))
                for m in s["rows"]]

    def _inspect(self, report, m):
        problems = []
        k_star = report.rows[0]["k_star"]
        smaller = [k for mm, k in self._k_star.items() if mm < m]
        if smaller and k_star < max(smaller):
            problems.append(f"k_star {k_star} at m={m} is below a smaller row size's")
        self._k_star[m] = k_star
        return report.to_json(), problems

    def _levels_scanned(self, outputs):
        rows = [outputs[f"m{m}"].rows[0] for m in self.size["rows"]]
        return sum(r["k_star"] + (r["k_star"] < r["m"]) for r in rows)

    def quality(self, outputs):
        rows = [outputs[f"m{m}"].rows[0] for m in self.size["rows"]]
        return {"k_star_mean": sum(r["k_star"] for r in rows) / len(rows)}

    def trace_metrics(self, outputs, table, passes):
        trials_run = table.get("recovery.gen_sparse_signal", [0])[0] / passes
        budget = self._levels_scanned(outputs) * self.size["trials"]
        return {"experiments.phase.trials_run_ratio": trials_run / budget}


# ---------------------------------------------------------------------------

class ConstructVerify(Workload):
    """Field tables, then `eulercs gen` and `eulercs verify` per matrix.

    The field cache is cleared before every op, because every CLI
    process pays for its own field tables.  No solver runs.  The
    constructions are deterministic, so the seed changes nothing here.
    """
    name = "construct_verify"
    SIZES = {"full": dict(fields=((2, 6), (2, 8), (2, 9)),
                          indices=((49, 6), (101, 10), (128, 16)),
                          rows=60, extend=60, ternary=(5, 1, 1)),
             "tiny": dict(fields=((2, 3),), indices=((7, 3),), rows=12,
                          extend=12, ternary=(5, 1, 1))}

    def setup(self):
        s = self.size
        rows = s["rows"]
        p, i, j = s["ternary"]
        self.matrices = [
            (f"index_{n}_{k}", ["--index", f"{n},{k}"], (n, k),
             lambda n=n, k=k: construct.build_binary_matrix(euler.euler_square(n, k)))
            for n, k in s["indices"]]
        self.matrices += [
            (f"rows_{rows}", ["--rows", str(rows)], None,
             lambda: construct.build_for_row_size(rows)),
            (f"extend_{s['extend']}", ["--extend", str(s["extend"])], None,
             lambda: construct.build_extended(s["extend"])[0]),
            (f"ternary_{p}_{i}_{j}", ["--ternary", f"{p},{i},{j}"], None,
             lambda: construct.build_ternary(p, i, j)),
        ]
        os.makedirs(self.workdir, exist_ok=True)
        warm = os.path.join(self.workdir, "warm.esm")
        fields.build_field.cache_clear()
        _quiet_cli(["gen", "--index", "5,2", "--out", warm])
        _quiet_cli(["verify", warm])

    def ops(self):
        ops = [Op(f"field_{p ** r}", lambda p=p, r=r: self._field(p, r),
                  self._inspect_field) for p, r in self.size["fields"]]
        for name, argv, index, build in self.matrices:
            path = os.path.join(self.workdir, name + ".esm")
            ops.append(Op(f"gen_{name}",
                          lambda argv=argv, path=path: self._cli(
                              ["gen", *argv, "--out", path]),
                          lambda out, first, path=path, build=build:
                              self._inspect_gen(out, first, path, build)))
            ops.append(Op(f"verify_{name}",
                          lambda path=path: self._cli(["verify", path]),
                          lambda out, first, path=path, index=index:
                              self._inspect_verify(out, first, path, index)))
        return ops

    @staticmethod
    def _field(p, r):
        fields.build_field.cache_clear()
        return fields.build_field(p, r)

    @staticmethod
    def _cli(argv):
        fields.build_field.cache_clear()
        return _quiet_cli(argv)

    @staticmethod
    def _inspect_field(F, first):
        problems = []
        codes = np.arange(F.q)
        if not (np.array_equal(F.add_table[0], codes)
                and np.array_equal(F.mul_table[1], codes)):
            problems.append(f"GF({F.q}) tables lack the identities")
        text = (f"q={F.q} irreducible={F.irreducible} "
                f"add={_sha(F.add_table.tobytes())} mul={_sha(F.mul_table.tobytes())}")
        return text, problems

    @staticmethod
    def _inspect_gen(out, first, path, build):
        rc, _ = out
        if rc != 0:
            return f"rc={rc}", [f"gen exited {rc}"]
        problems = []
        if first:
            loaded, built = construct.load_esm(path), build()
            if not (np.array_equal(loaded.rows, built.rows)
                    and np.array_equal(loaded.vals, built.vals)):
                problems.append("ESM load does not give back the saved rows and vals")
        return f"rc={rc} esm={_file_sha(path)}", problems

    @staticmethod
    def _inspect_verify(out, first, path, index):
        rc, text = out
        problems = [] if rc == 0 else [f"verify exited {rc}"]
        report = dict(line.split("=", 1) for line in text.split())
        with open(path) as f:
            header = dict(tok.split("=") for tok in f.readline().split()[2:])
        k = int(header["k"])
        mu = float(report.get("coherence", "nan"))
        if int(report.get("max_overlap", 2)) > 1:
            problems.append(f"max_overlap {report.get('max_overlap')} exceeds 1")
        if header["alphabet"] == "binary" and mu != 1.0 / k:
            problems.append(f"coherence {mu!r} is not exactly 1/{k}")
        if header["alphabet"] == "ternary" and not mu <= 1.0 / k:
            problems.append(f"ternary coherence {mu!r} exceeds 1/{k}")
        if first and index is not None:
            check = euler.validate_euler_square(euler.euler_square(*index))
            if not check.ok:
                problems.append(f"validate_euler_square: {check.message}")
        return f"rc={rc}\n{text}", problems


# ---------------------------------------------------------------------------

class Imaging(Workload):
    """CBIR index, per-image features, per-query retrieval, scoring and
    patch reconstruction on a synthetic labelled PGM corpus.

    The only workload that touches `imaging`: `to_dense` runs on every
    `extract_features`, and recon runs OMP one signal at a time at high K
    on the small (8,4) 32x64 matrix.
    """
    name = "imaging"
    CLASSES = 5
    PATCH, ROWS = 8, 32                  # the index (8,4) 32x64 matrix
    SIZES = {"full": dict(images=200, queries=100, edge=64, recon_edge=128, topn=10),
             "tiny": dict(images=10, queries=5, edge=16, recon_edge=16, topn=3)}

    def setup(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.db_dir = os.path.join(self.workdir, "images")
        self.query_dir = os.path.join(self.workdir, "queries")
        self.out_dir = os.path.join(self.workdir, "db")
        self.images, self.queries = [], []
        for directory, count, names in ((self.db_dir, s["images"], self.images),
                                        (self.query_dir, s["queries"], self.queries)):
            os.makedirs(directory, exist_ok=True)
            for i in range(count):
                label = f"c{i % self.CLASSES}"
                path = os.path.join(directory, f"{label}_{i:03d}.pgm")
                _write_pgm(path, _texture(rng, i % self.CLASSES, s["edge"]))
                names.append((f"{label}_{i:03d}", label, path))
            names.sort()                 # `cbir index` order: by file name
        self.recon_image = _smooth_image(rng, s["recon_edge"])
        self.T = construct.build_binary_matrix(
            euler.euler_square(self.PATCH, self.ROWS // self.PATCH))
        imaging.extract_features(imaging.read_pgm(self.images[0][2]), self.T, self.PATCH)

    def ops(self):
        self._db, self._rankings = None, []
        ops = [Op("cbir_index", self._index, self._inspect_index),
               Op("db_load", self._load, self._inspect_load)]
        ops += [Op(f"image_{i}", lambda path=path: self._features(path),
                   lambda feat, first, i=i: self._inspect_image(feat, i))
                for i, (_, _, path) in enumerate(self.images)]
        ops += [Op(f"query_{i}", lambda path=path: self._query(path), self._inspect_query)
                for i, (_, _, path) in enumerate(self.queries)]
        ops.append(Op("score", self._score, self._inspect_score))
        ops.append(Op("recon", lambda: experiments.run_patch_reconstruction(
            self.recon_image, self.T, self.PATCH), self._inspect_recon))
        return ops

    def _index(self):
        return _quiet_cli(["cbir", "index", "--images", self.db_dir, "--rows",
                           str(self.ROWS), "--patch", str(self.PATCH),
                           "--out", self.out_dir])[0]

    def _load(self):
        self._db = imaging.load_feature_db(self.out_dir)
        return self._db

    def _features(self, path):
        return imaging.extract_features(imaging.read_pgm(path), self.T, self.PATCH)

    def _query(self, path):
        ranked = imaging.retrieve(self._features(path), self._db, self.size["topn"])
        self._rankings.append([r[0] for r in ranked])
        return ranked

    def _score(self):
        return imaging.score_retrieval(
            self._rankings, [(q[0], q[1]) for q in self.queries],
            dict(zip(self._db.ids, self._db.labels)), self.size["topn"])

    def _inspect_index(self, rc, first):
        if rc != 0:
            return f"rc={rc}", [f"cbir index exited {rc}"]
        return (f"rc={rc} features={_file_sha(os.path.join(self.out_dir, 'features.bin'))} "
                f"matrix={_file_sha(os.path.join(self.out_dir, 'matrix.esm'))}"), []

    def _inspect_load(self, db, first):
        problems = []
        if db.ids != [e[0] for e in self.images]:
            problems.append("database ids differ from the indexed images")
        if first:
            for i in range(min(5, len(db.ids))):
                top = imaging.retrieve(db.features[i], db, 1)[0][0]
                if top != db.ids[i]:
                    problems.append(f"self-query {db.ids[i]} ranked {top} first")
        return f"ids={','.join(db.ids)} labels={','.join(db.labels)}", problems

    def _inspect_image(self, feat, i):
        problems = []
        if not np.all(np.isfinite(feat)):
            problems.append("non-finite feature")
        if self._db is None or not np.array_equal(feat, self._db.features[i]):
            problems.append("features differ from the cbir index")
        return _sha(feat.tobytes()), problems

    def _inspect_query(self, ranked, first):
        problems = [] if len(ranked) == self.size["topn"] else ["short ranking"]
        return ";".join(f"{ident}:{sim!r}" for ident, _, sim in ranked), problems

    @staticmethod
    def _inspect_score(metrics, first):
        problems = [] if 0.0 <= metrics.precision <= 1.0 else ["precision out of range"]
        return (f"precision={metrics.precision!r} recall={metrics.recall!r} "
                f"confusion={metrics.confusion_matrix().tolist()}"), problems

    @staticmethod
    def _inspect_recon(out, first):
        recon, report = out
        snr_db = report.rows[0]["snr_db"]
        problems = [] if math.isfinite(snr_db) else [f"recon SNR {snr_db}"]
        return report.to_json() + _sha(recon.tobytes()), problems

    def quality(self, outputs):
        return {"retrieval_precision": outputs["score"].precision,
                "recon_snr_db": outputs["recon"][1].rows[0]["snr_db"]}


def _texture(rng, label, edge):
    """A noisy oriented grating; the class sets orientation and frequency."""
    y, x = np.mgrid[0:edge, 0:edge]
    theta = math.pi * label / Imaging.CLASSES + rng.normal(0, 0.15)
    freq = 0.12 + 0.06 * label
    wave = np.sin(freq * (x * math.cos(theta) + y * math.sin(theta))
                  + rng.uniform(0, 2 * math.pi))
    img = 128 + 60 * wave + rng.normal(0, 35, (edge, edge))
    return np.clip(img, 0, 255).astype(np.uint8)


def _smooth_image(rng, edge):
    """A sum of a few Gaussian blobs: compressible in the Haar basis."""
    y, x = np.mgrid[0:edge, 0:edge] / edge
    img = np.full((edge, edge), 40.0)
    for _ in range(6):
        cy, cx = rng.uniform(0, 1, 2)
        img += rng.uniform(40, 120) * np.exp(-((y - cy) ** 2 + (x - cx) ** 2)
                                             / (2 * rng.uniform(0.05, 0.2) ** 2))
    return np.clip(np.round(img), 0, 255)


def _write_pgm(path, img):
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode() + img.tobytes())


WORKLOADS = {w.name: w for w in (Sweep, Phase, ConstructVerify, Imaging)}
