#!/usr/bin/env python3
"""eulercs benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --baseline

Runs one workload (sweep, phase, construct_verify, imaging) against the
eulercs sources in ../src for about --seconds seconds, checks every
output and prints the metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
--baseline times the one-shot reference configurations instead; see
README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from tracer import ROOT as ROOT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "peak_rss_mb": "MB"}


def _s(name):
    return lambda t, c, n: t.get(name, (0, 0, 0))[1] / 1e9 / n


def _calls(name):
    return lambda t, c, n: t.get(name, (0, 0, 0))[0] / n


def _self(*names, prefix=None):
    def get(t, c, n):
        return sum(row[2] for key, row in t.items()
                   if key in names or (prefix and key.startswith(prefix))) / 1e9 / n
    return get


def _count(key, scale=1.0):
    return lambda t, c, n: c.get(key, 0) * scale / n


def _hit_ratio(t, c, n):
    hits, misses = c.get("fields.build_field.hits", 0), c.get("fields.build_field.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


# per-layer metrics of the traced run: name -> (unit, value from
# (span table, counters, traced passes)); figures are per pass
PER_LAYER = {f"{layer}.self_s": ("s", _self(prefix=layer + "."))
             for layer in ("fields", "euler", "construct", "props", "recovery",
                           "experiments", "imaging", "cli", "bench")}
PER_LAYER.update({
    "fields.build_field.calls": ("count", _calls("fields.build_field")),
    "fields.build_field.s": ("s", _s("fields.build_field")),
    "fields.cache_hit_ratio": ("ratio", _hit_ratio),
    "euler.euler_square.calls": ("count", _calls("euler.euler_square")),
    "euler.euler_square.s": ("s", _s("euler.euler_square")),
    "euler.validate_euler_square.calls": ("count", _calls("euler.validate_euler_square")),
    "euler.validate_euler_square.s": ("s", _s("euler.validate_euler_square")),
    "construct.build.self_s": ("s", _self(prefix="construct.build_")),
    "construct.save_esm.s": ("s", _s("construct.save_esm")),
    "construct.load_esm.s": ("s", _s("construct.load_esm")),
    "construct.esm_bytes": ("B", _count("construct.esm_bytes")),
    "construct.to_dense.calls": ("count", _calls("construct.to_dense")),
    "construct.to_dense.s": ("s", _s("construct.to_dense")),
    "props.coherence.calls": ("count", _calls("props.coherence")),
    "props.coherence.s": ("s", _s("props.coherence")),
    # growth of the process's peak RSS is seen once per run, not per pass
    "props.coherence.rss_growth_mb":
        ("MB", lambda t, c, n: c.get("props.coherence.rss_growth_kb", 0) / 1024),
    "recovery.omp.calls": ("count", _calls("recovery.omp")),
    "recovery.omp.s": ("s", _s("recovery.omp")),
    "recovery.omp.iterations": ("count", _count("recovery.omp.iterations")),
    "recovery.omp.solve_flops": ("flop", _count("recovery.omp.solve_flops")),
    "recovery.omp.rank_deficient": ("count", _count("recovery.omp.rank_deficient")),
    "recovery.omp.stalled": ("count", _count("recovery.omp.stalled")),
    "recovery.basis_pursuit.calls": ("count", _calls("recovery.basis_pursuit")),
    "recovery.basis_pursuit.s": ("s", _s("recovery.basis_pursuit")),
    "recovery.basis_pursuit.iterations": ("count", _count("recovery.basis_pursuit.iterations")),
    "recovery.basis_pursuit.nonconverged": ("count", _count("recovery.basis_pursuit.nonconverged")),
    "recovery.basis_pursuit.converged_below_threshold":
        ("count", _count("recovery.basis_pursuit.converged_below_threshold")),
    "recovery.gen_sparse_signal.s": ("s", _s("recovery.gen_sparse_signal")),
    "recovery.snr.s": ("s", _s("recovery.snr")),
    "experiments.run_sweep.self_s": ("s", _self("experiments.run_sweep")),
    "experiments.run_phase_transition.self_s": ("s", _self("experiments.run_phase_transition")),
    "experiments.run_patch_reconstruction.self_s":
        ("s", _self("experiments.run_patch_reconstruction")),
    "experiments.make_matrix.calls": ("count", _calls("experiments.make_matrix")),
    "experiments.make_matrix.s": ("s", _s("experiments.make_matrix")),
    "experiments.phase.trials_run_ratio": ("ratio", None),
    "imaging.haar_forward.calls": ("count", _calls("imaging.haar_forward")),
    "imaging.haar_forward.s": ("s", _s("imaging.haar_forward")),
    "imaging.extract_features.self_s": ("s", _self("imaging.extract_features")),
    "imaging.retrieve.s": ("s", _s("imaging.retrieve")),
    "imaging.read_pgm.s": ("s", _s("imaging.read_pgm")),
    "imaging.feature_db_io.s": ("s", lambda t, c, n: _s("imaging.save_feature_db")(t, c, n)
                                + _s("imaging.load_feature_db")(t, c, n)),
    "cli.main.gen.self_s": ("s", _self("cli.main.gen")),
    "cli.main.verify.self_s": ("s", _self("cli.main.verify")),
    "cli.main.cbir_index.self_s": ("s", _self("cli.main.cbir_index")),
    "cli.main.nonzero_exits": ("count", _count("cli.main.nonzero_exits")),
    "trace.op_wall_s": ("s", _s("bench.op")),
    "trace_overhead_pct": ("%", None),
    "bench.probe_ms": ("ms", None),
})
# result quality, from the run's outputs; 0 on workloads without them
QUALITY = {"omp_success_pct": "%", "bp_success_pct": "%", "k_star_mean": "count",
           "retrieval_precision": "ratio", "recon_snr_db": "dB"}
PER_LAYER_UNITS = {**{k: v[0] for k, v in PER_LAYER.items()}, **QUALITY,
                   "fail_frac": "ratio"}


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "ES_THREADS": os.environ.get("ES_THREADS", "unset"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the pinned value."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return BLAS_THREADS
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                return getattr(lib, sym)()
    return BLAS_THREADS


def import_eulercs():
    """Import eulercs from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import eulercs
    import eulercs.cli  # noqa: F401
    if not os.path.abspath(eulercs.__file__).startswith(src + os.sep):
        raise ImportError(f"eulercs imported from {eulercs.__file__}, not {src}")


# ---------------------------------------------------------------------------

class Pass:
    """Latencies, canonical outputs and problems of one pass of ops.

    `latencies` are wall times; `adjusted` scales each by the speed
    probe's factor around it (see speed.py).
    """

    def __init__(self):
        self.latencies, self.adjusted = [], []
        self.canonical, self.problems, self.outputs = [], [], {}


def run_pass(workload, probe, tracer=None, first=False):
    p = Pass()
    stamps = []
    for op in workload.ops():
        if probe.due():
            probe.sample()
        out, problems = None, []
        if tracer:
            tracer.begin_op()
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:        # an op that raises is a failed op
            problems = [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter_ns()
        latency = tracer.end_op() if tracer else (t1 - t0) / 1e9
        if problems:
            text = problems[0]
        else:
            try:
                text, problems = op.inspect(out, first)
            except Exception as exc:    # a check that cannot run has failed
                text, problems = "", [f"check raised {type(exc).__name__}: {exc}"]
        p.latencies.append(latency)
        p.canonical.append((op.name, text))
        p.problems.append(problems)
        p.outputs[op.name] = out
        stamps.append((t0, t1))
    probe.sample()
    p.adjusted = [lat * probe.factor(t0, t1) for lat, (t0, t1) in zip(p.latencies, stamps)]
    return p


def digest(p):
    """SHA-256 of the pass's canonical report: op names and outputs."""
    return hashlib.sha256(json.dumps(p.canonical).encode()).hexdigest()


def measure(workload, probe, seconds, traced):
    """Run passes for about `seconds`.

    With `traced`, each round runs a traced pass and then a plain one, so
    both see the same machine state; the traced pass goes first so that
    it sees the process's memory growth.
    """
    tracer = Tracer() if traced else None
    plain, with_trace = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                with_trace.append(run_pass(workload, probe, tracer,
                                           first=not with_trace))
            finally:
                tracer.uninstall()
        plain.append(run_pass(workload, probe, first=not (plain or with_trace)))
        for p in plain[1:] + with_trace[1:]:
            p.outputs = {}              # only first passes feed the figures
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    passes = with_trace[:1] + plain + with_trace[1:]
    reference = passes[0].canonical
    for p in passes[1:]:
        for i, (name, text) in enumerate(p.canonical):
            if text != reference[i][1]:
                p.problems[i].append(f"{name}: output differs from the first pass")
    return plain, with_trace, tracer


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, or None with too few samples."""
    n = len(latencies)
    pct = int(100 * (n - 10) / n) if n > 10 else 0
    if pct < 50:
        return None
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def metrics_plain(plain, setup_s, adjusted=True):
    lat = [x for p in plain for x in (p.adjusted if adjusted else p.latencies)]
    return {"setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def metrics_traced(workload, plain, with_trace, tracer, probe, quality, fail_frac):
    n = len(with_trace)
    table = tracer.span_table()
    values = {name: fn(table, tracer.counts, n)
              for name, (unit, fn) in PER_LAYER.items() if fn}
    values.update({name: 0.0 for name, (unit, fn) in PER_LAYER.items() if not fn})
    values.update(workload.trace_metrics(with_trace[0].outputs, table, n))
    off = sum(sum(p.adjusted) for p in plain[:n])
    on = sum(sum(p.adjusted) for p in with_trace)
    values["trace_overhead_pct"] = 100.0 * (1.0 - off / on)
    values["bench.probe_ms"] = statistics.median(probe.values) * 1e3
    values.update({name: 0.0 for name in QUALITY})
    values.update(quality)
    values["fail_frac"] = fail_frac
    return values


def self_time_gap_ns(tracer):
    """Op wall time not covered by the self times of all spans; 0 when
    every span nests inside its op."""
    table = tracer.span_table()
    return abs(table[ROOT_SPAN][1] - sum(row[2] for row in table.values()))


def run_workload(name, seed, seconds, traced, size="full", out_dir=OUT_DIR,
                 import_s=0.0):
    """Run one workload; returns (result line dict, details dict).

    `import_s`, the time the caller took to import eulercs, is part of
    setup_s.
    """
    from workloads import WORKLOADS     # imports eulercs, found via import_eulercs()
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    from speed import SpeedProbe        # imports numpy, after the BLAS pin
    workload = WORKLOADS[name](seed, workdir, size)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        probe = SpeedProbe()
        probe.sample()
        setup_raw = import_s + statistics.median(setups)
        setup_s = setup_raw * probe.factor(0, 0)
        plain, with_trace, tracer = measure(workload, probe, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + with_trace
    attempted = sum(len(p.problems) for p in passes)
    failed = sum(1 for p in passes for probs in p.problems if probs)
    problems = [msg for p in passes for probs in p.problems for msg in probs]
    quality = workload.quality(plain[0].outputs)
    details = {"workload": name, "seed": seed, "trace": int(traced),
               "environment": environment(),
               "report_sha256": digest(plain[0]),
               "traced_report_sha256": digest(with_trace[0]) if traced else None,
               "setup_runs_s": setups, "passes": len(plain), "quality": quality,
               "problems": problems[:20]}
    if traced:
        metrics = metrics_traced(workload, plain, with_trace, tracer, probe,
                                 quality, failed / attempted)
        gap = self_time_gap_ns(tracer)
        details["self_time_gap_ns"] = gap
        if gap:
            problems.append(f"span self times miss {gap} ns of op wall time")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{name}.jsonl"))
        units = PER_LAYER_UNITS
    else:
        metrics = metrics_plain(plain, setup_s)
        details["unadjusted"] = metrics_plain(plain, setup_raw, adjusted=False)
        details["probe_ms"] = [v * 1e3 for v in probe.values]
        lat = [x for p in plain for x in p.adjusted]
        details["ops"] = len(lat)
        details["op_latencies_s"] = {name: [p.latencies[i] for p in plain]
                                     for i, (name, _) in enumerate(plain[0].canonical)}
        details["op_adjusted_s"] = {name: [p.adjusted[i] for p in plain]
                                    for i, (name, _) in enumerate(plain[0].canonical)}
        if tail(lat):
            pct, value = tail(lat)
            details["op_tail_ms"] = {"percentile": pct, "value": value * 1e3,
                                     "samples": len(lat)}
        units = END_TO_END
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    return result, details


def main(argv=None, import_s=0.0):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("sweep", "phase", "construct_verify", "imaging"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="time the one-shot reference configurations")
    args = parser.parse_args(argv)
    if not args.baseline and not args.workload:
        parser.error("--workload is required")

    if args.baseline:
        import baseline
        return baseline.main(ROOT)
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), import_s=import_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump({**details, "result": result}, f, indent=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print(f"report_sha256 {details['report_sha256']}")
    for key, value in sorted(details["quality"].items()):
        print(f"quality {key} {value!r}")
    if details.get("op_tail_ms"):
        t = details["op_tail_ms"]
        print(f"op_tail_ms p{t['percentile']} {t['value']:.3f} ms over {t['samples']} ops")
    for key, value in details.get("unadjusted", {}).items():
        print(f"unadjusted {key} {value!r}")
    for msg in details["problems"]:
        print(f"problem {msg}")
    for key, m in result["metrics"].items():
        print(f"metric {key} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_ENV:                # one BLAS thread, set before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("ES_THREADS", None)
    t_import = time.perf_counter()
    try:
        import_eulercs()
    except ImportError as exc:
        print(f"error: cannot import eulercs from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(import_s=time.perf_counter() - t_import))
