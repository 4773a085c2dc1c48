"""Experiment harness: success-rate sweeps, phase transition, patch recon.

Every trial draws its signal from a substream keyed by (master seed,
level, trial index), so a report is fully determined by its config.
Each batch of trials, and each recon image, is one recovery.recover call.
A trial succeeds when its SNR reaches SUCCESS_DB.  Reports carry raw
success counts next to percentages so statistical re-tests do not have
to re-run the solver.

Sweep levels and phase row sizes are shared among forked workers, one
per CPU in the process's affinity mask (_fan_out).  Each level and row
size runs exactly the calls a serial loop runs, so a report does not
depend on the CPU count.
"""

import json
import math
import os
import pickle
import re
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import recovery
from .construct import (build_binary_matrix, build_extended, build_for_row_size,
                        build_ternary)
from .errors import EulerCSError, Infeasible, InvalidInput, ParseError
from .euler import euler_square
from .imaging import haar_forward, haar_inverse, patchify, unpatchify

# "2": OMP breaks exact score ties toward the lowest column index, where
# rounding used to decide them.  Sweep and phase rows are unchanged on
# every acceptance config; recon SNRs move where patches have tied picks.
# "3": OMP's estimate is the coefficient vector its inverse Gram already
# holds, not a final least-squares refit.  Sweep and phase rows are
# unchanged; recon SNRs move in their last digits.
# "4": basis pursuit is the exact l1 homotopy instead of an ADMM that
# stopped near 80 dB, so BP rows now reach SUCCESS_DB.  OMP rows are
# unchanged.
# "5": every patch takes its full Haar depth, so the recon config has no
# "levels" entry.  Every row is unchanged.
REPORT_VERSION = "5"

SUCCESS_DB = 100.0      # recovery.snr at which a trial succeeds

# Deterministic family -> (the provenance line its construction writes, as a
# pattern grouping every number, named when it is a MatrixSpec field; the builder).
_FAMILIES = {
    "euler": (r"euler n=(?P<n>\d+) k=(?P<k>\d+)",
              lambda s: build_binary_matrix(euler_square(s.n, s.k))),
    "rows": (r"rows m=(?P<row_size>\d+) via euler n=(\d+) k=(\d+)",
             lambda s: build_for_row_size(s.row_size)),
    "extended": (r"extended n=(?P<n>\d+) k=(\d+) stages=(\d+)",
                 lambda s: build_extended(s.n)[0]),
    "ternary": (r"ternary p=(?P<p>\d+) i=(?P<i>\d+) j=(?P<j>\d+) hadamard=(\d+)",
                lambda s: build_ternary(s.p, s.i, s.j)),
}

# Random family -> its generator, called with (m, M, seed).
_RANDOM_FAMILIES = {"gaussian": recovery.gen_gaussian_matrix,
                    "bernoulli": recovery.gen_bernoulli_matrix}


@dataclass(frozen=True)
class MatrixSpec:
    """One matrix source: a deterministic construction or a seeded draw."""
    family: str                 # euler | rows | extended | ternary | gaussian | bernoulli
    n: int = None
    k: int = None
    row_size: int = None        # for family == "rows"
    m: int = None               # explicit shape for random families
    M: int = None
    p: int = None               # ternary parameters
    i: int = None
    j: int = None
    seed: int = None

    @classmethod
    def from_provenance(cls, text: str):
        """The spec a construction's provenance line names.

        Returns None when the first token is not a deterministic family;
        raises ParseError when it is one but the line has another form or
        a number too long to read.
        """
        family = (text.split() or [""])[0]
        if family not in _FAMILIES:
            return None
        match = re.fullmatch(_FAMILIES[family][0], text, re.ASCII)
        if match is None:
            raise ParseError(f"provenance {text!r} is not a well-formed {family} line")
        try:
            numbers = [int(v) for v in match.groups()]
        except ValueError:      # more digits than int() converts
            raise ParseError(f"provenance {family} line has a number too long to read") from None
        return cls(family=family, **{f: numbers[g - 1] for f, g in match.re.groupindex.items()})

    @classmethod
    def of_shape(cls, family: str, m: int, M: int, seed=None):
        """The m x M matrix of `family`: a gaussian or bernoulli draw seeded
        by `seed`, or the index (sqrt(M), m/sqrt(M)) euler square."""
        if m < 1 or M < 1:
            raise InvalidInput(f"matrix shape {m}x{M} needs m >= 1 and M >= 1")
        if family in ("gaussian", "bernoulli"):
            return cls(family=family, m=m, M=M, seed=_check_seed(seed))
        if family != "euler":
            raise InvalidInput(f"no {family!r} matrix of a given shape")
        n = math.isqrt(M)
        if n * n != M or m % n:
            raise Infeasible(f"no euler matrix is {m}x{M}: the index "
                             f"(n, k) square is nk x n*n")
        return cls(family="euler", n=n, k=m // n)


def _check_seed(seed):
    """seed, refused with InvalidInput where numpy would refuse it with a
    raw ValueError: an integer, or a part of a tuple seed, below 0."""
    if any(part is not None and part < 0
           for part in (seed if isinstance(seed, tuple) else (seed,))):
        raise InvalidInput(f"seed {seed} must be >= 0")
    return seed


def make_matrix(spec: MatrixSpec):
    """The measurement matrix a MatrixSpec names, the one way a spec is
    built: the SensingMatrix of a deterministic family's construction,
    whose supports OMP scores, or a read-only float array for gaussian
    and bernoulli; copy the array to write.  Either has .shape and
    measures by `A @ x`.  Any other family, a spec with a field its
    family needs unset (m and M for a random family, the fields of a
    deterministic family's provenance pattern), or a random spec that
    MatrixSpec.of_shape refuses raises InvalidInput."""
    if spec.family in _RANDOM_FAMILIES:
        needed = ("m", "M")
    elif spec.family in _FAMILIES:
        needed = re.compile(_FAMILIES[spec.family][0]).groupindex
    else:
        raise InvalidInput(f"{spec.family!r} is not a matrix family")
    for name in needed:
        if getattr(spec, name) is None:
            raise InvalidInput(f"the {spec.family} family needs {name} set")
    if spec.family in _FAMILIES:
        return _FAMILIES[spec.family][1](spec)
    MatrixSpec.of_shape(spec.family, spec.m, spec.M, spec.seed)     # size and seed rules
    A = _RANDOM_FAMILIES[spec.family](spec.m, spec.M, spec.seed)
    A.flags.writeable = False
    return A


@dataclass
class SweepConfig:
    matrix: MatrixSpec
    sparsity_levels: tuple
    trials: int = 1000
    solver: str = "omp"
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidInput("trials must be >= 1")
        if not self.sparsity_levels:
            raise InvalidInput("need at least one sparsity level")
        if self.solver not in recovery.SOLVERS:
            raise InvalidInput(f"unknown solver {self.solver!r}")
        _check_seed(self.master_seed)


@dataclass(eq=False)
class ExperimentReport:
    kind: str
    config: dict
    rows: list
    wall_clock: float = 0.0     # informational; excluded from the canonical record

    def to_json(self) -> str:
        record = {"version": REPORT_VERSION, "kind": self.kind,
                  "config": self.config, "rows": self.rows}
        return json.dumps(record, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        keys = list(self.rows[0].keys())
        lines = [",".join(keys)]
        for row in self.rows:
            lines.append(",".join(repr(row[key]) if isinstance(row[key], float)
                                  else str(row[key]) for key in keys))
        return "\n".join(lines) + "\n"


def _cpus():
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(fn, items, share):
    """{index: fn(items[index])} over `share` in index order, and the
    (index, exception) that stopped it, or None."""
    results = {}
    for i in sorted(share):
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fan_out(fn, items, cost):
    """[fn(x) for x in items], the items spread over every CPU.

    The items are dealt, largest cost(x) first, to the least-loaded of
    min(CPUs, len(items)) shares.  This process runs share 0; every
    other share runs in an os.fork() child, which pickles its results,
    or the exception that stopped it, into a pipe.  A child always ends
    in os._exit, so it never returns into the caller and never flushes
    the stdio buffers it inherited.  Every pipe is read to EOF and
    every child reaped, even when share 0 raised.  Then the failure of
    the lowest-indexed item, the one a serial loop would meet first, is
    raised; a child that ended without a result raises EulerCSError.
    Forking is safe while the process runs no other thread, and the
    package starts none.
    """
    items = list(items)
    shares = [[] for _ in range(min(_cpus(), len(items)) or 1)]
    loads = [0] * len(shares)
    for i in sorted(range(len(items)), key=lambda i: -cost(items[i])):
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += cost(items[i])
    children, ended, outcomes = [], [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(_run_share(fn, items, share), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        outcomes.append(_run_share(fn, items, shares[0]))
    finally:
        for pid, read_fd, share in children:
            with os.fdopen(read_fd, "rb") as pipe:
                payload = pipe.read()
            ended.append((pid, os.waitpid(pid, 0)[1], payload, share))
    for pid, status, payload, share in ended:
        status = os.waitstatus_to_exitcode(status)
        if status == 0:
            outcomes.append(pickle.loads(payload))
        else:
            outcomes.append(({}, (min(share), EulerCSError(
                f"worker {pid} ended with status {status} and no result"))))
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {i: value for done, _ in outcomes for i, value in done.items()}
    return [results[i] for i in range(len(items))]


def _trial_outcomes(A, k, solver, seeds):
    """Whether each seed's k-sparse trial reaches SUCCESS_DB."""
    signals = [recovery.gen_sparse_signal(A.shape[1], k, s) for s in seeds]
    results = recovery.recover(A, np.stack([A @ x for x in signals]), k, solver)
    return [recovery.snr(x, result.estimate) >= SUCCESS_DB
            for x, result in zip(signals, results)]


def run_sweep(cfg: SweepConfig) -> ExperimentReport:
    """Success percentage per sparsity level (SNR >= SUCCESS_DB counts).

    Every level is checked against 1..min(m, M) before any trial runs;
    the levels then run through _fan_out, each costed by its sparsity.
    """
    t0 = time.perf_counter()
    A = make_matrix(cfg.matrix)
    top = min(A.shape)
    for level in cfg.sparsity_levels:
        if not 1 <= level <= top:
            raise InvalidInput(f"sparsity level {level} outside 1..{top}")

    def level_row(level):
        successes = sum(_trial_outcomes(A, level, cfg.solver,
                                        [(cfg.master_seed, level, t)
                                         for t in range(cfg.trials)]))
        return {"k": int(level), "successes": int(successes),
                "trials": cfg.trials,
                "success_pct": 100.0 * successes / cfg.trials}

    rows = _fan_out(level_row, cfg.sparsity_levels, cost=lambda level: level)
    report = ExperimentReport(kind="sweep",
                              config={**asdict(cfg), "threshold_db": SUCCESS_DB},
                              rows=rows)
    report.wall_clock = time.perf_counter() - t0
    return report


def _level_reaches_fraction(A, k, solver, fraction, seeds):
    """Exact early-exit decision: would all of `seeds` reach the fraction?

    Trials run in chunks of the fewest trials after which the decision
    could become fixed, so exactly the trials a one-by-one scan would
    run are run.
    """
    need = math.ceil(fraction * len(seeds))
    allowed_failures = len(seeds) - need
    successes = failures = done = 0
    while done < len(seeds):
        # the bound is not positive for a fraction of 0 or above 1
        chunk = max(1, min(need - successes, allowed_failures + 1 - failures))
        hits = sum(_trial_outcomes(A, k, solver, seeds[done:done + chunk]))
        successes += hits
        failures += chunk - hits
        if hits and successes >= need:
            return True
        if failures > allowed_failures:
            return False
        done += chunk
    return successes >= need


def run_phase_transition(M: int, row_sizes, fraction: float = 0.9,
                         trials: int = 1000, solver: str = "omp",
                         master_seed: int = 0, family: str = "euler") -> ExperimentReport:
    """Largest sparsity reaching the success fraction at SUCCESS_DB, per row size.

    Emits one (m/M, k/M) point per row size, on MatrixSpec.of_shape(family,
    m, M, (master_seed, m)); every shape is checked before any trial runs.
    The row sizes then run through _fan_out, each costed by m and
    building its own matrix.  The scan stops at k = min(m, M).
    """
    if not 0.0 <= fraction <= 1.0:
        raise InvalidInput(f"fraction {fraction!r} must lie in [0, 1]")
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if not row_sizes:
        raise InvalidInput("need at least one row size")
    if solver not in recovery.SOLVERS:
        raise InvalidInput(f"unknown solver {solver!r}")
    _check_seed(master_seed)
    specs = [MatrixSpec.of_shape(family, m, M, (master_seed, m)) for m in row_sizes]
    t0 = time.perf_counter()

    def row_scan(shape):
        m, spec = shape
        A = make_matrix(spec)
        k_star = 0
        k = 1
        while k <= min(m, M):
            seeds = [(master_seed, m, k, t) for t in range(trials)]
            if _level_reaches_fraction(A, k, solver, fraction, seeds):
                k_star = k
                k += 1
            else:
                break
        return {"m": int(m), "delta": m / M,
                "k_star": int(k_star), "k_frac": k_star / M}

    rows = _fan_out(row_scan, zip(row_sizes, specs), cost=lambda shape: shape[0])
    report = ExperimentReport(kind="phase",
                              config={"M": M, "row_sizes": list(row_sizes),
                                      "fraction": fraction, "trials": trials,
                                      "solver": solver, "family": family,
                                      "threshold_db": SUCCESS_DB,
                                      "master_seed": master_seed},
                              rows=rows)
    report.wall_clock = time.perf_counter() - t0
    return report


def run_patch_reconstruction(image: np.ndarray, Phi, patch: int,
                             solver: str = "omp"):
    """Compress every patch through Phi, a SensingMatrix or a float
    array, and reconstruct it back.

    The patch stack is Haar-transformed in one call, every patch is
    measured as y = Phi @ w, one recovery.recover call of m // 2 atoms
    recovers all the w, and one inverse transform turns them back into
    patches for reassembly.  Returns the reconstructed image and a
    report with the whole-image SNR and the down-sampling factor M/m.
    """
    t0 = time.perf_counter()
    m, M = Phi.shape
    if M != patch * patch:
        raise EulerCSError(f"matrix has {M} columns, patch {patch} needs {patch * patch}")
    grid, patches = patchify(image, patch)
    K = m // 2
    # one product per patch: a single Phi @ W.T need not round the same way
    Y = np.stack([Phi @ w for w in haar_forward(patches)])
    results = recovery.recover(Phi, Y, K, solver)
    recon = unpatchify(grid, haar_inverse(np.stack([r.estimate for r in results])))
    snr_db = recovery.snr(np.asarray(image, float).ravel(), recon.ravel())
    report = ExperimentReport(
        kind="recon",
        config={"patch": patch, "solver": solver,
                "m": int(m), "M": int(M), "max_atoms": K},
        rows=[{"snr_db": snr_db, "downsampling_factor": M / m,
               "patches": grid.num_patches}])
    report.wall_clock = time.perf_counter() - t0
    return recon, report
