import inspect
import math
import os
import pickle
import re

import numpy as np
import pytest

from eulercs import errors, experiments, recovery
from eulercs.construct import build_binary_matrix
from eulercs.errors import (ConvergenceFailure, EulerCSError, Infeasible,
                            InvalidInput, ParseError)
from eulercs.euler import euler_square
from eulercs.experiments import (MatrixSpec, SweepConfig, _level_reaches_fraction,
                                 _trial_outcomes, make_matrix,
                                 run_patch_reconstruction,
                                 run_phase_transition, run_sweep)
from eulercs.imaging import (PatchGrid, haar_forward, haar_inverse, patchify,
                             unpatchify)
from eulercs.recovery import RecoveryResult


def small_sweep(seed=7, trials=25, levels=(1, 2, 3)):
    return SweepConfig(matrix=MatrixSpec(family="euler", n=11, k=5),
                       sparsity_levels=levels, trials=trials,
                       master_seed=seed)


def test_sweep_within_guarantee_is_perfect():
    report = run_sweep(small_sweep(levels=(1, 2)))
    assert all(row["success_pct"] == 100.0 for row in report.rows)


def test_sweep_deep_sparsity_fails():
    report = run_sweep(SweepConfig(matrix=MatrixSpec(family="euler", n=11, k=5),
                                   sparsity_levels=(55,), trials=25,
                                   master_seed=3))
    assert report.rows[0]["success_pct"] <= 5.0


def test_sweep_gaussian_baseline_runs():
    report = run_sweep(SweepConfig(
        matrix=MatrixSpec(family="gaussian", m=20, M=40, seed=1),
        sparsity_levels=(1, 2), trials=10, master_seed=0))
    assert len(report.rows) == 2
    assert all(0 <= row["success_pct"] <= 100 for row in report.rows)


def test_sweep_byte_identical_reports():
    a = run_sweep(small_sweep()).to_json()
    b = run_sweep(small_sweep()).to_json()
    assert a == b
    assert run_sweep(small_sweep(seed=8)).to_json() != a


def test_sweep_report_has_raw_counts():
    report = run_sweep(small_sweep(trials=10, levels=(1,)))
    row = report.rows[0]
    assert row["successes"] == 10 and row["trials"] == 10
    assert "success_pct,successes" not in report.to_csv().splitlines()[0]
    assert report.to_csv().splitlines()[0] == "k,successes,trials,success_pct"


def test_sweep_rejects_bad_level():
    with pytest.raises(InvalidInput):
        run_sweep(small_sweep(levels=(56,)))


def test_sweep_checks_every_level_before_any_trial(monkeypatch):
    # a level runs to min(m, M): a 20 x 10 draw takes none above 10
    monkeypatch.setattr(recovery, "recover", lambda *a: pytest.fail("solver ran"))
    cfg = SweepConfig(matrix=MatrixSpec.of_shape("gaussian", 20, 10, 0),
                      sparsity_levels=(1, 2, 15), trials=2)
    with pytest.raises(InvalidInput, match=r"^sparsity level 15 outside 1\.\.10$"):
        run_sweep(cfg)


def test_sweep_monotone_trend_with_tolerance():
    report = run_sweep(SweepConfig(
        matrix=MatrixSpec(family="euler", n=11, k=5),
        sparsity_levels=tuple(range(1, 41)), trials=100, master_seed=11))
    pcts = [row["success_pct"] for row in report.rows]
    # endpoints: perfect within the guarantee, hopeless near full density
    assert pcts[0] == 100.0
    assert pcts[-1] <= 10.0
    # any local inversion is sampling noise, bounded well below the trend
    inversions = [b - a for a, b in zip(pcts, pcts[1:]) if b > a]
    assert all(gap <= 10.0 for gap in inversions)
    # averaged over 3-level windows the curve is non-increasing
    smooth = [sum(pcts[i:i + 3]) / 3 for i in range(len(pcts) - 2)]
    assert all(b <= a + 5.0 for a, b in zip(smooth, smooth[1:]))


def test_solver_flag_basis_pursuit():
    report = run_sweep(SweepConfig(matrix=MatrixSpec(family="euler", n=5, k=2),
                                   sparsity_levels=(1,), trials=5,
                                   solver="bp", master_seed=0))
    assert report.rows[0]["success_pct"] == 100.0


def test_make_matrix_families():
    assert make_matrix(MatrixSpec(family="euler", n=3, k=2)).shape == (6, 9)
    assert make_matrix(MatrixSpec(family="rows", row_size=12)).shape == (12, 16)
    assert make_matrix(MatrixSpec(family="extended", n=12)).shape == (24, 162)
    assert make_matrix(MatrixSpec(family="ternary", p=5, i=1, j=1)).shape == (20, 100)
    with pytest.raises(InvalidInput):
        make_matrix(MatrixSpec(family="unknown"))


@pytest.mark.parametrize("spec", [
    MatrixSpec(family="euler", n=3, k=2),
    MatrixSpec(family="gaussian", m=6, M=9, seed=0),
    MatrixSpec(family="bernoulli", m=6, M=9, seed=0),
])
def test_make_matrix_is_read_only_for_every_family(spec):
    A = make_matrix(spec)
    with pytest.raises(ValueError):
        A[0, 0] = 1.0


@pytest.mark.parametrize("spec", [
    MatrixSpec(family="euler", n=11, k=5),
    MatrixSpec(family="rows", row_size=60),
    MatrixSpec(family="extended", n=12),
    MatrixSpec(family="ternary", p=5, i=1, j=1),
], ids=lambda spec: spec.family)
def test_provenance_names_its_spec(spec):
    assert MatrixSpec.from_provenance(spec.build().provenance) == spec


def test_from_provenance_unknown_and_malformed():
    assert MatrixSpec.from_provenance("unknown") is None
    assert MatrixSpec.from_provenance("") is None
    for text in ("rows m=60 via euler n=20", "ternary p=5 i=1 j=1",
                 "extended n=12 k=2 stages=one"):
        with pytest.raises(ParseError):
            MatrixSpec.from_provenance(text)
    with pytest.raises(InvalidInput):
        MatrixSpec(family="gaussian", m=4, M=8, seed=0).build()


def test_phase_transition_small():
    report = run_phase_transition(121, [22, 33], trials=20, master_seed=7)
    assert [row["m"] for row in report.rows] == [22, 33]
    assert report.rows[0]["delta"] == pytest.approx(22 / 121)
    ks = [row["k_star"] for row in report.rows]
    assert ks[0] <= ks[1]
    assert all(row["k_frac"] == pytest.approx(row["k_star"] / 121)
               for row in report.rows)


def _sequential_decision(A, k, fraction, seeds):
    """The early-exit rule applied one trial at a time."""
    need = math.ceil(fraction * len(seeds))
    successes = failures = 0
    for seed in seeds:
        if _trial_outcomes(A, k, "omp", [seed])[0]:
            successes += 1
            if successes >= need:
                return True
        else:
            failures += 1
            if failures > len(seeds) - need:
                return False
    return successes >= need


# reached early, failed early, decided by the last trial, and the
# one-trial chunks of fractions 0 and 1
@pytest.mark.parametrize("k, fraction", [
    (2, 0.9), (18, 0.9), (21, 0.5), (22, 0.5), (24, 0.5), (27, 0.0), (5, 1.0),
    (30, 1.0),
])
def test_chunked_early_exit_runs_the_sequential_trials(monkeypatch, k, fraction):
    A = make_matrix(MatrixSpec(family="euler", n=11, k=5))
    seeds = [(7, 55, k, t) for t in range(30)]
    drawn = []
    draw = recovery.gen_sparse_signal
    monkeypatch.setattr(recovery, "gen_sparse_signal",
                        lambda M, k, seed: drawn.append(seed) or draw(M, k, seed))
    decision = _level_reaches_fraction(A, k, "omp", fraction, seeds)
    chunked = list(drawn)
    drawn.clear()
    assert decision == _sequential_decision(A, k, fraction, seeds)
    assert chunked == drawn


def test_phase_transition_deterministic():
    a = run_phase_transition(121, [33], trials=20, master_seed=5).to_json()
    b = run_phase_transition(121, [33], trials=20, master_seed=5).to_json()
    assert a == b


def test_phase_transition_single_trial_degenerate():
    report = run_phase_transition(121, [55], fraction=1.0, trials=1,
                                  master_seed=0)
    assert report.rows[0]["k_star"] >= 1


def _no_euler(m, M):
    return "^" + re.escape(f"no euler matrix is {m}x{M}: the index (n, k) "
                           "square is nk x n*n") + "$"


def test_phase_transition_scan_stops_at_column_count():
    # every level of a 20 x 4 draw succeeds, so the scan ends at k = M = 4
    report = run_phase_transition(4, [20], trials=3, family="gaussian")
    assert report.rows == [{"m": 20, "delta": 5.0, "k_star": 4, "k_frac": 1.0}]


def test_phase_transition_rejects_bad_geometry():
    with pytest.raises(Infeasible, match=_no_euler(22, 120)):
        run_phase_transition(120, [22], trials=1)
    with pytest.raises(Infeasible, match=_no_euler(23, 121)):
        run_phase_transition(121, [23], trials=1)


@pytest.mark.parametrize("trials", [0, -3])
def test_phase_transition_rejects_trials_below_one(trials):
    with pytest.raises(InvalidInput, match="trials must be >= 1"):
        run_phase_transition(121, [22], trials=trials)


def test_phase_transition_rejects_empty_row_sizes():
    with pytest.raises(InvalidInput, match="need at least one row size"):
        run_phase_transition(121, [], trials=1)


def test_phase_transition_checks_every_shape_before_any_trial(monkeypatch):
    monkeypatch.setattr(recovery, "recover", lambda *a: pytest.fail("solver ran"))
    with pytest.raises(Infeasible, match=_no_euler(23, 121)):
        run_phase_transition(121, [22, 23], trials=1)


# Each run fans out over several items: sweep levels or phase row sizes.
FAN_OUT_RUNS = {
    "omp_euler_11_5": (8, lambda: run_sweep(small_sweep(trials=10,
                                                        levels=tuple(range(1, 9))))),
    "omp_gaussian_55x121": (8, lambda: run_sweep(SweepConfig(
        MatrixSpec.of_shape("gaussian", 55, 121, 7), tuple(range(1, 9)),
        trials=10, master_seed=7))),
    "bp_euler_11_5": (4, lambda: run_sweep(SweepConfig(
        MatrixSpec(family="euler", n=11, k=5), (1, 2, 4, 8), trials=5,
        solver="bp", master_seed=7))),
    "phase_euler": (3, lambda: run_phase_transition(121, [22, 33, 44], trials=10,
                                                    master_seed=7)),
    "phase_gaussian": (3, lambda: run_phase_transition(
        121, [22, 33, 44], trials=10, master_seed=7, family="gaussian")),
}


@pytest.mark.parametrize("name", FAN_OUT_RUNS)
def test_fan_out_report_does_not_depend_on_the_cpu_count(monkeypatch, name):
    items, run = FAN_OUT_RUNS[name]
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    reports = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
        forks.clear()
        reports[cpus] = run().to_json()
        assert len(forks) == min(cpus, items) - 1
    assert reports[2] == reports[1] and reports[3] == reports[1]


def test_fan_out_forks_nothing_for_one_cpu_or_one_item(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run_sweep(small_sweep(trials=2))
    run_phase_transition(121, [22, 33], trials=2)
    monkeypatch.setattr(experiments, "_cpus", lambda: 3)
    run_sweep(small_sweep(trials=2, levels=(3,)))
    run_phase_transition(121, [33], trials=2)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_fan_out_raises_the_failure_a_serial_loop_meets_first(monkeypatch, cpus):
    # levels 2 and 3 fail: with 2 or 3 CPUs, level 3 fails in this
    # process and level 2 in a worker
    def refuse(A, k, solver, seeds):
        if k > 1:
            raise InvalidInput(f"level {k} refused")
        return [True] * len(seeds)

    monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_trial_outcomes", refuse)
    with pytest.raises(InvalidInput, match="^level 2 refused$"):
        run_sweep(small_sweep(trials=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)      # every worker was reaped


def test_fan_out_worker_without_a_result_raises(monkeypatch):
    parent = os.getpid()

    def die_in_worker(A, k, solver, seeds):
        if os.getpid() != parent:
            os._exit(1)
        return [True] * len(seeds)

    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_trial_outcomes", die_in_worker)
    with pytest.raises(EulerCSError, match="ended with status 1 and no result") as info:
        run_sweep(small_sweep(trials=2))
    assert type(info.value) is EulerCSError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_error_class_survives_pickling():
    result = RecoveryResult(np.array([0.0, 2.5]), [1], 0.25, 7, converged=False)
    raised = [EulerCSError("a"), Infeasible("b"), InvalidInput("c"),
              ParseError("d", line=4), ConvergenceFailure("e", result)]
    assert {type(exc) for exc in raised} == {
        cls for cls in vars(errors).values()
        if inspect.isclass(cls) and issubclass(cls, Exception)}
    for exc in raised:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
    assert pickle.loads(pickle.dumps(raised[3])).line == 4
    back = pickle.loads(pickle.dumps(raised[4])).result
    assert np.array_equal(back.estimate, result.estimate)
    assert (back.support, back.residual_norm, back.iterations, back.converged) == \
        ([1], 0.25, 7, False)


def test_of_shape_euler_is_the_index_square():
    spec = MatrixSpec.of_shape("euler", 55, 121, seed=3)
    assert spec == MatrixSpec(family="euler", n=11, k=5)
    assert make_matrix(spec).shape == (55, 121)


@pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
def test_of_shape_random_families_keep_their_seed(family):
    # any positive shape: the columns need not be a square
    spec = MatrixSpec.of_shape(family, 20, 30, seed=(7, 20))
    assert spec == MatrixSpec(family=family, m=20, M=30, seed=(7, 20))
    assert make_matrix(spec).shape == (20, 30)


@pytest.mark.parametrize("family, m, M", [
    ("rows", 55, 121), ("ternary", 20, 100),
    ("euler", 0, 121), ("euler", 55, 0), ("euler", 22, -4),
    ("gaussian", -2, 10), ("bernoulli", 5, -1),
])
def test_of_shape_rejects_invalid_input(family, m, M):
    with pytest.raises(InvalidInput):
        MatrixSpec.of_shape(family, m, M)


@pytest.mark.parametrize("m, M", [(22, 120), (23, 121)])
def test_of_shape_rejects_shapes_no_euler_square_has(m, M):
    with pytest.raises(Infeasible, match=_no_euler(m, M)):
        MatrixSpec.of_shape("euler", m, M)


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_phase_transition_rejects_bad_fraction(fraction):
    with pytest.raises(InvalidInput):
        run_phase_transition(121, [22], fraction=fraction, trials=1)


def sparse_haar_image(n_patches_side, P, sparsity, seed):
    rng = np.random.default_rng(seed)
    patches = []
    for _ in range(n_patches_side ** 2):
        coeffs = np.zeros(P * P)
        idx = rng.choice(P * P, sparsity, replace=False)
        coeffs[idx] = rng.standard_normal(sparsity) * 10
        patches.append(haar_inverse(coeffs))
    side = n_patches_side * P
    return unpatchify(PatchGrid(side, side, P), np.stack(patches))


def test_patch_reconstruction_within_guarantee():
    # (8, 4) matrix: mu = 1/4, guarantee 2, down-sampling 64/32 = 2
    Phi = build_binary_matrix(euler_square(8, 4))
    image = sparse_haar_image(3, 8, 2, seed=1)
    recon, report = run_patch_reconstruction(image, Phi, 8)
    row = report.rows[0]
    assert row["downsampling_factor"] == pytest.approx(2.0)
    assert row["snr_db"] >= 100.0
    assert np.allclose(recon, image, atol=1e-6)


def test_patch_reconstruction_factor_echo():
    Phi = build_binary_matrix(euler_square(11, 5))
    with pytest.raises(EulerCSError) as exc:
        # 121 columns cannot measure a 16x16 patch
        run_patch_reconstruction(np.zeros((16, 16)), Phi, 16)
    assert type(exc.value) is EulerCSError
    assert str(exc.value) == "matrix has 121 columns, patch 16 needs 256"
    assert Phi.M / Phi.m == pytest.approx(2.2)


def _per_patch_recon(image, A, P, levels, solve):
    """Reference recon: one solver call per patch."""
    grid, patches = patchify(image, P)
    return unpatchify(grid, np.stack([
        haar_inverse(solve(A @ haar_forward(p, levels)).estimate, levels)
        for p in patches]))


@pytest.mark.parametrize("matrix, levels", [
    ("euler_8_4", None), ("euler_8_4", 2), ("gaussian_32x64", None),
], ids=["euler_8_4", "euler_8_4_levels_2", "gaussian_32x64"])
def test_patch_reconstruction_matches_per_patch_omp(matrix, levels):
    A = (build_binary_matrix(euler_square(8, 4)).to_dense().astype(float)
         if matrix == "euler_8_4" else recovery.gen_gaussian_matrix(32, 64, 5))
    rng = np.random.default_rng(3)
    image = np.cumsum(rng.integers(0, 9, (32, 32)), axis=1).astype(float)
    image[:8, :8] = 0.0                 # a patch measured as y = 0
    recon, _ = run_patch_reconstruction(image, A, 8, levels=levels)
    want = _per_patch_recon(image, A, 8, levels,
                            lambda y: recovery.omp_batch(A, y[None], 16)[0])
    assert np.array_equal(recon, want)


def test_patch_reconstruction_bp_matches_per_patch_bp():
    A = build_binary_matrix(euler_square(8, 4)).to_dense().astype(float)
    image = np.random.default_rng(4).integers(0, 256, (16, 16)).astype(float)

    def solve(y):
        try:
            return recovery.basis_pursuit(A, y)
        except ConvergenceFailure as exc:
            return exc.result

    recon, report = run_patch_reconstruction(image, A, 8, solver="bp")
    assert np.array_equal(recon, _per_patch_recon(image, A, 8, None, solve))
    assert report.config["solver"] == "bp"
