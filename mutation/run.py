"""Mutation checks: every planted fault must fail the tests named for it.

    python3 mutation/run.py

Each mutant is a text substitution in one file of the checkout plus the
test ids that should catch it. The runner first runs every mutant's ids on
an unchanged copy, which must pass. Then, for each mutant, it copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
makes the substitution (its old text must occur exactly once) and runs the
ids there with ``pytest -x``. The mutant is killed when a test fails and
survives when they all pass; any other pytest outcome is an error.
Pytest runs with plain asserts: a verdict reads only the exit code, and
rewriting the asserts of some 80 plugin modules took most of each start.
The exit status is 1 when a mutant survives or errs, or the unchanged copy
fails, and 0 otherwise.

Plain Python and the test suite's own packages; pytest does not collect
this directory. Add a mutant here with every test that is meant to catch a
fault, so a later change that drops the test shows up as a survivor.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant(
        name="tail-block",
        file="src/kbstab/functionals.py",
        old="    for start in range(0, B, step):",
        new="    for start in range(0, B - B % step, step):",
        tests=("tests/test_filters.py::TestPathBlocks::test_block_boundaries_change_no_bit",
               "tests/test_filters.py::TestStepCost::test_blocked_step_evaluates_each_point_once"),
    ),
    Mutant(
        name="block-bound-plus-one-path",
        file="src/kbstab/functionals.py",
        old="    step = max(1, BLOCK_COORDS // (rule.size * d))",
        new="    step = max(1, BLOCK_COORDS // (rule.size * d)) + 1",
        tests=("tests/test_filters.py::TestStepCost::test_blocked_step_evaluates_each_point_once",),
    ),
    Mutant(
        name="block-bound-above-mmap-threshold",
        file="src/kbstab/functionals.py",
        old="BLOCK_COORDS = 15 * 1024",
        new="BLOCK_COORDS = 2**17",
        tests=("tests/test_filters.py::TestStepCost::test_block_arrays_stay_below_the_mmap_threshold",
               "tests/test_filters.py::TestStepCost::test_warm_adf_run_takes_no_page_faults"),
    ),
    Mutant(
        name="root-transposed-in-points-gemm",
        file="src/kbstab/functionals.py",
        old="rows = np.ascontiguousarray(L.transpose(0, 2, 1))",
        new="rows = np.ascontiguousarray(L.transpose(1, 2, 0))",
        tests=("tests/test_functionals.py::TestSigmaPoints::test_points_are_the_state_plus_the_root_times_each_node",),
    ),
    Mutant(
        name="points-handed-over-path-major",
        file="src/kbstab/functionals.py",
        old="    return pts.transpose(1, 2, 0)",
        new="    return np.swapaxes(np.ascontiguousarray(pts.transpose(1, 0, 2)), -1, -2)",
        tests=("tests/test_filters.py::TestStepCost::test_field_reads_each_coordinate_contiguously[ukf-cont]",),
    ),
    Mutant(
        name="sigma-points-held-through-the-reductions",
        file="src/kbstab/functionals.py",
        old="        vals = _field_at(g, _sigma_points(rule, x[blk], L[..., blk]))\n",
        new="        pts = _sigma_points(rule, x[blk], L[..., blk])\n        vals = _field_at(g, pts)\n",
        tests=("tests/test_functionals.py::TestSigmaPoints::test_ukf_step_holds_few_block_arrays",),
    ),
    Mutant(
        name="jacobian-transposed-in-batch-last-JP",
        file="src/kbstab/functionals.py",
        old="J = np.ascontiguousarray(_batch_last(check_field(\"jac_f\", jac(x), x.shape + x.shape[-1:])))",
        new="J = np.ascontiguousarray(check_field(\"jac_f\", jac(x), x.shape + x.shape[-1:]).transpose(2, 1, 0))",
        tests=("tests/test_filters.py::TestBatchFirstReference::test_per_path_errors_match_the_batch_first_step",
               "tests/test_functionals.py::TestRiccatiContinuous::test_affine_gives_AP"),
    ),
    Mutant(
        name="recurrence-divides-by-pivot",
        file="src/kbstab/quadrature.py",
        old="np.multiply(col[1:], np.reciprocal(l_jj), out=L[j + 1:, j])",
        new="np.divide(col[1:], l_jj, out=L[j + 1:, j])",
        tests=("tests/test_quadrature.py::TestCholeskyRecurrence::test_factors_equal_lapack_bit_for_bit[2]",),
    ),
    Mutant(
        name="recurrence-zero-pivot-passes",
        file="src/kbstab/quadrature.py",
        old="return L, low <= 0.0",
        new="return L, low < 0.0",
        tests=("tests/test_quadrature.py::TestCholeskyRecurrence::test_failure_set_equals_lapack[2]",),
    ),
    Mutant(
        name="recurrence-pivot-minimum-keeps-nan",
        file="src/kbstab/quadrature.py",
        old="low = np.fmin(low, pivot) if j else pivot",
        new="low = np.minimum(low, pivot) if j else pivot",
        tests=("tests/test_quadrature.py::TestCholeskyRecurrence::test_nan_pivot_fails_only_after_a_failed_one[2]",),
    ),
    Mutant(
        name="recurrence-overflow-warns",
        file="src/kbstab/quadrature.py",
        old='@np.errstate(over="ignore", invalid="ignore", divide="ignore")',
        new='@np.errstate(invalid="ignore", divide="ignore")',
        tests=("tests/test_quadrature.py::TestCholeskyRecurrence::test_overflowing_inner_product_fails_quietly",),
    ),
    Mutant(
        name="recurrence-transposed-index-in-inner-product",
        file="src/kbstab/quadrature.py",
        old="acc += L[j:, k] * L[j, k]",
        new="acc += L[j:, k] * L[k, j]",
        tests=("tests/test_quadrature.py::TestCholeskyRecurrence::test_factors_within_roundoff_of_lapack[3]",),
    ),
    Mutant(
        name="discrete-set-at-the-continuous-seed",
        file="src/kbstab/cli.py",
        old='("disc", check_assumption_discrete, (jf,), seed + 1)',
        new='("disc", check_assumption_discrete, (jf,), seed)',
        tests=("tests/test_cli.py::TestValidate::test_assumption_check_details_at_seed_7",),
    ),
    Mutant(
        name="each-check-draws-its-own-set",
        file="src/kbstab/cli.py",
        old="check(F, f, *constants, inputs=inputs)",
        new="check(F, f, *constants, inputs=assumption_inputs(dim, samples, set_seed))",
        tests=("tests/test_cli.py::TestValidate::test_assumption_checks_draw_each_set_once",),
    ),
    Mutant(
        name="certificate-kind-inverted",
        file="src/kbstab/stability.py",
        old='config.functional.kind == "ekf"',
        new='config.functional.kind != "ekf"',
        tests=("tests/test_stability.py::TestCertificateKindFromConfig::test_consistency_constant_is_zero_exactly_for_ekf",),
    ),
    Mutant(
        name="certificate-noise-unchecked",
        file="src/kbstab/stability.py",
        old='_constants = ("lam", "lambda_P", "T", "C_lambda", "u", "rho", "C_T", "e_T_sq")',
        new='_constants = ("lam", "lambda_P", "T", "C_lambda", "rho", "C_T", "e_T_sq")',
        tests=("tests/test_stability.py::TestContinuousBounds::test_constant_that_is_not_finite_named",),
    ),
    Mutant(
        name="export-drops-the-asymptote",
        file="src/kbstab/stability.py",
        old='self._constants + ("mse_asymptote", "provenance") + self._flags',
        new='self._constants + ("provenance",) + self._flags',
        tests=("tests/test_pinned_outputs.py::test_certify_report_is_pinned",),
    ),
    Mutant(
        name="inflation-floor-from-the-model-noise",
        file="src/kbstab/stability.py",
        old="q_min = float(np.linalg.eigvalsh(config.Q_tuned)[0])",
        new="q_min = float(np.linalg.eigvalsh(model.Q)[0])",
        tests=("tests/test_stability.py::TestInflation::test_closed_form_when_drift_neutral",),
    ),
    Mutant(
        name="initial-gap-without-the-filter-start",
        file="src/kbstab/stability.py",
        old="    gap = model.mu0 - config.x0_hat",
        new="    gap = model.mu0",
        tests=("tests/test_stability.py::TestDiscreteCertificate::test_initial_error_is_bound_at_build",),
    ),
    Mutant(
        name="initial-root-from-the-trace",
        file="src/kbstab/stability.py",
        old="math.sqrt(float(np.linalg.norm(model.Sigma0, 2)))",
        new="math.sqrt(float(np.trace(model.Sigma0)))",
        tests=("tests/test_stability.py::TestDiscreteCertificate::test_initial_error_is_bound_at_build",),
    ),
    Mutant(
        name="discrete-trace-bound-without-P0",
        file="src/kbstab/stability.py",
        old="lambda_P_upd = max(float(np.trace(config.P0)), cap)",
        new="lambda_P_upd = cap",
        tests=("tests/test_stability.py::TestDiscreteCertificateEnsemble::test_trace_stays_under_update_bound[linear-ekf]",),
    ),
    Mutant(
        name="discrete-trace-cap-per-axis",
        file="src/kbstab/stability.py",
        old="cap = min(model.dim_x / s, cap)",
        new="cap = min(1 / s, cap)",
        tests=("tests/test_stability.py::TestDiscreteTraceBounds::test_linear_models",),
    ),
    Mutant(
        name="discrete-prediction-linear-in-jf",
        file="src/kbstab/stability.py",
        old="lambda_P_pred = jf_norm**2 * lambda_P_upd + tr_Qt",
        new="lambda_P_pred = jf_norm * lambda_P_upd + tr_Qt",
        tests=("tests/test_stability.py::TestDiscreteCertificate::test_worked_scalar_case",),
    ),
    Mutant(
        name="velocity-box-drops-far-end",
        file="src/kbstab/stability.py",
        old="b = 0.5 * max(a2, s * c12 - a2)",
        new="b = 0.5 * a2",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::test_box_supremum_matches_eigvalsh_search",),
    ),
    Mutant(
        name="velocity-tuning-from-the-model",
        file="src/kbstab/stability.py",
        old="Qt, P0 = config.Q_tuned, config.P0",
        new="Qt, P0 = model.Q, config.P0",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::test_tuning_comes_from_the_config",),
    ),
    Mutant(
        name="consistency-tail-reads-M-for-N",
        file="src/kbstab/stability.py",
        old='-lam - _drift_constant(model, "known_N_f")',
        new='-lam - _drift_constant(model, "known_M_f")',
        tests=("tests/test_stability.py::TestContractiveCertificate::test_benchmark_quadrature_constant",),
    ),
    Mutant(
        name="velocity-M-at-the-steep-slope-end",
        file="src/kbstab/models.py",
        old='M = max(eig(lo, "max"), eig(hi, "max"))',
        new='M = eig(hi, "max")',
        tests=("tests/test_models.py::TestIntegratedVelocity::test_log_lipschitz_closed_form",
               "tests/test_stability.py::TestContractiveCertificate::test_not_contractive"),
    ),
    Mutant(
        name="contractive3d-M-off-by-0.05",
        file="src/kbstab/models.py",
        old="known_M_f=-0.5947,",
        new="known_M_f=-0.6447,",
        tests=("tests/test_acceptance.py::TestCriterion4LogLipschitzReproduction::test_drift_constants",),
    ),
    Mutant(
        name="attached-constant-accepts-bool",
        file="src/kbstab/checks.py",
        old="if isinstance(value, bool) or not isinstance(value, numbers.Real)",
        new="if not isinstance(value, numbers.Real)",
        tests=("tests/test_models.py::TestModelValidation::test_attached_drift_constant_checked",
               "tests/test_stability.py::TestContinuousBounds::test_constant_that_is_not_finite_named"),
    ),
    Mutant(
        name="finite-check-accepts-bool",
        file="src/kbstab/checks.py",
        old='if arr.dtype.kind not in "iuf" or',
        new='if arr.dtype.kind not in "biuf" or',
        tests=("tests/test_stability.py::TestContinuousBounds::test_time_that_is_not_finite_named",
               "tests/test_arguments.py::test_bad_argument_named[make_filter_config-P0-bool]"),
    ),
    Mutant(
        name="rule-builder-takes-a-bool-dim",
        file="src/kbstab/checks.py",
        old="if isinstance(value, bool) or not isinstance(value, numbers.Integral)",
        new="if not isinstance(value, numbers.Integral)",
        tests=("tests/test_arguments.py::test_bad_argument_named[gauss_hermite_rule-dim-True]",
               "tests/test_arguments.py::test_bad_argument_named[unscented_rule-dim-True]"),
    ),
    Mutant(
        name="model-aliases-the-callers-H",
        file="src/kbstab/models.py",
        old='H = read_only(check_shape("H", check_finite("H", self.H), (None, None)))',
        new='H = check_shape("H", check_finite("H", self.H), (None, None)).astype(float, copy=False)',
        tests=("tests/test_models.py::TestModelsAreValues::test_callers_arrays_are_copied[cont]",
               "tests/test_models.py::TestModelsAreValues::test_arrays_are_read_only[velocity-H]"),
    ),
    Mutant(
        name="dim-y-from-the-wrong-axis",
        file="src/kbstab/models.py",
        old="dim_y, dim_x = H.shape\n",
        new="dim_y, dim_x = H.shape[1], H.shape[1]\n",
        tests=("tests/test_simulation_reference.py::test_record_matches_the_out_of_place_loop[cont-2-1-7]",
               "tests/test_simulation_reference.py::test_record_matches_the_out_of_place_loop[disc-1-2-7]",
               "tests/test_models.py::TestModelsAreValues::test_sizes_come_from_H[linear]"),
    ),
    Mutant(
        name="run-skips-the-config-size-check",
        file="src/kbstab/filters.py",
        old="    check_shape(\"x0_hat\", config.x0_hat, (d,))\n    states = check_shape(",
        new="    states = check_shape(",
        tests=("tests/test_filters.py::TestFilterConfig::test_run_rejects_a_config_of_another_size",),
    ),
    Mutant(
        name="gaussian-drift-output-unchecked",
        file="src/kbstab/filters.py",
        old="        return check_field(\"gaussian_drift\", mean, x.shape), check_field(\"gaussian_drift\", lam, P.shape)",
        new="        return mean, lam",
        tests=("tests/test_filters.py::TestFieldShape::test_gaussian_drift_in_the_wrong_layout_named[mean-2]",
               "tests/test_filters.py::TestFieldShape::test_gaussian_drift_in_the_wrong_layout_named[lam-4]"),
    ),
    Mutant(
        name="states-checked-against-dim-y",
        file="src/kbstab/filters.py",
        old="check_shape(\"states\", states, (None, None, d))",
        new="check_shape(\"states\", states, (None, None, model.dim_y))",
        tests=("tests/test_filters.py::TestGrouping::"
               "test_wide_batch_rows_do_not_depend_on_batch_size[builtin_integrated_velocity-ekf]",
               "tests/test_arguments.py::test_bad_shape_named[run_continuous_ensemble-states-wrong-d]"),
    ),
    Mutant(
        name="inputs-rule-dimension-unchecked",
        file="src/kbstab/functionals.py",
        old="    if F.rule is not None:\n        check_shape(\"inputs\"",
        new="    if False:\n        check_shape(\"inputs\"",
        tests=("tests/test_functionals.py::TestSharedInputs::test_set_of_another_size_than_the_rule_names_inputs",),
    ),
    Mutant(
        name="bound-curve-before-claim-time",
        file="src/kbstab/harness.py",
        old="continuous_mse_bound(cert, claim_time(cert, times))",
        new="continuous_mse_bound(cert, times)",
        tests=("tests/test_harness.py::TestValidityWindow::test_settle_time_inside_run",),
    ),
    Mutant(
        name="exceedance-rows-delta-major",
        file="src/kbstab/harness.py",
        old="for i, j in np.ndindex(thr.shape)]",
        new="for j, i in np.ndindex(thr.shape[::-1])]",
        tests=("tests/test_harness.py::TestValidityWindow::test_settle_time_inside_run",),
    ),
    Mutant(
        name="window-start-without-fallback",
        file="src/kbstab/harness.py",
        old="return start if start <= times[-1] else 0.0",
        new="return start",
        tests=("tests/test_harness.py::TestValidityWindow::test_window_past_the_horizon_is_the_whole_run",
               "tests/test_cli.py::TestSimulate::test_summary_line_names_the_window_start_used"),
    ),
    Mutant(
        name="step-rule-tolerance-loosened",
        file="src/kbstab/models.py",
        old="if abs(n * dt - span) > 1e-9 * max(1.0, span):",
        new="if abs(n * dt - span) > 1e-3 * max(1.0, span):",
        tests=("tests/test_harness.py::TestWholeSteps::test_span_off_a_multiple_rejected",),
    ),
    Mutant(
        name="divergence-step-off-by-one",
        file="src/kbstab/filters.py",
        old="diverged[alive & ~ok] = k\n",
        new="diverged[alive & ~ok] = k + 1\n",
        tests=("tests/test_filters.py::TestFrozenPaths::test_dead_truth_freezes_only_its_path[ekf]",
               "tests/test_filters.py::TestKalmanBucyStep::test_covariance_collapse_detected"),
    ),
    Mutant(
        name="partial-noise-chunk-dropped",
        file="src/kbstab/models.py",
        old="    for start in range(0, B, step):",
        new="    for start in range(0, B - B % step, step):",
        tests=("tests/test_models.py::TestStreamContract::test_rows_come_from_fresh_keyed_streams",),
    ),
    Mutant(
        name="state-noise-keyed-by-the-measurement-role",
        file="src/kbstab/models.py",
        old="for j, (key_init, key_state, key_meas) in enumerate(",
        new="for j, (key_init, key_meas, key_state) in enumerate(",
        tests=("tests/test_models.py::TestStreamContract::test_rows_come_from_fresh_keyed_streams",),
    ),
    Mutant(
        name="error-sum-skips-the-last-coordinate",
        file="src/kbstab/filters.py",
        old="    for i in range(1, sq.shape[1]):",
        new="    for i in range(1, sq.shape[1] - 1):",
        tests=("tests/test_filters.py::TestSquaredErrors::test_error_is_the_numpy_sum_of_squares",),
    ),
    Mutant(
        name="truth-row-flag-always-true",
        file="src/kbstab/filters.py",
        old="    row_ok = np.isfinite(states).all(axis=(1, 2))",
        new="    row_ok = np.full(n_plus_1, True)",
        tests=("tests/test_filters.py::TestFrozenPaths::test_dead_truth_freezes_only_its_path[ekf]",),
    ),
    Mutant(
        name="export-number-one-ulp-up",
        file="src/kbstab/harness.py",
        old="    return repr(float(x))",
        new="    return repr(float(np.nextafter(x, np.inf)))",
        tests=("tests/test_pinned_outputs.py::test_experiment_exports_are_pinned",),
    ),
    Mutant(
        name="dead-row-keeps-noise",
        file="src/kbstab/models.py",
        old="            xn[dead] = np.nan\n"
            "            yn[dead] = 0.0\n",
        new="",
        tests=("tests/test_models.py::TestContinuousSimulation::test_paths_diverging_at_different_steps",
               "tests/test_models.py::TestDiscreteSimulation::test_measurement_overflow_freezes_its_path_for_good"),
    ),
    Mutant(
        name="alive-shortcut-always",
        file="src/kbstab/harness.py",
        old="err_alive = err if n_alive == len(err) else err[alive]",
        new="err_alive = err",
        tests=("tests/test_harness.py::TestConcentrationCheck::test_rows_count_only_paths_that_never_diverged",),
    ),
    Mutant(
        name="err-sq-transposed-copy",
        file="src/kbstab/filters.py",
        old="return EnsembleRun(err_sq=err_sq,",
        new="return EnsembleRun(err_sq=np.ascontiguousarray(err_sq.T).T,",
        tests=("tests/test_harness.py::TestPeakMemory::test_fig2_benchmark_run_holds_the_record_and_one_error_history",),
    ),
    Mutant(
        name="masked-copy-always",
        file="src/kbstab/harness.py",
        old="err_alive = err if n_alive == len(err) else err[alive]",
        new="err_alive = err[alive]",
        tests=("tests/test_harness.py::TestPeakMemory::test_fig2_benchmark_run_holds_the_record_and_one_error_history",),
    ),
    Mutant(
        name="squares-into-a-new-history",
        file="src/kbstab/harness.py",
        old="np.square(err_alive, out=err_alive)",
        new="(err_alive**2)",
        tests=("tests/test_harness.py::TestPeakMemory::test_fig2_benchmark_run_holds_the_record_and_one_error_history",),
    ),
    Mutant(
        name="gaussian-term-covariance-C-for-C-G-inverse",
        file="src/kbstab/models.py",
        old="v11, v13 = (c11 * g33 - c13 * g13) / det, (c13 * g11 - c11 * g13) / det",
        new="v11, v13 = c11, c13",
        tests=("tests/test_models.py::TestGaussianDrift::test_matches_gauss_hermite_40_at_small_covariances",),
    ),
    Mutant(
        name="faddeeva-derivative-drops-its-constant",
        file="src/kbstab/models.py",
        old="(-2.0 * zeta * wz + 2j / _SQRT_PI)",
        new="(-2.0 * zeta * wz)",
        tests=("tests/test_models.py::TestGaussianDrift::test_matches_gauss_hermite_40_at_small_covariances",),
    ),
    Mutant(
        name="weideman-16-terms",
        file="src/kbstab/models.py",
        old="_WEIDEMAN_N = 40",
        new="_WEIDEMAN_N = 16",
        tests=("tests/test_models.py::TestGaussianDrift::test_faddeeva_matches_scipy",),
    ),
    Mutant(
        name="moment-series-only-at-zero-variance",
        file="src/kbstab/models.py",
        old="far = s * s <= 1e-3 * (1.0 + m * m)",
        new="far = s == 0.0",
        tests=("tests/test_models.py::TestGaussianDrift::test_tiny_variance_of_x3_beside_large_ones",),
    ),
    Mutant(
        name="faddeeva-shortcut-taken-with-a-far-path",
        file="src/kbstab/models.py",
        old="    if not far.any():\n        return _faddeeva_moments(c, s)",
        new="    if True:\n        return _faddeeva_moments(c, s)",
        tests=("tests/test_models.py::TestGaussianDrift::test_tiny_variance_of_x3_beside_large_ones",),
    ),
    Mutant(
        name="loop-error-state-without-invalid",
        file="src/kbstab/filters.py",
        old='    with np.errstate(over="ignore", invalid="ignore"):\n        for k in range(1, n_plus_1):',
        new='    with np.errstate(over="ignore"):\n        for k in range(1, n_plus_1):',
        tests=("tests/test_filters.py::TestErrorState::test_overflowing_field_diverges_its_path_quietly[cont]",),
    ),
    Mutant(
        name="index-grid-without-copy",
        file="src/kbstab/quadrature.py",
        old="np.indices((order,) * dim).reshape(dim, -1).T.copy()",
        new="np.indices((order,) * dim).reshape(dim, -1).T",
        tests=("tests/test_pinned_outputs.py::test_validate_report_is_pinned",),
    ),
    Mutant(
        name="adf-ignores-the-closed-form",
        file="src/kbstab/filters.py",
        old='getattr(model, "gaussian_drift", None) is not None',
        new='getattr(model, "gaussian_drift", None) is None',
        tests=("tests/test_filters.py::TestStepCost::test_adf_step_on_the_closed_form_evaluates_no_field",),
    ),
    Mutant(
        name="experiment-simulates-before-the-config-size-check",
        file="src/kbstab/harness.py",
        old="    for config in configs.values():\n        check_shape(\"x0_hat\", config.x0_hat, (model.dim_x,))\n",
        new="",
        tests=("tests/test_harness.py::TestRunExperiment::test_config_of_another_size_rejected_before_simulating",),
    ),
    Mutant(
        name="velocity-certificate-r-at-the-builder-default",
        file="src/kbstab/stability.py",
        old="h, r = float(model.H[0, 0]), float(model.R[0, 0])",
        new="h, r = float(model.H[0, 0]), 0.05",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::test_certificate_reads_the_model_it_certifies",),
    ),
    Mutant(
        name="velocity-certificate-takes-any-observation",
        file="src/kbstab/stability.py",
        old="    if model.H[0, 1] != 0 or model.H[0, 0] == 0:",
        new="    if False:",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::"
               "test_model_that_does_not_measure_the_position_rejected[both-components]",),
    ),
    Mutant(
        name="velocity-certificate-takes-any-noise-size",
        file="src/kbstab/stability.py",
        old="    check_shape(\"R\", model.R, (1, 1))\n",
        new="",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::"
               "test_model_that_does_not_measure_the_position_rejected[two-measurements]",),
    ),
    Mutant(
        name="velocity-slope-bound-at-the-steep-end",
        file="src/kbstab/stability.py",
        old="    lg = VELOCITY_G_PRIME_MIN\n",
        new="    lg = 2.0 - VELOCITY_G_PRIME_MIN  # VELOCITY_G_PRIME_MAX\n",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::test_rate_is_box_worst_case",),
    ),
    Mutant(
        name="continuous-gain-without-the-inverse-noise",
        file="src/kbstab/filters.py",
        old="K = np.matmul(model.HtRinv.T, P)",
        new="K = np.matmul(model.H, P)",
        tests=("tests/test_filters.py::TestBatchFirstReference::test_per_path_errors_match_the_batch_first_step",),
    ),
    Mutant(
        name="discrete-noise-term-without-tr-Q",
        file="src/kbstab/stability.py",
        old="u_d = lambda_d**2 * float(np.trace(model.Q)) + kappa**2",
        new="u_d = kappa**2",
        tests=("tests/test_stability.py::TestDiscreteErrorLaw::test_bound_holds_at_every_step",),
    ),
    Mutant(
        name="contraction-rate-one-ulp-up",
        file="src/kbstab/stability.py",
        old="    lam = -M_f\n",
        new="    lam = math.nextafter(-M_f, math.inf)\n",
        tests=("tests/test_pinned_outputs.py::test_certify_report_is_pinned",),
    ),
    Mutant(
        name="mse-bound-on-the-gronwall-envelope",
        file="src/kbstab/stability.py",
        old="    return X * np.exp(-2.0 * cert.lam * (t - cert.T)) + cert.u / (2.0 * cert.lam)",
        new="    return gronwall_continuous(X, -2.0 * cert.lam, cert.u, t - cert.T)",
        tests=("tests/test_pinned_outputs.py::test_experiment_exports_are_pinned[fig2]",),
    ),
    Mutant(
        name="checkpoint-grid-at-zero-unnamed",
        file="src/kbstab/harness.py",
        old="    if len(cp_idx) == 1:",
        new="    if False:",
        tests=("tests/test_cli.py::TestSimulate::test_checkpoint_grid_with_no_time_after_zero_is_named",),
    ),
    Mutant(
        name="velocity-certificate-ignores-the-second-row",
        file="src/kbstab/stability.py",
        old="    second_row_ok = np.all(J[:, 1, 0] == 0) and np.all(",
        new="    second_row_ok = True or np.all(J[:, 1, 0] == 0) and np.all(",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::"
               "test_certificate_checks_the_drift_it_certifies[exploding-velocity]",),
    ),
    Mutant(
        name="matrix-checks-keep-the-last-chunk",
        file="src/kbstab/cli.py",
        old="        ok &= [sub, sandwich, trace_ok, mu_vs_norm]",
        new="        ok = np.array([sub, sandwich, trace_ok, mu_vs_norm])",
        tests=("tests/test_cli.py::TestMatrixChecks::test_a_violation_in_one_chunk_fails_the_check[first]",),
    ),
    Mutant(
        name="matrix-checks-skip-the-last-chunk",
        file="src/kbstab/cli.py",
        old="    for start in range(0, count, MATRIX_CHECK_CHUNK):",
        new="    for start in range(0, count - MATRIX_CHECK_CHUNK, MATRIX_CHECK_CHUNK):",
        tests=("tests/test_cli.py::TestMatrixChecks::test_a_violation_in_one_chunk_fails_the_check[last]",),
    ),
    Mutant(
        name="spectral-norm-without-the-rescale",
        file="src/kbstab/matrix_measures.py",
        old="    s[s == 0] = 1.0",
        new="    s[...] = 1.0",
        tests=("tests/test_matrix_measures.py::TestSpectralNorm::test_matches_the_svd_at_every_scale",),
    ),
    Mutant(
        name="measurement-rows-with-the-state-width",
        file="src/kbstab/models.py",
        old="    rows_x, rows_y = _rows(states, dx), _rows(meas, dy)",
        new="    rows_x, rows_y = _rows(states, dx), _rows(meas, dx)",
        tests=("tests/test_simulation_reference.py::test_record_matches_the_out_of_place_loop[cont-1-2-7]",
               "tests/test_simulation_reference.py::test_record_matches_the_out_of_place_loop[disc-2-1-7]"),
    ),
    Mutant(
        name="euler-step-adds-the-drift-twice",
        file="src/kbstab/models.py",
        old="                xn += drift\n",
        new="                xn += drift\n                xn += drift\n",
        tests=("tests/test_simulation_reference.py::test_record_matches_the_out_of_place_loop[cont-2-1-7]",),
    ),
    Mutant(
        name="dead-path-measurement-left-unzeroed",
        file="src/kbstab/models.py",
        old="            yn[dead] = 0.0\n",
        new="",
        tests=("tests/test_simulation_reference.py::test_state_overflow_freezes_the_same_paths[cont-7-1-1]",
               "tests/test_models.py::TestContinuousSimulation::test_paths_diverging_at_different_steps"),
    ),
    Mutant(
        name="velocity-slope-reuses-the-square-for-the-cube",
        file="src/kbstab/models.py",
        old="    num = sq * z\n",
        new="    num = sq * sq\n",
        tests=("tests/test_models.py::TestBuiltinFieldsInPlace::test_slope_functions_match_their_formulas[g_prime]",),
    ),
)


def copy_checkout(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree, tests):
    """Pytest's exit code for ``tests`` run with ``-x`` and plain asserts in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def apply(mutant, tree):
    path = tree / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def verdict(mutant):
    with tempfile.TemporaryDirectory(prefix="kbstab-mutant-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        try:
            apply(mutant, tree)
        except ValueError as exc:
            return f"error ({exc})"
        code = run_tests(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit code {code})")


def main():
    start = time.perf_counter()
    ids = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="kbstab-unmutated-") as tmp:
        copy_checkout(Path(tmp))
        code = run_tests(Path(tmp), ids)
    if code != 0:
        print(f"unchanged copy: the tests do not pass (pytest exit code {code})")
        return 1
    print(f"unchanged copy: {len(ids)} test ids pass ({time.perf_counter() - start:.1f} s)")
    failed = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        result = verdict(mutant)
        failed += result != "killed"
        print(f"{mutant.name}: {result} ({time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
