"""Mutation checks: every planted fault must fail the tests named for it.

    python3 mutation/run.py

Each mutant is a text substitution in one file of the checkout plus the
test ids that should catch it. The runner first runs every mutant's ids on
an unchanged copy, which must pass. Then, for each mutant, it copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
makes the substitution (its old text must occur exactly once) and runs the
ids there with ``pytest -x``. The mutant is killed when a test fails and
survives when they all pass; any other pytest outcome is an error. The
exit status is 1 when a mutant survives or errs, or the unchanged copy
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
        name="root-transposed-in-points-gemm",
        file="src/kbstab/functionals.py",
        old="rows = np.ascontiguousarray(_batch_first(L))",
        new="rows = np.ascontiguousarray(L.transpose(2, 1, 0))",
        tests=("tests/test_functionals.py::TestSigmaPoints::test_points_are_the_state_plus_the_root_times_each_node",),
    ),
    Mutant(
        name="jacobian-transposed-in-batch-last-JP",
        file="src/kbstab/functionals.py",
        old="J = np.ascontiguousarray(_batch_last(np.asarray(jac(x), dtype=float)))",
        new="J = np.ascontiguousarray(np.asarray(jac(x), dtype=float).transpose(2, 1, 0))",
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
        name="velocity-tuning-from-the-model",
        file="src/kbstab/stability.py",
        old="Qt, P0 = config.Q_tuned, config.P0",
        new="Qt, P0 = model.Q, config.P0",
        tests=("tests/test_stability.py::TestIntegratedVelocityCertificate::test_tuning_comes_from_the_config",),
    ),
    Mutant(
        name="inputs-rule-dimension-unchecked",
        file="src/kbstab/functionals.py",
        old="    if F.rule is not None and F.rule.dim != inputs.dim:",
        new="    if False:",
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
)


def copy_checkout(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree, tests):
    """Pytest's exit code for ``tests`` run with ``-x`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
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
