import dataclasses
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kbstab
from kbstab import (
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    make_filter_config,
)
from kbstab import functionals, quadrature
from kbstab.errors import IndefiniteMatrixError
from kbstab.filters import (
    FilterConfig,
    _drift,
    _kb_step_batch,
    _update_batch,
    run_continuous_ensemble,
    run_discrete_ensemble,
)
from kbstab.functionals import Functional
from kbstab.harness import ExperimentSpec, run_experiment
from kbstab.models import simulate_discrete_paths, simulate_paths
from kbstab.quadrature import _clamp_psd, _psd_root


def scalar_model(a=-1.0, q=1.0, h=1.0, r=1.0):
    return builtin_linear(np.array([[a]]), Q=q * np.eye(1), H=h * np.eye(1), R=r * np.eye(1),
                          mu0=np.zeros(1), Sigma0=np.eye(1))


def one_path(model, dt, horizon, seed):
    """States and increments of path 0, as a batch of one."""
    _, states, incr, diverged = simulate_paths(model, dt, horizon, seed, 1)
    assert diverged[0] < 0
    return states, incr


def kb_step(model, config, x, P, dY, dt):
    """One continuous step of a single state through the batched step, whose covariances are batch-last."""
    x_new, P_new, _, _, bad = _kb_step_batch(model, config, model.HtRinv, x[None], P[:, :, None], None, dY[None],
                                             dt)
    assert not bad[0]
    return x_new[0], P_new[..., 0]


class TestKalmanBucyStep:
    def test_scalar_riccati_fixed_point(self, record_filter):
        # dX = -X dt + dW, dY = X dt + dV: the stationary covariance solves
        # -2P + 1 - P^2 = 0, i.e. P = sqrt(2) - 1
        model = scalar_model()
        states, incr = one_path(model, dt=1e-3, horizon=20.0, seed=0)
        config = make_filter_config("ekf", model)
        _, _, P, _ = record_filter(model, config, states, incr, 1e-3)
        assert P[-1, 0, 0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-3)

    def test_variants_coincide_on_linear_model(self, rng, record_filter):
        A = np.array([[-1.0, 0.3], [0.0, -0.8]])
        model = builtin_linear(A, Q=np.eye(2), H=np.eye(2), R=2.0 * np.eye(2),
                               mu0=np.zeros(2), Sigma0=0.1 * np.eye(2))
        states, incr = one_path(model, dt=0.01, horizon=2.0, seed=4)
        _, x_ekf, P_ekf, _ = record_filter(model, make_filter_config("ekf", model), states, incr, 0.01)
        _, x_ukf, P_ukf, _ = record_filter(model, make_filter_config("ukf", model), states, incr, 0.01)
        assert np.abs(x_ekf - x_ukf).max() <= 1e-8
        assert np.abs(P_ekf - P_ukf).max() <= 1e-8

    def test_zero_innovation_keeps_estimate(self):
        model = builtin_linear(np.zeros((2, 2)), Q=np.eye(2), H=np.eye(2), R=np.eye(2),
                               mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        x = np.array([0.7, -0.2])
        P = np.eye(2)
        dt = 0.01
        dY = model.H @ x * dt
        x_new, _ = kb_step(model, config, x, P, dY, dt)
        assert np.allclose(x_new, x, atol=1e-14)

    def test_no_measurements_reduces_to_open_loop(self):
        model = builtin_contractive3d()
        open_loop = builtin_linear(np.zeros((3, 3)), Q=model.Q, H=np.zeros((3, 3)),
                                   R=np.eye(3), mu0=model.mu0, Sigma0=model.Sigma0)
        open_loop.f, open_loop.jac_f = model.f, model.jac_f
        config = make_filter_config("ekf", open_loop)
        x = np.array([0.4, -0.1, 0.2])
        P = 0.5 * np.eye(3)
        dt = 0.01
        x_new, _ = kb_step(open_loop, config, x, P, np.zeros(3), dt)
        assert np.allclose(x_new, x + open_loop.f(x) * dt, atol=1e-14)

    def test_covariance_collapse_detected(self):
        # one Euler step from P0 = 1 with r = 1e-6 overshoots to a negative P,
        # which the guard clamps to zero: the path is frozen at step 1
        model = scalar_model(r=1e-6)
        config = make_filter_config("ekf", model)
        run = run_continuous_ensemble(model, config, np.zeros((1, 2, 1)), np.zeros((1, 2, 1)), 0.01)
        assert run.diverged.tolist() == [1]

    def test_bad_dt_rejected(self):
        model = scalar_model()
        config = make_filter_config("ekf", model)
        for dt in (0.0, -0.01, np.nan, np.inf, True, "0.01"):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                run_continuous_ensemble(model, config, np.zeros((1, 2, 1)), np.zeros((1, 2, 1)), dt)


class TestRunContinuousFilter:
    def test_reproducible(self, record_filter):
        model = builtin_contractive3d()
        states, incr = one_path(model, dt=0.02, horizon=1.0, seed=5)
        config = make_filter_config("ukf", model)
        _, a, _, _ = record_filter(model, config, states, incr, 0.02)
        _, b, _, _ = record_filter(model, config, states, incr, 0.02)
        assert np.array_equal(a, b)

    def test_covariances_stay_symmetric_psd(self, record_filter):
        model = builtin_contractive3d()
        states, incr = one_path(model, dt=0.01, horizon=3.0, seed=6)
        for kind in ("ekf", "ukf"):
            _, _, P, _ = record_filter(model, make_filter_config(kind, model), states, incr, 0.01)
            sym_gap = np.abs(P - np.swapaxes(P, -1, -2)).max()
            assert sym_gap <= 1e-9
            eigs = np.linalg.eigvalsh(P)
            assert eigs.min() >= -1e-12
            assert np.all(np.isfinite(np.trace(P, axis1=-2, axis2=-1)))

    def test_gains_recorded(self, record_filter):
        # the gain step k applies is P_{k-1} H^T R^{-1}
        model = scalar_model(r=4.0)
        states, incr = one_path(model, dt=0.1, horizon=1.0, seed=1)
        _, _, P, K = record_filter(model, make_filter_config("ekf", model), states, incr, 0.1)
        assert np.allclose(K[1:, 0, 0, 0], P[:-1, 0, 0, 0] / 4.0)

    def test_benchmark_trace_stays_under_certificate(self, fig1_result):
        # every path of the full benchmark run keeps tr(P_t) below the
        # certified level 2.552
        for kind in ("ekf", "ukf"):
            cert = fig1_result.certificates[kind]
            assert cert.lambda_P == pytest.approx(2.552, abs=1e-3)
            assert fig1_result.max_trace_P[kind] <= cert.lambda_P + 1e-6


def mixed_psd_batch(rng, d=3):
    """An indefinite, a singular PSD and a positive definite ``d x d`` matrix, slightly asymmetric.

    The singular member's first row and column are zero and the noise spares
    the diagonals, so every factorization of it stops at its first pivot.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    indefinite = Q @ np.diag([-0.5, *range(1, d)]) @ Q.T
    V = rng.standard_normal((d, d - 1))
    V[0] = 0.0
    singular = V @ V.T
    G = rng.standard_normal((d, d))
    definite = G @ G.T + 0.1 * np.eye(d)
    stack = np.stack([indefinite, singular, definite])
    noise = 1e-13 * rng.standard_normal(stack.shape)
    noise[:, range(d), range(d)] = 0.0
    return stack + noise


def counting(fn, counter, key):
    def wrapped(*args, **kwargs):
        counter[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def psd_root_first(P):
    """The guard on a batch-first stack, its outputs moved back to batch-first."""
    out, L = _psd_root(np.moveaxis(P, 0, -1))
    return np.moveaxis(out, -1, 0), np.moveaxis(L, -1, 0)


def assert_lapack_factor(L, sym):
    """``L`` is LAPACK's Cholesky factor of the stack ``sym``.

    Bit for bit up to 2x2, and from 3x3 on within 1e-15 of each member's
    largest entry, where the recurrence rounds differently from OpenBLAS.
    """
    ref = np.linalg.cholesky(sym)
    if sym.shape[-1] <= 2:
        assert np.array_equal(L, ref)
    else:
        gap = np.abs(L - ref).max(axis=(-2, -1))
        assert np.all(gap <= 1e-15 * np.abs(ref).max(axis=(-2, -1)))


class TestErrorLayout:
    def test_errors_are_path_major_and_c_contiguous(self, discrete_sine):
        # the harness's reduction bits depend on this layout
        model = builtin_contractive3d()
        _, states, incr, _ = simulate_paths(model, dt=0.05, horizon=1.0, seed=2, n_paths=7)
        run = run_continuous_ensemble(model, make_filter_config("ekf", model), states, incr, 0.05)
        assert run.err_sq.shape == (7, 21) and run.err_sq.flags.c_contiguous
        model = discrete_sine()
        _, states, meas, _ = simulate_discrete_paths(model, steps=12, seed=2, n_paths=5)
        run = run_discrete_ensemble(model, make_filter_config("ukf", model), states, meas)
        assert run.err_sq.shape == (5, 13) and run.err_sq.flags.c_contiguous


@pytest.mark.parametrize("d", [2, 3])
class TestPsdGuard:
    """The guard's one batch-last recurrence: 2x2, where it is LAPACK's bit for bit, and 3x3, where it rounds apart."""

    def test_clamps_failing_members_only(self, d, rng, monkeypatch):
        P_raw = mixed_psd_batch(rng, d)
        calls = {"eigh": 0}
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, calls, "eigh"))
        out, L = psd_root_first(P_raw)
        assert calls["eigh"] == 1
        # a matrix rebuilt from clipped eigenpairs is PSD up to a few ulps
        for M in out[:2]:
            assert np.array_equal(M, M.T)
            assert np.linalg.eigvalsh(M)[0] >= -4 * np.finfo(float).eps * np.abs(M).max()
        for b in range(2):
            clamped, root = _clamp_psd(P_raw[b])
            assert np.array_equal(out[b], clamped)
            assert np.array_equal(L[b], root)
        definite = P_raw[2]
        assert np.array_equal(out[2], 0.5 * (definite + definite.T))
        assert_lapack_factor(L[2], out[2])
        # every member's root reproduces the returned matrix
        assert np.abs(L @ np.swapaxes(L, 1, 2) - out).max() <= 1e-12 * np.abs(out).max()

    def test_member_output_independent_of_batch(self, d, rng):
        P_raw = mixed_psd_batch(rng, d)
        out, L = psd_root_first(P_raw)
        for b in range(3):
            alone, root = psd_root_first(P_raw[b:b + 1])
            assert np.array_equal(out[b], alone[0])
            assert np.array_equal(L[b], root[0])
        rev, rev_L = psd_root_first(P_raw[::-1])
        assert np.array_equal(out[::-1], rev)
        assert np.array_equal(L[::-1], rev_L)

    def test_definite_batch_needs_no_eigendecomposition(self, d, rng, monkeypatch):
        calls = {"eigh": 0}
        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, calls, "eigh"))
        G = rng.standard_normal((50, d, d))
        P_raw = G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(d)
        out, L = psd_root_first(P_raw)
        assert calls["eigh"] == 0
        assert np.array_equal(out, 0.5 * (P_raw + np.swapaxes(P_raw, 1, 2)))
        assert_lapack_factor(L, out)


def rule_path_contractive3d():
    """The fig1 model without its ``gaussian_drift``, so that ``adf`` runs its reference rule on it."""
    return dataclasses.replace(builtin_contractive3d(), gaussian_drift=None)


def fig1_like_paths(n_paths, horizon, dt=0.01, seed=7, build=builtin_contractive3d):
    model = build()
    times, states, incr, diverged = simulate_paths(model, dt, horizon, seed, n_paths)
    assert np.all(diverged < 0)
    return model, times, states, incr


def discrete_paths(model, n_paths, steps, seed=7):
    times, states, meas, diverged = simulate_discrete_paths(model, steps, seed, n_paths)
    assert np.all(diverged < 0)
    return times, states, meas


class TestGrouping:
    @pytest.mark.parametrize("kind", ["ekf", "ukf", "gh", "adf"])
    def test_ensemble_independent_of_grouping(self, kind, record_filter):
        model, _, states, incr = fig1_like_paths(6, horizon=1.0, dt=0.02)
        config = make_filter_config(kind, model)
        whole = run_continuous_ensemble(model, config, states, incr, 0.02)
        parts = [run_continuous_ensemble(model, config, states[s], incr[s], 0.02)
                 for s in (slice(0, 2), slice(2, 6))]
        for name in ("err_sq", "trace_max", "diverged"):
            joined = np.concatenate([getattr(r, name) for r in parts])
            assert np.array_equal(getattr(whole, name), joined), name
        for p in (0, 4):
            _, x, P, _ = record_filter(model, config, states[p:p + 1], incr[p:p + 1], 0.02)
            err_sq = np.sum((states[p] - x[:, 0]) ** 2, axis=1)
            assert np.array_equal(whole.err_sq[p], err_sq)
            assert whole.trace_max[p] == np.trace(P[:, 0], axis1=1, axis2=2).max()

    @pytest.mark.parametrize("build, kind", [
        (builtin_integrated_velocity, "ekf"), (builtin_integrated_velocity, "ukf"),
        (builtin_contractive3d, "ekf"), (builtin_contractive3d, "ukf"), (builtin_contractive3d, "gh"),
        (builtin_contractive3d, "adf"),
    ])
    def test_wide_batch_rows_do_not_depend_on_batch_size(self, build, kind):
        # the step's products with HtRinv and S are one GEMM over all rows of
        # the batch, the sigma points one GEMM per path block, and adf's
        # closed form a Vandermonde sum per path, so a path's result must not
        # depend on how many share it
        model = build()
        _, states, incr, diverged = simulate_paths(model, 0.01, 0.2, 7, 1000)
        assert np.all(diverged < 0)
        config = make_filter_config(kind, model)
        whole = run_continuous_ensemble(model, config, states, incr, 0.01)
        assert np.all(whole.diverged < 0)
        for s in (slice(0, 1), slice(5, 12), slice(100, 124), slice(999, 1000), slice(0, 333)):
            part = run_continuous_ensemble(model, config, states[s], incr[s], 0.01)
            assert np.array_equal(part.err_sq, whole.err_sq[s]), s

    @pytest.mark.parametrize("kind", ["ekf", "ukf", "gh", "adf"])
    def test_discrete_ensemble_independent_of_grouping(self, kind, discrete_sine, record_filter):
        model = discrete_sine()
        _, states, meas = discrete_paths(model, 6, steps=40)
        config = make_filter_config(kind, model)
        whole = run_discrete_ensemble(model, config, states, meas)
        parts = [run_discrete_ensemble(model, config, states[s], meas[s])
                 for s in (slice(0, 2), slice(2, 6))]
        for name in ("err_sq", "trace_max", "diverged"):
            joined = np.concatenate([getattr(r, name) for r in parts])
            assert np.array_equal(getattr(whole, name), joined), name
        for p in range(6):
            _, x, P, _ = record_filter(model, config, states[p:p + 1], meas[p:p + 1])
            err_sq = np.sum((states[p] - x[:, 0]) ** 2, axis=1)
            assert np.array_equal(whole.err_sq[p], err_sq)
            assert whole.trace_max[p] == np.trace(P[:, 0], axis1=1, axis2=2).max()


def linear_paths(d, n_paths, steps=6, dt=0.05, seed=3):
    """A stable fully observed linear model of size ``d`` with full noise covariances, and its paths."""
    rng = np.random.default_rng(d)
    M = rng.standard_normal((d, d))
    model = builtin_linear(-np.eye(d) + 0.2 * M, Q=M @ M.T / d + 0.5 * np.eye(d), H=np.eye(d), R=np.eye(d),
                           Sigma0=np.eye(d))
    _, states, incr, diverged = simulate_paths(model, dt, steps * dt, seed, n_paths)
    assert np.all(diverged < 0)
    return model, states, incr


class TestSquaredErrors:
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n_paths", [1, 7, 1000])
    def test_error_is_the_numpy_sum_of_squares(self, d, n_paths, record_filter):
        # below 8 coordinates numpy adds in order, as the loop does: row 0, the
        # whole-batch steps and, once the last path's truth dies at step 3 of a
        # batch of several, the masked ones
        model, states, incr = linear_paths(d, n_paths)
        if n_paths > 1:
            states = states.copy()
            states[-1, 3:] = np.nan
        run, x, _, _ = record_filter(model, make_filter_config("ekf", model), states, incr, 0.05)
        assert run.diverged[-1] == (3 if n_paths > 1 else -1)
        x = x.transpose(1, 0, 2)
        np.testing.assert_array_equal(run.err_sq, np.sum((states - x) ** 2, axis=-1))

    def test_eight_coordinates_keep_each_path_its_batch_of_one(self):
        # from 8 terms on numpy sums pairwise, and the loop still adds in order,
        # so a path's error is the same in any batch, whole-batch steps or not
        model, states, incr = linear_paths(8, 5)
        states = states.copy()
        states[2, 4:] = np.nan
        config = make_filter_config("ekf", model)
        whole = run_continuous_ensemble(model, config, states, incr, 0.05)
        assert whole.diverged.tolist() == [-1, -1, 4, -1, -1]
        for p in range(5):
            alone = run_continuous_ensemble(model, config, states[p:p + 1], incr[p:p + 1], 0.05)
            for name in ("err_sq", "trace_max", "diverged"):
                assert np.array_equal(getattr(whole, name)[p], getattr(alone, name)[0],
                                      equal_nan=name != "diverged"), (p, name)


def batch_first_reference(model, config, states, incr, dt):
    """Per-path squared errors of the continuous filter, stepped batch-first with stacked matmul and LAPACK.

    ``(B, d, d)`` stacks; ``J P``, ``P S P`` and the Stein term ``vals^T (w
    xi) L^T`` as stacked matmuls; ``np.linalg.cholesky`` for the sigma-point
    root. It has no clamp, so it serves well-posed runs only.
    """
    B, n_plus_1, d = states.shape
    F, H = config.functional, model.H
    x = np.tile(config.x0_hat, (B, 1))
    P = np.tile(config.P0, (B, 1, 1))
    err_sq = np.empty((B, n_plus_1))
    err_sq[:, 0] = np.sum((states[:, 0] - x) ** 2, axis=1)
    for k in range(1, n_plus_1):
        if F.kind == "ekf":
            mean, lam = model.f(x), model.jac_f(x) @ P
        else:
            w, xi = F.rule.weights, F.rule.points
            Lt = np.swapaxes(np.linalg.cholesky(P), 1, 2)
            vals = model.f(x[:, None, :] + xi @ Lt)
            mean, lam = w @ vals, np.swapaxes(vals, 1, 2) @ (w[:, None] * xi) @ Lt
        K = P @ model.HtRinv
        x = x + mean * dt + np.einsum("bij,bj->bi", K, incr[:, k] - (x @ H.T) * dt)
        P = P + (lam + np.swapaxes(lam, 1, 2) + config.Q_tuned - P @ model.S @ P) * dt
        P = 0.5 * (P + np.swapaxes(P, 1, 2))
        err_sq[:, k] = np.sum((states[:, k] - x) ** 2, axis=1)
    return err_sq


class TestBatchFirstReference:
    """The batch-last step against a batch-first reference on the benchmark's three ensemble shapes, cut down.

    The two differ only in the rounding of the products and of the 3x3
    factor, so every path's squared error stays within 1e-12 of the
    reference, relative.
    """

    @pytest.mark.parametrize("build, kind, n_paths, steps", [
        (builtin_contractive3d, "ekf", 60, 150), (builtin_contractive3d, "ukf", 60, 150),
        (builtin_integrated_velocity, "ekf", 60, 150),
        (builtin_contractive3d, "gh", 6, 40), (rule_path_contractive3d, "adf", 6, 40),
    ], ids=["fig1-ekf", "fig1-ukf", "fig2-ekf", "quad_narrow-gh", "quad_narrow-adf"])
    def test_per_path_errors_match_the_batch_first_step(self, build, kind, n_paths, steps):
        model = build()
        _, states, incr, diverged = simulate_paths(model, 0.01, steps * 0.01, 7, n_paths)
        assert np.all(diverged < 0)
        config = make_filter_config(kind, model)
        run = run_continuous_ensemble(model, config, states, incr, 0.01)
        ref = batch_first_reference(model, config, states, incr, 0.01)
        assert np.all(run.diverged < 0)
        assert np.all(np.abs(run.err_sq - ref) <= 1e-12 * np.abs(ref))


def run_37_paths(kind, time, discrete_sine):
    """``(config, run)`` for ``kind`` on 37 paths of the fig1 model (on its rule path) or the discrete sine model."""
    if time == "cont":
        model, _, states, incr = fig1_like_paths(37, horizon=0.2, build=rule_path_contractive3d)
        config = make_filter_config(kind, model)
        return config, lambda: run_continuous_ensemble(model, config, states, incr, 0.01)
    model = discrete_sine()
    _, states, meas = discrete_paths(model, 37, steps=20)
    config = make_filter_config(kind, model)
    return config, lambda: run_discrete_ensemble(model, config, states, meas)


class TestPathBlocks:
    """The sigma-point layer walks the batch in blocks of ``functionals.BLOCK_COORDS`` coordinates."""

    @pytest.mark.parametrize("time", ["cont", "disc"])
    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_block_boundaries_change_no_bit(self, kind, time, discrete_sine, monkeypatch):
        config, run = run_37_paths(kind, time, discrete_sine)
        rule = config.functional.rule
        nd = rule.size * rule.dim
        monkeypatch.setattr(functionals, "BLOCK_COORDS", 37 * nd)
        whole = run()
        # one path a block; five a block and a tail of two; seven a block and a tail of two
        for coords in (1, 5 * nd, 7 * nd + 1):
            monkeypatch.setattr(functionals, "BLOCK_COORDS", coords)
            blocked = run()
            for name in ("err_sq", "trace_max", "diverged"):
                assert np.array_equal(getattr(blocked, name), getattr(whole, name)), (coords, name)


class TestFrozenPaths:
    """The loop's masked branch, which runs once any path of the batch has died."""

    @pytest.mark.parametrize("kind", ["ekf", "ukf"])
    def test_dead_truth_freezes_only_its_path(self, kind):
        model, _, states, incr = fig1_like_paths(5, horizon=0.6, dt=0.02)
        states = states.copy()
        states[2, 12:] = np.nan
        config = make_filter_config(kind, model)
        run = run_continuous_ensemble(model, config, states, incr, 0.02)
        assert run.diverged.tolist() == [-1, -1, 12, -1, -1]
        assert np.all(np.isnan(run.err_sq[2, 12:]))
        for p in range(5):
            alone = run_continuous_ensemble(model, config, states[p:p + 1], incr[p:p + 1], 0.02)
            for name in ("err_sq", "trace_max", "diverged"):
                assert np.array_equal(getattr(run, name)[p], getattr(alone, name)[0],
                                      equal_nan=name != "diverged"), (p, name)


    @pytest.mark.parametrize("kind", ["ekf", "ukf"])
    def test_nonfinite_filter_step_freezes_only_its_path(self, kind):
        # a measurement spike throws path 2's estimate to about 1e200 at step
        # 12; the drift's squares overflow at step 13 while the truth stays finite
        model, _, states, incr = fig1_like_paths(5, horizon=0.6, dt=0.02)
        incr = incr.copy()
        incr[2, 12] = 1e200
        config = make_filter_config(kind, model)
        run = run_continuous_ensemble(model, config, states, incr, 0.02)
        assert np.all(np.isfinite(states))
        assert run.diverged.tolist() == [-1, -1, 13, -1, -1]
        assert run.err_sq[2, 12] == np.inf and np.all(np.isnan(run.err_sq[2, 13:]))
        for p in range(5):
            alone = run_continuous_ensemble(model, config, states[p:p + 1], incr[p:p + 1], 0.02)
            for name in ("err_sq", "trace_max", "diverged"):
                assert np.array_equal(getattr(run, name)[p], getattr(alone, name)[0],
                                      equal_nan=name != "diverged"), (p, name)


class TestTimeMajorInputs:
    """The loop reads paths time-major: the simulators' views are used as they
    are, other layouts are copied once, and the output does not depend on which."""

    @pytest.mark.parametrize("kind", ["ekf", "ukf"])
    def test_continuous_views_and_copies_agree(self, kind):
        model, _, states, incr = fig1_like_paths(6, horizon=0.4, dt=0.02)
        assert not states.flags.c_contiguous
        config = make_filter_config(kind, model)
        views = run_continuous_ensemble(model, config, states, incr, 0.02)
        copies = run_continuous_ensemble(model, config, np.ascontiguousarray(states), np.ascontiguousarray(incr),
                                         0.02)
        for name in ("err_sq", "trace_max", "diverged"):
            assert np.array_equal(getattr(views, name), getattr(copies, name)), name
        assert views.err_sq.shape == (6, 21) and views.err_sq.flags.c_contiguous

    @pytest.mark.parametrize("kind", ["ekf", "ukf"])
    def test_discrete_views_and_copies_agree(self, kind, discrete_sine):
        model = discrete_sine()
        _, states, meas = discrete_paths(model, 6, steps=20)
        config = make_filter_config(kind, model)
        views = run_discrete_ensemble(model, config, states, meas)
        copies = run_discrete_ensemble(model, config, np.ascontiguousarray(states), np.ascontiguousarray(meas))
        for name in ("err_sq", "trace_max", "diverged"):
            assert np.array_equal(getattr(views, name), getattr(copies, name)), name
        assert views.err_sq.shape == (6, 21) and views.err_sq.flags.c_contiguous


class TestObservationShape:
    """The measurement record must be ``(paths, steps + 1, dim_y)`` like the states."""

    @pytest.mark.parametrize("cut", ["short", "mis-sized", "mis-batched"])
    def test_named_shape_error(self, cut):
        model, _, states, incr = fig1_like_paths(4, horizon=0.2, dt=0.02)
        bad = {"short": incr[:, :-1], "mis-sized": incr[..., :2], "mis-batched": incr[:3]}[cut]
        with pytest.raises(ValueError, match=r"increments must have shape \(4, 11, 3\) to match states"):
            run_continuous_ensemble(model, make_filter_config("ekf", model), states, bad, 0.02)


class TestStepCost:
    """Decompositions, field and Jacobian evaluations made by the batched filter step.

    A run makes one factorization of the guard more than it has steps: the
    initial factor of ``P0``. ``factor`` counts the guard's factorizations
    (``quadrature._cholesky``) and ``lapack`` the ``np.linalg.cholesky``
    calls: none at any size, as the guard's recurrence runs in numpy.
    """

    def count_calls(self, model, monkeypatch):
        calls = {"factor": 0, "lapack": 0, "eigh": 0, "field": 0, "jac": 0}
        monkeypatch.setattr(quadrature, "_cholesky", counting(quadrature._cholesky, calls, "factor"))
        for key, name in (("lapack", "cholesky"), ("eigh", "eigh")):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), calls, key))
        model.f = counting(model.f, calls, "field")
        model.jac_f = counting(model.jac_f, calls, "jac")
        return calls

    def run_counted(self, kind, monkeypatch, n_paths=40, steps=100, build=builtin_contractive3d):
        model, _, states, incr = fig1_like_paths(n_paths, horizon=steps * 0.01, build=build)
        calls = self.count_calls(model, monkeypatch)
        config = make_filter_config(kind, model)
        run = run_continuous_ensemble(model, config, states, incr, 0.01)
        assert np.all(run.diverged < 0)
        return calls, steps

    def test_ekf_step_makes_no_eigendecomposition(self, monkeypatch):
        calls, steps = self.run_counted("ekf", monkeypatch)
        assert calls["factor"] == steps + 1
        assert calls["lapack"] == 0
        assert calls["eigh"] == 0
        assert calls["field"] == steps
        assert calls["jac"] == steps

    @pytest.mark.parametrize("kind, blocks", [("ukf", 1), ("gh", 1), ("adf", 2)], ids=["ukf", "gh", "adf"])
    def test_rule_step_makes_one_root_and_one_field_evaluation(self, kind, blocks, monkeypatch):
        # one evaluation per path block: adf's 1000 points in 3-d take five
        # paths a block, so 8 paths are two
        rule = make_filter_config(kind, builtin_contractive3d()).functional.rule
        assert -(-8 // (functionals.BLOCK_COORDS // (rule.size * rule.dim))) == blocks
        calls, steps = self.run_counted(kind, monkeypatch, n_paths=8, steps=20, build=rule_path_contractive3d)
        assert calls["factor"] == steps + 1
        assert calls["lapack"] == 0
        assert calls["eigh"] == 0
        assert calls["field"] == blocks * steps
        assert calls["jac"] == 0

    def test_adf_step_on_the_closed_form_evaluates_no_field(self, monkeypatch):
        # contractive3d's gaussian_drift gives adf its terms; the guard still factors once a step
        calls, steps = self.run_counted("adf", monkeypatch, n_paths=8, steps=20)
        assert calls["factor"] == steps + 1
        assert calls["lapack"] == 0
        assert calls["eigh"] == 0
        assert calls["field"] == 0
        assert calls["jac"] == 0

    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_clamped_path_carries_its_eigen_root(self, kind, monkeypatch):
        # path 1 starts far out along x1, where -P S P dt outweighs P: its
        # Euler update is indefinite there and the guard clamps it
        model = rule_path_contractive3d()
        config = make_filter_config(kind, model)
        HtRinv = np.linalg.solve(model.R, model.H).T
        x = np.zeros((3, 3))
        P = np.tile(0.1 * np.eye(3)[:, :, None], (1, 1, 3))
        P[..., 1] = np.diag([2000.0, 1.0, 1.0])
        L = np.sqrt(P)  # P is diagonal
        obs = np.zeros((3, 3))
        calls = self.count_calls(model, monkeypatch)
        x, P, L, _, bad = _kb_step_batch(model, config, HtRinv, x, P, L, obs, 0.01)
        assert not bad.any()
        assert calls["eigh"] == 1
        assert np.linalg.eigvalsh(P[..., 1])[0] <= 1e-12
        assert np.abs(np.einsum("ikb,jkb->ijb", L, L) - P).max() <= 1e-12
        factored = calls["factor"]
        x, P, L, _, bad = _kb_step_batch(model, config, HtRinv, x, P, L, obs, 0.01)
        assert not bad.any()
        assert calls["eigh"] == 1
        assert calls["factor"] == factored + 1
        assert calls["field"] == 2

    @staticmethod
    def step_points(model, config, n_paths, rng):
        """``(seen, x, L)``: the points arrays one step of ``n_paths`` random states ``x`` hands to the field."""
        d = model.dim_x
        x = rng.uniform(-1.0, 1.0, (n_paths, d))
        G = rng.standard_normal((n_paths, d, d))
        P, L = _psd_root(np.moveaxis(G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(d), 0, -1))
        seen, field = [], model.f

        def recording(pts):
            seen.append(pts)
            return field(pts)

        model.f = recording
        HtRinv = model.HtRinv if model.time == "cont" else None
        _kb_step_batch(model, config, HtRinv, x, P, L, np.zeros((n_paths, model.dim_y)), 0.01)
        return seen, x, L

    @pytest.mark.parametrize("time", ["cont", "disc"])
    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_blocked_step_evaluates_each_point_once(self, kind, time, discrete_sine, monkeypatch, rng):
        # 37 paths in blocks of five: seven full blocks and a tail of two
        model = rule_path_contractive3d() if time == "cont" else discrete_sine()
        config = make_filter_config(kind, model)
        rule = config.functional.rule
        bound = 5 * rule.size * rule.dim
        monkeypatch.setattr(functionals, "BLOCK_COORDS", bound)
        seen, x, L = self.step_points(model, config, 37, rng)
        assert len(seen) == 8
        assert max(pts.size for pts in seen) <= bound
        assert np.array_equal(np.concatenate(seen), functionals._sigma_points(rule, x, L))

    @pytest.mark.parametrize("n_paths", [24, 1000])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_arrays_stay_below_the_mmap_threshold(self, dim, n_paths, rng):
        # glibc serves an allocation of 128 KiB or more by a fresh mmap and
        # unmaps it on free, so a block array that large faults its pages in
        # again on every step
        model = builtin_linear(-np.eye(dim), Q=np.eye(dim), H=np.eye(dim), R=np.eye(dim))
        for kind in ("ukf", "gh", "adf"):
            seen, _, _ = self.step_points(model, make_filter_config(kind, model), n_paths, rng)
            assert max(pts.nbytes for pts in seen) < 2**17, kind

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the 128 KiB mmap threshold is glibc's")
    def test_warm_adf_run_takes_no_page_faults(self):
        # a fresh process, as the benchmark runs it, with the allocator's
        # default thresholds; kbstab is imported from this copy of the code.
        # The model drops its gaussian_drift, so adf runs its 1000-point rule
        script = textwrap.dedent("""
            import dataclasses
            import resource
            from kbstab import builtin_contractive3d, make_filter_config
            from kbstab.filters import run_continuous_ensemble
            from kbstab.models import simulate_paths

            model = dataclasses.replace(builtin_contractive3d(), gaussian_drift=None)
            _, states, incr, _ = simulate_paths(model, 0.01, 0.5, 7, 24)
            config = make_filter_config("adf", model)
            run_continuous_ensemble(model, config, states, incr, 0.01)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run_continuous_ensemble(model, config, states, incr, 0.01)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(kbstab.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        # 50 steps of 24 paths: about 14,800 faults with 576 KB block arrays
        assert int(out.stdout) < 200

    def run_counted_discrete(self, kind, monkeypatch, model, n_paths=40, steps=30):
        _, states, meas = discrete_paths(model, n_paths, steps)
        calls = self.count_calls(model, monkeypatch)
        config = make_filter_config(kind, model)
        run = run_discrete_ensemble(model, config, states, meas)
        assert np.all(run.diverged < 0)
        return calls, steps

    def test_discrete_ekf_step_makes_no_eigendecomposition(self, monkeypatch, discrete_sine):
        calls, steps = self.run_counted_discrete("ekf", monkeypatch, discrete_sine())
        assert calls["factor"] == steps + 1
        assert calls["lapack"] == 0
        assert calls["eigh"] == 0
        assert calls["field"] == steps
        assert calls["jac"] == steps

    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_discrete_rule_step_makes_one_root_and_one_field_evaluation(self, kind, monkeypatch,
                                                                         discrete_sine):
        calls, steps = self.run_counted_discrete(kind, monkeypatch, discrete_sine(), n_paths=8, steps=20)
        assert calls["factor"] == steps + 1
        assert calls["lapack"] == 0
        assert calls["eigh"] == 0
        assert calls["field"] == steps
        assert calls["jac"] == 0


class TestFilterConfig:
    def test_indefinite_tuning_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(functional=Functional("ekf"), Q_tuned=np.diag([1.0, 0.0]),
                         x0_hat=np.zeros(2), P0=np.eye(2))

    @pytest.mark.parametrize("field, value", [
        ("Q_tuned", [[1.0, 0.5], [0.0, 1.0]]),
        ("P0", [[1.0, 0.3], [-0.3, 1.0]]),
    ])
    def test_asymmetric_tuning_rejected(self, field, value):
        model = builtin_linear(-np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError, match=f"{field} must be symmetric"):
            make_filter_config("ekf", model, **{field: value})

    def test_time_kind_mismatch_rejected(self, discrete_sine):
        # a config has no time kind; the model's must match the entry point's
        discrete = discrete_sine()
        continuous = builtin_linear(-np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        states, meas = np.zeros((1, 3, 2)), np.zeros((1, 3, 2))
        with pytest.raises(ValueError):
            run_discrete_ensemble(continuous, make_filter_config("ukf", continuous), states, meas)
        with pytest.raises(ValueError):
            run_continuous_ensemble(discrete, make_filter_config("ekf", discrete), states, meas, 0.01)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_filter_config("pf", builtin_contractive3d())

    @pytest.mark.parametrize("field, value", [
        ("Q_tuned", np.eye(2)),
        ("P0", np.eye(4)),
        ("x0_hat", np.zeros(2)),
    ])
    def test_wrong_size_tuning_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_filter_config("ekf", builtin_contractive3d(), **{field: value})

    def test_consistent_tuning_of_the_wrong_model_size_rejected(self):
        with pytest.raises(ValueError, match="x0_hat, Q_tuned and P0 have size 2, not dim_x = 3"):
            make_filter_config("ukf", builtin_contractive3d(), Q_tuned=np.eye(2), x0_hat=np.zeros(2),
                               P0=np.eye(2))

    @pytest.mark.parametrize("d", [2, 4])
    def test_run_rejects_a_config_of_another_size(self, d):
        config = FilterConfig(functional=Functional("ekf"), Q_tuned=np.eye(d), x0_hat=np.zeros(d), P0=np.eye(d))
        message = f"x0_hat, Q_tuned and P0 have size {d}, not dim_x = 3"
        continuous = builtin_contractive3d()
        _, states, incr, _ = simulate_paths(continuous, 0.02, 0.1, 0, 5)
        with pytest.raises(ValueError, match=message):
            run_continuous_ensemble(continuous, config, states, incr, 0.02)
        discrete = builtin_discrete_linear(0.5 * np.eye(3), Q=np.eye(3), H=np.eye(3), R=np.eye(3))
        _, states, meas, _ = simulate_discrete_paths(discrete, 5, 0, 5)
        with pytest.raises(ValueError, match=message):
            run_discrete_ensemble(discrete, config, states, meas)
        spec = ExperimentSpec(dt=0.02, horizon=0.2, trajectories=5, checkpoint_every=0.1)
        with pytest.raises(ValueError, match=message):
            run_experiment(spec, configs={"ekf": config})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tuning_rejected(self, bad):
        with pytest.raises(ValueError, match="x0_hat must be finite"):
            make_filter_config("ekf", builtin_contractive3d(), x0_hat=[0.0, bad, 0.0])
        for field in ("Q_tuned", "P0"):
            M = np.eye(2)
            M[0, 1] = M[1, 0] = bad
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                FilterConfig(functional=Functional("ekf"), **{"Q_tuned": np.eye(2), "P0": np.eye(2),
                                                               field: M}, x0_hat=np.zeros(2))


class TestSingularMeasurementNoise:
    """A singular ``R`` simulates, but every continuous entry point that forms ``R^-1`` names it."""

    @pytest.mark.parametrize("entry", ["filter", "ensemble", "step"])
    def test_R_named(self, entry, record_filter):
        model = builtin_linear(-np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.diag([1.0, 0.0]))
        config = make_filter_config("ekf", model)
        states, incr = one_path(model, 0.01, 0.05, seed=0)
        run = {
            "filter": lambda: record_filter(model, config, states, incr, 0.01),
            "ensemble": lambda: run_continuous_ensemble(model, config, states, incr, 0.01),
            "step": lambda: kb_step(model, config, np.zeros(2), np.eye(2), np.zeros(2), 0.01),
        }[entry]
        with pytest.raises(IndefiniteMatrixError, match="R must be positive definite"):
            run()


def predict(model, config, x, P):
    """Discrete prediction ``(L(f), Lam(f) + Q_tuned)`` of a single state (``_drift`` is batch-last in ``P``)."""
    mean, lam = _drift(model, config, x[None], P[:, :, None])
    return mean[0], lam[..., 0] + config.Q_tuned


def update(model, x_pred, P_pred, y):
    """Discrete update ``(x, P, K)`` of a single predictive pair."""
    x, P, K = _update_batch(model, x_pred[None], P_pred[None], y[None])
    return x[0], P[0], K[0]


class TestDiscretePredictUpdate:
    def test_identity_drift_adds_tuning(self):
        model = builtin_discrete_linear(np.eye(2), Q=0.3 * np.eye(2), H=np.eye(2), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        x = np.array([1.0, 2.0])
        P = np.diag([0.5, 1.5])
        x_pred, P_pred = predict(model, config, x, P)
        assert np.allclose(x_pred, x)
        assert np.allclose(P_pred, P + 0.3 * np.eye(2))

    def test_affine_drift_all_variants(self, rng):
        A = np.array([[0.5, 0.2], [-0.1, 0.7]])
        model = builtin_discrete_linear(A, Q=0.2 * np.eye(2), H=np.eye(2), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        x = rng.standard_normal(2)
        G = rng.standard_normal((2, 2))
        P = G @ G.T + 0.1 * np.eye(2)
        for kind in ("ekf", "ukf", "adf", "gh"):
            config = make_filter_config(kind, model)
            x_pred, P_pred = predict(model, config, x, P)
            assert np.allclose(x_pred, A @ x, atol=1e-9)
            assert np.allclose(P_pred, A @ P @ A.T + 0.2 * np.eye(2), atol=1e-8)

    def test_sharp_measurements_pin_estimate(self):
        model = builtin_discrete_linear(np.eye(2), Q=np.eye(2), H=np.eye(2), R=1e-12 * np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        y = np.array([3.0, -1.0])
        x, P, K = update(model, np.zeros(2), np.eye(2), y)
        assert np.abs(x - y).max() <= 1e-6
        assert np.allclose(K, np.eye(2), atol=1e-6)

    def test_no_observation_keeps_prediction(self):
        model = builtin_discrete_linear(np.eye(2), Q=np.eye(2), H=np.zeros((2, 2)), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        x_pred = np.array([0.5, 0.5])
        P_pred = np.diag([2.0, 3.0])
        x, P, K = update(model, x_pred, P_pred, np.array([9.0, 9.0]))
        assert np.array_equal(x, x_pred)
        assert np.allclose(P, P_pred)
        assert np.all(K == 0.0)

    def test_scalar_update_numbers(self):
        model = builtin_discrete_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                                        mu0=np.zeros(1), Sigma0=np.eye(1))
        x, P, K = update(model, np.zeros(1), np.eye(1), np.array([2.0]))
        assert K[0, 0] == pytest.approx(0.5)
        assert x[0] == pytest.approx(1.0)
        assert P[0, 0] == pytest.approx(0.5)


class TestDiscreteFilterOracle:
    def test_matches_textbook_kalman_filter(self, rng, record_filter):
        # closed-form linear Kalman recursion with explicit inverses as oracle
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        Q = np.diag([0.2, 0.1])
        H = np.array([[1.0, 0.0]])
        R = np.array([[0.5]])
        model = builtin_discrete_linear(A, Q=Q, H=H, R=R, mu0=np.zeros(2), Sigma0=np.eye(2))
        _, states, meas = discrete_paths(model, 1, steps=100, seed=3)
        config = make_filter_config("ekf", model)
        _, est, cov, _ = record_filter(model, config, states, meas)

        x, P = np.zeros(2), np.eye(2)
        for k in range(1, 101):
            x_pred = A @ x
            P_pred = A @ P @ A.T + Q
            S = H @ P_pred @ H.T + R
            K = P_pred @ H.T @ np.linalg.inv(S)
            y = meas[0, k]
            x = x_pred + K @ (y - H @ x_pred)
            P = (np.eye(2) - K @ H) @ P_pred
            assert np.abs(est[k, 0] - x).max() <= 1e-10
            assert np.abs(cov[k, 0] - P).max() <= 1e-10

    def test_quadrature_variants_match_on_linear_model(self, record_filter):
        A = 0.7 * np.eye(2)
        model = builtin_discrete_linear(A, Q=0.1 * np.eye(2), H=np.eye(2), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        _, states, meas = discrete_paths(model, 1, steps=50, seed=8)
        _, base, _, _ = record_filter(model, make_filter_config("ekf", model), states, meas)
        for kind in ("ukf", "gh"):
            _, est, _, _ = record_filter(model, make_filter_config(kind, model), states, meas)
            assert np.abs(est - base).max() <= 1e-8
