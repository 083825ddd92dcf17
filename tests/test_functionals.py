import functools
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbstab import (
    AssumptionInputs,
    Functional,
    assumption_inputs,
    check_assumption_continuous,
    check_assumption_discrete,
    eval_mean,
    eval_riccati_cont,
    eval_riccati_disc,
    gauss_hermite_rule,
    unscented_rule,
)
from kbstab.errors import IndefiniteMatrixError
from kbstab.filters import make_filter_config
from kbstab.functionals import (
    _sample_inputs,
    _sigma_points,
    eval_drift_batch,
    eval_mean_batch,
    eval_riccati_cont_batch,
    eval_riccati_disc_batch,
    reference_rule,
)
from kbstab.models import builtin_contractive3d, builtin_integrated_velocity
from kbstab.quadrature import _psd_root
from kbstab.matrix_measures import spectral_norm


def affine_field(A, b):
    A = np.asarray(A, float)
    b = np.asarray(b, float)

    def f(x):
        return x @ A.T + b

    return f


def jacobian_average(jac, rule, x, P):
    """Oracle ``sum_i w_i J(x + sqrt(P) xi_i) P``: the rule's estimate of ``E[J(X)] P``."""
    vals, vecs = np.linalg.eigh(P)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    J = np.asarray(jac(x + rule.points @ root), dtype=float)
    return np.einsum("p,pij->ij", rule.weights, J) @ P


@functools.lru_cache(maxsize=None)
def all_functionals(dim):
    return (
        Functional("ekf"),
        Functional("sigma", reference_rule(dim)),
        Functional("sigma", unscented_rule(dim)),
        Functional("sigma", gauss_hermite_rule(dim, 3)),
    )


@st.composite
def affine_cases(draw):
    """``(A, b, x, P)`` with ``d`` in 1..4 and ``P = G G^T`` of any rank."""
    d = draw(st.integers(1, 4))
    rank = draw(st.integers(0, d))

    def entries(shape, bound):
        return draw(arrays(float, shape, elements=st.floats(-bound, bound)))

    G = entries((d, rank), 2.0)
    return entries((d, d), 3.0), entries(d, 3.0), entries(d, 3.0), G @ G.T


def affine_jac(A):
    def jac(z):
        return np.broadcast_to(A, z.shape[:-1] + A.shape)

    return jac


class TestEvalMean:
    @given(affine_cases())
    def test_affine_exactness_all_variants(self, case):
        # every functional reproduces the mean A x + b of an affine field; the
        # shared sigma-point evaluation equals the separate evaluators bit for bit
        A, b, x, P = case
        g = affine_field(A, b)
        xb, Pb = x[None], P[:, :, None]
        for F in all_functionals(len(x)):
            assert np.abs(eval_mean(F, g, x, P) - (A @ x + b)).max() <= 1e-9
            for time, riccati in (("cont", eval_riccati_cont_batch), ("disc", eval_riccati_disc_batch)):
                if F.kind == "ekf":
                    with pytest.raises(ValueError):
                        eval_drift_batch(F, time, g, xb, Pb)
                    continue
                mean, lam = eval_drift_batch(F, time, g, xb, Pb)
                assert np.array_equal(mean, eval_mean_batch(F, g, xb, Pb))
                assert np.array_equal(lam, riccati(F, g, xb, Pb))

    def test_scalar_square_under_adf(self):
        F = Functional("sigma", reference_rule(1))

        def g(z):
            return z**2

        out = eval_mean(F, g, np.array([1.0]), np.array([[2.0]]))
        assert out[0] == pytest.approx(3.0, abs=1e-9)

    def test_ut_close_to_reference_on_benchmark_drift(self):
        # the third drift component is strongly nonlinear at unit scale; the
        # reference rule puts the gap of the 7-point transform at 0.064
        model = builtin_contractive3d()
        ut = Functional("sigma", unscented_rule(3))
        ref = Functional("sigma", gauss_hermite_rule(3, 10))
        x, P = np.zeros(3), np.eye(3)
        diff = eval_mean(ut, model.f, x, P) - eval_mean(ref, model.f, x, P)
        assert np.abs(diff).max() <= 0.07

    def test_linearity_in_field(self, rng):
        d = 2
        A1, b1 = rng.standard_normal((d, d)), rng.standard_normal(d)
        A2, b2 = rng.standard_normal((d, d)), rng.standard_normal(d)

        def g1(x):
            return np.sin(x) @ A1.T + b1

        def g2(x):
            return np.tanh(x) @ A2.T + b2

        al, be = 0.7, -1.3

        def combo(x):
            return al * g1(x) + be * g2(x)

        F = Functional("sigma", unscented_rule(d))
        x = rng.standard_normal(d)
        G = rng.standard_normal((d, d))
        P = G @ G.T
        lhs = eval_mean(F, combo, x, P)
        rhs = al * eval_mean(F, g1, x, P) + be * eval_mean(F, g2, x, P)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_parameter_lipschitz_on_smooth_drift(self, rng):
        # small input perturbations move the output proportionally
        model = builtin_contractive3d()
        F = Functional("sigma", unscented_rule(3))
        x, P = rng.standard_normal(3), np.eye(3)
        base = eval_mean(F, model.f, x, P)
        for eps in (1e-4, 1e-5):
            dx = eps * rng.standard_normal(3)
            moved = eval_mean(F, model.f, x + dx, P)
            assert np.linalg.norm(moved - base) <= 50 * np.linalg.norm(dx)
            dP = eps * np.eye(3)
            moved_p = eval_mean(F, model.f, x, P + dP)
            assert np.linalg.norm(moved_p - base) <= 50 * np.linalg.norm(dP)

    def test_indefinite_covariance_rejected(self):
        F = Functional("sigma", unscented_rule(2))
        with pytest.raises((IndefiniteMatrixError, ValueError)):
            eval_mean(F, lambda x: x, np.zeros(2), np.diag([1.0, -0.5]))


class TestCovarianceArgument:
    """The single-pair evaluators judge ``P`` with the library's one covariance check."""

    @pytest.mark.parametrize("evaluate", [eval_mean, eval_riccati_cont, eval_riccati_disc])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, evaluate, bad):
        F = Functional("sigma", unscented_rule(2))
        with pytest.raises(ValueError, match="^P must be a finite number, got "):
            evaluate(F, lambda x: x, np.zeros(2), np.diag([1.0, bad]))

    def test_stack_members_judged_each_on_its_own_scale(self):
        # one batch-wide scale of 1e6 would pass the second member's -1e-5 as rounding noise
        F = Functional("sigma", unscented_rule(2))
        P = np.stack([1e6 * np.eye(2), np.diag([1.0, -1e-5])])
        with pytest.raises(IndefiniteMatrixError, match="P must be positive semidefinite"):
            eval_mean(F, lambda x: x, np.zeros((2, 2)), P)


class TestRiccatiContinuous:
    @given(affine_cases())
    def test_affine_gives_AP(self, case):
        A, b, x, P = case
        g = affine_field(A, b)
        for F in all_functionals(len(x)):
            out = eval_riccati_cont(F, g, x, P, jac=affine_jac(A))
            assert np.abs(out - A @ P).max() <= 1e-8

    def test_ekf_at_origin_is_jacobian(self):
        model = builtin_contractive3d()
        F = Functional("ekf")
        out = eval_riccati_cont(F, model.f, np.zeros(3), np.eye(3), jac=model.jac_f)
        expected = np.array([[-3.0, 0.0, -2.0], [-1.0, -1.0, -1.0], [-1.0, 0.0, -2.0]])
        assert np.allclose(out, expected, atol=1e-12)

    def test_unscented_stein_term_exact_on_quadratics(self, rng):
        # for g(z) = A z + b + [z^T B_k z]_k the Jacobian is affine, so
        # E[J_g(X)] P = J_g(x) P; a symmetric degree-two rule reproduces it
        # for every root of P, up to roundoff
        for d in (2, 3, 4):
            F = Functional("sigma", unscented_rule(d))
            for _ in range(10):
                A, b = rng.standard_normal((d, d)), rng.standard_normal(d)
                B = rng.standard_normal((d, d, d))

                def g(z):
                    return z @ A.T + b + np.einsum("...i,kij,...j->...k", z, B, z)

                x = rng.standard_normal(d)
                G = rng.standard_normal((d, d))
                P = G @ G.T + 0.1 * np.eye(d)
                expected = (A + np.einsum("j,kji->ki", x, B + np.swapaxes(B, 1, 2))) @ P
                out = eval_riccati_cont(F, g, x, P)
                assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_sigma_vs_adf_cross_oracle(self, rng):
        # typical gap of the unscented Stein term to the GH10 Jacobian average
        # on this drift at unit scale: the median over 1000 draws is near
        # 0.05; single draws reach 0.6, so no per-draw bound is asserted
        model = builtin_contractive3d()
        sig = Functional("sigma", unscented_rule(3))
        oracle_rule = gauss_hermite_rule(3, 10)
        x = rng.uniform(-1, 1, (1000, 3))
        G = 0.5 * rng.standard_normal((1000, 3, 3))
        P = G @ np.swapaxes(G, 1, 2) + 0.05 * np.eye(3)
        stein = np.moveaxis(eval_riccati_cont_batch(sig, model.f, x, np.moveaxis(P, 0, -1)), -1, 0)
        gaps = [np.abs(stein[i] - jacobian_average(model.jac_f, oracle_rule, x[i], P[i])).max()
                for i in range(len(x))]
        assert np.median(gaps) <= 0.08

    # Largest error of each rule against the exact moments over each draw
    # domain, x in [-3, 3]^3 and tr P log-uniform in the band: measured by
    # 100,000 random draws and a scan of rank-one P along 600 directions over
    # a grid of (x1, x3), then rounded up. They bound the whole domain, not
    # one set of draws. Measured (mean, Riccati term):
    # band 1e-3..0.1: ukf 6.1e-3, 5.7e-3; gh 2.0e-3, 2.4e-3; adf 6.4e-7, 6.7e-7
    # band 1e-2..1: ukf 0.143, 0.107; gh 0.143, 0.094; adf 5.9e-3, 6.3e-3
    EXACT_BOUNDS = {
        ("ukf", 0.1): (8e-3, 8e-3), ("gh", 0.1): (3e-3, 3e-3), ("adf", 0.1): (1e-6, 1e-6),
        ("ukf", 1.0): (0.18, 0.14), ("gh", 1.0): (0.18, 0.12), ("adf", 1.0): (8e-3, 8e-3),
    }

    @pytest.mark.parametrize("top", [0.1, 1.0])
    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_rule_within_its_measured_error_of_the_exact_moments(self, kind, top, rng):
        # contractive3d's closed-form gaussian_drift is the oracle for the
        # rule each filter config carries (adf's GH10 included)
        model = builtin_contractive3d()
        F = make_filter_config(kind, model).functional
        x = rng.uniform(-3.0, 3.0, (200, 3))
        G = rng.standard_normal((200, 3, 3))
        P = G @ np.swapaxes(G, 1, 2)
        P *= (np.exp(rng.uniform(np.log(top / 100), np.log(top), 200)) / np.trace(P, axis1=1, axis2=2))[:, None, None]
        P = np.moveaxis(P, 0, -1).copy()
        mean, lam = eval_drift_batch(F, "cont", model.f, x, P)
        exact_mean, exact_lam = model.gaussian_drift(x, P)
        mean_bound, lam_bound = self.EXACT_BOUNDS[kind, top]
        assert np.abs(mean - exact_mean).max() <= mean_bound
        assert np.abs(lam - exact_lam).max() <= lam_bound


def random_psd_batch(rng, B, d):
    """Random PSD stack over several scales, with every third member singular."""
    G = rng.standard_normal((B, d, d))
    G[::3, :, 0] = 0.0
    P = G @ np.swapaxes(G, 1, 2)
    return P * np.exp(rng.uniform(np.log(1e-3), np.log(3.0), B))[:, None, None]


def reference_drift(F, g, x, P):
    """Path-by-path loop over the sigma points, rooting each P on its own with the shared helper."""
    w, xi = F.rule.weights, F.rule.points
    means, lams = [], []
    for xb, Pb in zip(x, P):
        root = _psd_root(Pb[:, :, None])[1][..., 0]
        assert np.abs(root @ root.T - Pb).max() <= 1e-12 * np.abs(Pb).max()
        mean, cross = np.zeros(len(xb)), np.zeros_like(Pb)
        for wi, xii in zip(w, xi):
            gz = g(xb + root @ xii)
            mean += wi * gz
            cross += wi * np.outer(gz, xii)
        means.append(mean)
        lams.append(cross @ root.T)
    return np.array(means), np.array(lams)


class TestSharedDriftEvaluation:
    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_matches_separate_functionals(self, kind, rng):
        model = builtin_contractive3d()
        F = make_filter_config(kind, model).functional
        x = rng.uniform(-2.0, 2.0, (12, 3))
        P = random_psd_batch(rng, 12, 3)
        P_last = np.moveaxis(P, 0, -1)
        mean, lam = eval_drift_batch(F, "cont", model.f, x, P_last)
        held = eval_drift_batch(F, "cont", model.f, x, P_last, root=_psd_root(P_last)[1])
        assert np.array_equal(mean, held[0]) and np.array_equal(lam, held[1])
        assert np.abs(mean - eval_mean_batch(F, model.f, x, P_last)).max() <= 1e-12
        assert np.abs(lam - eval_riccati_cont_batch(F, model.f, x, P_last)).max() <= 1e-12
        lam = np.moveaxis(lam, -1, 0)
        ref_mean, ref_lam = reference_drift(F, model.f, x, P)
        assert np.abs(mean - ref_mean).max() <= 1e-12
        assert np.abs(lam - ref_lam).max() <= 1e-12

    def test_unshared_rules_rejected(self):
        # the ekf functional has no sigma points to share
        model = builtin_contractive3d()
        F = make_filter_config("ekf", model).functional
        x, P = np.zeros((1, 3)), np.eye(3)[:, :, None]
        for time in ("cont", "disc"):
            with pytest.raises(ValueError):
                eval_drift_batch(F, time, model.f, x, P)


class TestSigmaPoints:
    @pytest.mark.parametrize("kind", ["ukf", "gh", "adf"])
    def test_points_are_the_state_plus_the_root_times_each_node(self, kind, rng):
        # Cholesky roots are lower triangular, so L xi and L^T xi differ
        model = builtin_contractive3d()
        rule = make_filter_config(kind, model).functional.rule
        x = rng.uniform(-2.0, 2.0, (12, 3))
        G = rng.standard_normal((12, 3, 3))
        L = np.linalg.cholesky(G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(3))
        pts = _sigma_points(rule, x, np.moveaxis(L, 0, -1))
        expected = x[:, None, :] + np.einsum("bjk,ik->bij", L, rule.points)
        assert pts.shape == (12, rule.size, 3)
        assert np.abs(pts - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_wide_batch_peak_memory_is_bounded(self, rng, traced_peak):
        # 10,000 inputs x 27 points x 3 coordinates is 6.5 MB per array as one
        # block; in blocks of BLOCK_COORDS the call peaked at 1.8 MB, against
        # 19.4 MB unblocked (numpy 2.4)
        model = builtin_contractive3d()
        F = Functional("sigma", gauss_hermite_rule(3, 3))
        x = rng.uniform(-5.0, 5.0, (10000, 3))
        G = rng.standard_normal((10000, 3, 3))
        P = G @ np.swapaxes(G, 1, 2)
        assert traced_peak(eval_mean_batch, F, model.f, x, np.moveaxis(P, 0, -1)) <= 8e6

    @staticmethod
    def drift_step_peak(traced_peak, rng, kind, B):
        """Peak bytes of one continuous drift evaluation on contractive3d beyond its outputs."""
        model = builtin_contractive3d()
        F = make_filter_config(kind, model).functional
        x = rng.uniform(-2.0, 2.0, (B, 3))
        P = np.moveaxis(random_psd_batch(rng, B, 3), 0, -1)
        peak = traced_peak(eval_drift_batch, F, "cont", model.f, x, P, root=_psd_root(P)[1])
        return peak - 8 * (B * 3 + 9 * B)

    def test_ukf_step_holds_few_block_arrays(self, rng, traced_peak):
        # fig1's 500 paths are one block of the 7-point rule, whose arrays
        # are 8 B n d = 84,000 bytes. Beyond the outputs the step peaked at
        # 3.32 of them (numpy 2.4); holding the block's points through the
        # reductions raised it to 4.32
        assert self.drift_step_peak(traced_peak, rng, "ukf", 500) <= 3.75 * 8 * 500 * 7 * 3

    def test_adf_step_peak_is_independent_of_the_batch(self, rng, traced_peak):
        # the reference rule's 1000 points take 5 paths a block, so the peak
        # beyond the outputs is one block's: 482,856 bytes at 24 paths and
        # 483,048 at 500 (numpy 2.4)
        narrow = self.drift_step_peak(traced_peak, rng, "adf", 24)
        wide = self.drift_step_peak(traced_peak, rng, "adf", 500)
        assert abs(wide - narrow) <= 0.01 * narrow


class TestSigmaArguments:
    """The sigma evaluators name a root or a state that does not fit."""

    def test_root_of_the_wrong_shape_named(self):
        F = Functional("sigma", unscented_rule(3))
        x, P = np.zeros((2, 3)), np.tile(np.eye(3)[:, :, None], (1, 1, 2))
        for root in (np.eye(3), np.tile(np.eye(3)[:, :, None], (1, 1, 3))):
            for time in ("cont", "disc"):
                with pytest.raises(ValueError, match="root"):
                    eval_drift_batch(F, time, lambda z: z, x, P, root=root)

    @pytest.mark.parametrize("evaluate, x, P", [
        (eval_mean, np.zeros(2), np.eye(2)),
        (eval_mean_batch, np.zeros((4, 2)), np.tile(np.eye(2)[:, :, None], (1, 1, 4))),
        (functools.partial(eval_drift_batch, time="cont"), np.zeros((4, 2)), np.tile(np.eye(2)[:, :, None], (1, 1, 4))),
        (functools.partial(eval_drift_batch, time="disc"), np.zeros((4, 2)), np.tile(np.eye(2)[:, :, None], (1, 1, 4))),
    ])
    def test_state_of_the_wrong_size_named(self, evaluate, x, P):
        F = Functional("sigma", unscented_rule(3))
        with pytest.raises(ValueError, match=r"^x must have shape \(any, 3\), got \(\d, 2\)"):
            evaluate(F=F, g=lambda z: z, x=x, P=P)


class TestRiccatiDiscrete:
    @given(affine_cases())
    def test_affine_gives_APAt(self, case):
        A, b, x, P = case
        g = affine_field(A, b)
        for F in all_functionals(len(x)):
            out = eval_riccati_disc(F, g, x, P, jac=affine_jac(A))
            assert np.abs(out - A @ P @ A.T).max() <= 1e-8

    def test_identity_map(self):
        F = Functional("sigma", unscented_rule(2))
        P = np.diag([1.0, 2.0])
        out = eval_riccati_disc(F, lambda x: x, np.zeros(2), P)
        assert np.allclose(out, P, atol=1e-10)

    def test_ut_vs_gh8_on_velocity_drift(self, rng):
        # propagated-covariance differences peak near 0.17 at this input scale
        model = builtin_integrated_velocity()
        ut = Functional("sigma", unscented_rule(2))
        gh = Functional("sigma", gauss_hermite_rule(2, 8))
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            G = 0.3 * rng.standard_normal((2, 2))
            P = G @ G.T + 0.02 * np.eye(2)
            a = eval_riccati_disc(ut, model.f, x, P)
            b = eval_riccati_disc(gh, model.f, x, P)
            assert np.linalg.norm(a - b) <= 0.2

    def test_output_is_psd_symmetric(self, rng):
        model = builtin_integrated_velocity()
        F = Functional("sigma", unscented_rule(2))
        for _ in range(10):
            G = rng.standard_normal((2, 2))
            P = G @ G.T
            out = eval_riccati_disc(F, model.f, rng.standard_normal(2), P)
            assert np.allclose(out, out.T, atol=1e-10)
            assert np.linalg.eigvalsh(out)[0] >= -1e-12


class TestAssumptionChecks:
    def test_ekf_passes_with_zero_constant(self):
        def g(z):
            return np.sin(z)

        F = Functional("ekf")
        report = check_assumption_continuous(F, g, 1.0, -1.0, assumption_inputs(1, samples=5000))
        assert report.c_g_used == 0.0
        assert report.passed

    def test_ut_on_contractive3d(self):
        model = builtin_contractive3d()
        F = Functional("sigma", unscented_rule(3))
        report = check_assumption_continuous(
            F, model.f, model.known_M_f, model.known_N_f, assumption_inputs(3, samples=10000))
        assert report.passed
        assert report.sample_count == 10000

    def test_undersized_constant_fails(self):
        # slopes in [-2, 2] with strong curvature; the admissible constant is
        # conservative, but 1/100 of it is small enough to be violated
        def g(z):
            return -0.4 * np.cos(5.0 * z)

        F = Functional("sigma", unscented_rule(1, 2.0))
        inputs = assumption_inputs(1, samples=10000, box=(-2, 2))
        ok = check_assumption_continuous(F, g, 2.0, -2.0, inputs)
        assert ok.passed
        low = check_assumption_continuous(F, g, 2.0, -2.0, inputs, c_g=4.0 / 100)
        assert not low.passed
        assert low.worst_violation > 0

    def test_discrete_ekf_passes(self):
        def g(z):
            return np.tanh(z)

        F = Functional("ekf")
        report = check_assumption_discrete(F, g, 1.0, assumption_inputs(1, samples=5000))
        assert report.passed and report.c_g_used == 0.0

    def test_discrete_ut_on_velocity_drift(self, rng):
        model = builtin_integrated_velocity()
        F = Functional("sigma", unscented_rule(2))
        jf = float(np.max(spectral_norm(model.jac_f(rng.uniform(-8, 8, size=(4096, 2))))))
        report = check_assumption_discrete(F, model.f, jf, assumption_inputs(2, samples=10000, seed=1))
        assert report.passed

    def test_discrete_affine_needs_no_trace_term(self, rng):
        A = np.array([[0.3, 0.1], [0.0, -0.4]])
        g = affine_field(A, rng.standard_normal(2))
        jf = float(np.linalg.norm(A, 2))
        inputs = assumption_inputs(2, samples=2000, seed=2)
        for F in all_functionals(2):
            report = check_assumption_discrete(F, g, jf, inputs, c_g=0.0)
            assert report.passed

    @pytest.mark.parametrize("samples", [0, -1, 2.5, True, "10"])
    def test_bad_samples_named(self, samples):
        with pytest.raises(ValueError, match="^samples "):
            assumption_inputs(1, samples=samples)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0, True, "2"])
    def test_bad_dim_named(self, dim):
        with pytest.raises(ValueError, match="^dim "):
            assumption_inputs(dim, samples=10)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "7", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match="^seed "):
            assumption_inputs(1, samples=10, seed=seed)

    @pytest.mark.parametrize("box", [(5, -5), (1.0, 1.0), (np.nan, 1.0), (0.0, np.inf), (0.0,), (0, 1, 2), 3,
                                     ("-5", "5"), (True, 2)])
    def test_bad_box_named(self, box):
        with pytest.raises(ValueError, match="^box "):
            assumption_inputs(1, samples=10, box=box)

    def test_bad_constants_rejected(self):
        F = Functional("ekf")
        inputs = assumption_inputs(1, samples=10)
        with pytest.raises(ValueError, match="m_g"):
            check_assumption_continuous(F, lambda x: x, -1.0, 1.0, inputs)
        with pytest.raises(ValueError, match="jf_norm"):
            check_assumption_discrete(F, lambda x: x, -0.5, inputs)

    @pytest.mark.parametrize("bad", [True, False, "1", np.nan, np.array([1.0])])
    @pytest.mark.parametrize("constant", ["m_g", "n_g", "jf_norm"])
    def test_constant_that_is_no_finite_real_named(self, constant, bad):
        # a bool or a string is no constant: the check's own ValueError, not
        # a run with m_g = 1 or numpy's TypeError
        F = Functional("ekf")
        inputs = assumption_inputs(1, samples=10)
        call = {
            "m_g": lambda: check_assumption_continuous(F, lambda x: x, bad, -1.0, inputs),
            "n_g": lambda: check_assumption_continuous(F, lambda x: x, 2.0, bad, inputs),
            "jf_norm": lambda: check_assumption_discrete(F, lambda x: x, bad, inputs),
        }[constant]
        with pytest.raises(ValueError, match=f"^{constant} must be a finite number, got {re.escape(repr(bad))}$"):
            call()


def mixed_field(z):
    return -z + 0.3 * np.sin(z[..., ::-1]) + 0.1 * z**2


CHECKS = {"cont": (check_assumption_continuous, (0.5, -1.5)), "disc": (check_assumption_discrete, (1.2,))}


class TestSharedInputs:
    """A set drawn by ``assumption_inputs`` is the one input of the checks."""

    def test_set_is_the_checks_own_draw(self):
        inputs = assumption_inputs(2, samples=50, seed=4, box=(-1, 3))
        assert (inputs.samples, inputs.dim) == (50, 2)
        for got, want in zip(inputs, _sample_inputs(2, 50, 4, (-1.0, 3.0))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("time", ["cont", "disc"])
    def test_set_of_another_size_than_the_rule_names_inputs(self, time):
        check, constants = CHECKS[time]
        inputs = assumption_inputs(2, samples=100)
        with pytest.raises(ValueError, match=r"^inputs must have shape \(any, 3\), got \(100, 2\)"):
            check(Functional("sigma", unscented_rule(3)), mixed_field, *constants, inputs=inputs)

    @pytest.mark.parametrize("time", ["cont", "disc"])
    @pytest.mark.parametrize("stale", [dict(samples=10), dict(seed=0), dict(box=(-5.0, 5.0)), dict(dim=2)])
    def test_checks_take_no_sampling_arguments(self, time, stale):
        check, constants = CHECKS[time]
        with pytest.raises(TypeError, match=next(iter(stale))):
            check(Functional("ekf"), mixed_field, *constants, **stale)

    @pytest.mark.parametrize("time", ["cont", "disc"])
    def test_raw_triple_names_inputs(self, time):
        check, constants = CHECKS[time]
        with pytest.raises(ValueError, match="^inputs "):
            check(Functional("ekf"), mixed_field, *constants, inputs=tuple(assumption_inputs(2, samples=10)))

    MISMATCHED = {
        ((10, 2), (10, 2), (9, 2, 2)): r"P must have shape \(10, 2, 2\), got \(9, 2, 2\)",
        ((10, 2), (10, 3), (10, 2, 2)): r"x_alt must have shape \(10, 2\), got \(10, 3\)",
        ((10,), (10,), (10,)): r"x must have shape \(any, any\), got \(10,\)",
        ((0, 2), (0, 2), (0, 2, 2)): "samples must be at least 1, got 0",
    }

    @pytest.mark.parametrize("shapes", list(MISMATCHED))
    def test_mismatched_triple_names_inputs(self, shapes):
        # the set's arrays are named as its fields, like a model's
        with pytest.raises(ValueError, match=f"^{self.MISMATCHED[shapes]}"):
            AssumptionInputs(*map(np.zeros, shapes))

    def test_arguments_checked_as_by_the_checks(self):
        with pytest.raises(ValueError, match="^samples "):
            assumption_inputs(2, samples=0)
        with pytest.raises(ValueError, match="^seed "):
            assumption_inputs(2, seed=1.5)
        with pytest.raises(ValueError, match="^box "):
            assumption_inputs(2, box=(1, 1))
        with pytest.raises(ValueError, match="^dim "):
            assumption_inputs(0)
