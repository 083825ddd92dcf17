import functools

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbstab import (
    Functional,
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
    @settings(derandomize=True, deadline=None)
    @given(affine_cases())
    def test_affine_exactness_all_variants(self, case):
        # every functional reproduces the mean A x + b of an affine field; the
        # shared sigma-point evaluation equals the separate evaluators bit for bit
        A, b, x, P = case
        g = affine_field(A, b)
        xb, Pb = x[None], P[None]
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


class TestRiccatiContinuous:
    @settings(derandomize=True, deadline=None)
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
        stein = eval_riccati_cont_batch(sig, model.f, x, P)
        gaps = [np.abs(stein[i] - jacobian_average(model.jac_f, oracle_rule, x[i], P[i])).max()
                for i in range(len(x))]
        assert np.median(gaps) <= 0.08

    def test_adf_matches_high_order_jacobian_average(self, rng):
        # Stein's identity E[J(X)] P = E[f(X) (X - m)^T]: the adf Riccati term
        # on its GH10 rule tracks a GH16 Jacobian average at tr P = 1, with x
        # from the assumption checks' default box, and no worse than the
        # GH10 Jacobian average it replaces
        model = builtin_contractive3d()
        adf = make_filter_config("adf", model).functional
        ref, oracle_rule = gauss_hermite_rule(3, 10), gauss_hermite_rule(3, 16)
        stein_err, jac_err = 0.0, 0.0
        for _ in range(200):
            x = rng.uniform(-5, 5, 3)
            G = rng.standard_normal((3, 3))
            P = G @ G.T
            P /= np.trace(P)
            oracle = jacobian_average(model.jac_f, oracle_rule, x, P)
            stein_err = max(stein_err, np.abs(eval_riccati_cont(adf, model.f, x, P) - oracle).max())
            jac_err = max(jac_err, np.abs(jacobian_average(model.jac_f, ref, x, P) - oracle).max())
        assert stein_err <= 2e-3
        assert stein_err <= jac_err


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
        root = _psd_root(Pb[None])[1][0]
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
        mean, lam = eval_drift_batch(F, "cont", model.f, x, P)
        held = eval_drift_batch(F, "cont", model.f, x, P, root=_psd_root(P)[1])
        assert np.array_equal(mean, held[0]) and np.array_equal(lam, held[1])
        assert np.abs(mean - eval_mean_batch(F, model.f, x, P)).max() <= 1e-12
        assert np.abs(lam - eval_riccati_cont_batch(F, model.f, x, P)).max() <= 1e-12
        ref_mean, ref_lam = reference_drift(F, model.f, x, P)
        assert np.abs(mean - ref_mean).max() <= 1e-12
        assert np.abs(lam - ref_lam).max() <= 1e-12

    def test_unshared_rules_rejected(self):
        # the ekf functional has no sigma points to share
        model = builtin_contractive3d()
        F = make_filter_config("ekf", model).functional
        x, P = np.zeros((1, 3)), np.eye(3)[None]
        for time in ("cont", "disc"):
            with pytest.raises(ValueError):
                eval_drift_batch(F, time, model.f, x, P)


class TestRiccatiDiscrete:
    @settings(derandomize=True, deadline=None)
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
        report = check_assumption_continuous(F, g, 1.0, -1.0, samples=5000, seed=0, dim=1)
        assert report.c_g_used == 0.0
        assert report.passed

    def test_ut_on_contractive3d(self):
        model = builtin_contractive3d()
        F = Functional("sigma", unscented_rule(3))
        report = check_assumption_continuous(
            F, model.f, model.known_M_f, model.known_N_f, samples=10000, seed=0)
        assert report.passed
        assert report.sample_count == 10000

    def test_undersized_constant_fails(self):
        # slopes in [-2, 2] with strong curvature; the admissible constant is
        # conservative, but 1/100 of it is small enough to be violated
        def g(z):
            return -0.4 * np.cos(5.0 * z)

        F = Functional("sigma", unscented_rule(1, 2.0))
        ok = check_assumption_continuous(F, g, 2.0, -2.0, samples=10000, seed=0, box=(-2, 2))
        assert ok.passed
        low = check_assumption_continuous(
            F, g, 2.0, -2.0, samples=10000, seed=0, box=(-2, 2), c_g=4.0 / 100)
        assert not low.passed
        assert low.worst_violation > 0

    def test_discrete_ekf_passes(self):
        def g(z):
            return np.tanh(z)

        F = Functional("ekf")
        report = check_assumption_discrete(F, g, 1.0, samples=5000, seed=0, dim=1)
        assert report.passed and report.c_g_used == 0.0

    def test_discrete_ut_on_velocity_drift(self, rng):
        model = builtin_integrated_velocity()
        F = Functional("sigma", unscented_rule(2))
        jf = float(np.max(spectral_norm(model.jac_f(rng.uniform(-8, 8, size=(4096, 2))))))
        report = check_assumption_discrete(F, model.f, jf, samples=10000, seed=1)
        assert report.passed

    def test_discrete_affine_needs_no_trace_term(self, rng):
        A = np.array([[0.3, 0.1], [0.0, -0.4]])
        g = affine_field(A, rng.standard_normal(2))
        jf = float(np.linalg.norm(A, 2))
        for F in all_functionals(2):
            report = check_assumption_discrete(F, g, jf, samples=2000, seed=2, c_g=0.0, dim=2)
            assert report.passed

    def test_bad_constants_rejected(self):
        F = Functional("ekf")
        with pytest.raises(ValueError):
            check_assumption_continuous(F, lambda x: x, -1.0, 1.0, dim=1)
        with pytest.raises(ValueError):
            check_assumption_discrete(F, lambda x: x, -0.5, dim=1)
