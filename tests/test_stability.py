import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kbstab import (
    ContinuousCertificate,
    beta,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    chi_square_moment_bound,
    continuous_concentration_threshold,
    continuous_mse_bound,
    contractive_certificate,
    discrete_certificate,
    discrete_concentration_threshold,
    discrete_mse_bound,
    gaussian_norm_moment,
    gronwall_continuous,
    inflation_mineig_bound,
    integrated_velocity_certificate,
    make_filter_config,
    naive_vs_filter,
    required_inflation,
)
from kbstab.errors import IndefiniteMatrixError, NoCertificateError, NotContractiveError, NotFullyObservedError
from kbstab.filters import FILTER_KINDS, FilterConfig, _kb_step_batch, run_discrete_ensemble
from kbstab.functionals import Functional
from kbstab.harness import certificate_for
from kbstab.models import VELOCITY_G_PRIME_MIN, simulate_discrete_paths, simulate_paths
from kbstab.stability import DiscreteCertificate, _velocity_box_sup_mu


class TestBeta:
    def test_zero(self):
        assert beta(0.0) == 0.0

    def test_two(self):
        assert beta(2.0) == pytest.approx(4.0 * math.e, rel=1e-12)
        assert beta(2.0) == pytest.approx(10.8731, abs=1e-4)

    def test_half(self):
        assert beta(0.5) == pytest.approx(1.5 * math.e, rel=1e-12)
        assert beta(0.5) == pytest.approx(4.0774, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            beta(-0.1)


class TestContractiveCertificate:
    def test_benchmark_trace_bound(self):
        model = builtin_contractive3d()
        cert = contractive_certificate(model, make_filter_config("ekf", model))
        assert cert.lam == pytest.approx(0.5947)
        assert cert.lambda_P == pytest.approx(2.552, abs=1e-3)
        assert cert.C_lambda == 0.0
        assert cert.T == 0.0
        assert cert.provenance == "analytic"

    def test_benchmark_quadrature_constant(self):
        model = builtin_contractive3d()
        cert = contractive_certificate(model, make_filter_config("ukf", model))
        assert cert.C_lambda == pytest.approx(4.867, abs=1e-3)

    def test_initial_error_level(self):
        model = builtin_contractive3d()
        cert = contractive_certificate(model, make_filter_config("ekf", model))
        assert cert.e_T_sq == pytest.approx(0.03)

    def test_not_contractive(self):
        model = builtin_integrated_velocity()
        config = make_filter_config("ekf", model)
        with pytest.raises(NotContractiveError):
            contractive_certificate(model, config, m_f=0.33, n_f=-1.7)

    def test_not_fully_observed(self):
        model = builtin_integrated_velocity()
        config = make_filter_config("ekf", model)
        with pytest.raises(NotFullyObservedError):
            contractive_certificate(model, config, m_f=-0.5, n_f=-1.7)

    def test_empirical_provenance_from_sampling(self):
        model = builtin_contractive3d()
        stripped = builtin_contractive3d()
        stripped.known_M_f = stripped.known_N_f = None
        cert = contractive_certificate(stripped, make_filter_config("ekf", model),
                                       box=[[-6, 6]] * 3, budget=1024)
        assert cert.provenance == "empirical"
        assert cert.lam == pytest.approx(0.5947, abs=0.02)


class TestCertificateTuningSize:
    """Every certificate builder rejects a config whose tuning does not fit the model."""

    @staticmethod
    def config(d):
        return FilterConfig(functional=Functional("ekf"), Q_tuned=np.eye(d), x0_hat=np.zeros(d), P0=np.eye(d))

    def test_contractive(self):
        with pytest.raises(ValueError, match="x0_hat, Q_tuned and P0 have size 2, not dim_x = 3"):
            contractive_certificate(builtin_contractive3d(), self.config(2))

    def test_integrated_velocity(self):
        with pytest.raises(ValueError, match="x0_hat, Q_tuned and P0 have size 3, not dim_x = 2"):
            integrated_velocity_certificate(builtin_integrated_velocity(), self.config(3))

    def test_discrete(self):
        model = builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError, match="x0_hat, Q_tuned and P0 have size 3, not dim_x = 2"):
            discrete_certificate(model, self.config(3), lambda_P_pred=1.0, lambda_P_upd=1.0)


class TestCertificateKindFromConfig:
    """Every builder, and ``certificate_for``, reads the filter from ``config.functional``."""

    @staticmethod
    def models():
        disc = builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        return builtin_contractive3d(), builtin_integrated_velocity(), disc

    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_consistency_constant_is_zero_exactly_for_ekf(self, kind):
        c3, iv, disc = self.models()
        certs = [contractive_certificate(c3, make_filter_config(kind, c3)),
                 integrated_velocity_certificate(iv, make_filter_config(kind, iv)),
                 certificate_for(c3, make_filter_config(kind, c3)),
                 certificate_for(iv, make_filter_config(kind, iv)),
                 discrete_certificate(disc, make_filter_config(kind, disc), 1.0, 1.0)]
        constants = [cert.C_lambda for cert in certs[:4]] + [certs[4].C_f]
        if kind == "ekf":
            assert constants == [0.0] * 5
        else:
            assert min(constants) > 0.0
        assert {cert.details["kind"] for cert in certs} == {"ekf" if kind == "ekf" else "quadrature"}

    def test_kind_argument_is_a_type_error(self):
        c3, iv, disc = self.models()
        with pytest.raises(TypeError):
            contractive_certificate(c3, make_filter_config("ukf", c3), "ekf")
        with pytest.raises(TypeError):
            contractive_certificate(c3, make_filter_config("ukf", c3), kind="nonsense")
        with pytest.raises(TypeError):
            integrated_velocity_certificate(iv, make_filter_config("ukf", iv), "ekf")
        with pytest.raises(TypeError):
            certificate_for(c3, make_filter_config("ukf", c3), "ekf")
        with pytest.raises(TypeError):
            discrete_certificate(disc, make_filter_config("ukf", disc), "ekf", 1.0, 1.0)


class TestContinuousBounds:
    def _cert(self, **kw):
        base = dict(lam=1.0, lambda_P=1.0, T=0.0, C_lambda=0.0, u=0.0, rho=-1.0,
                    C_T=1.0, e_T_sq=2.0, provenance="user")
        base.update(kw)
        return ContinuousCertificate(**base)

    def test_pure_decay(self):
        cert = self._cert()
        assert continuous_mse_bound(cert, 3.0) == pytest.approx(2.0 * math.exp(-6.0))

    def test_benchmark_asymptotes(self):
        model = builtin_contractive3d()
        ekf = contractive_certificate(model, make_filter_config("ekf", model))
        assert ekf.mse_asymptote == pytest.approx(4.577, abs=2e-3)
        ukf = contractive_certificate(model, make_filter_config("ukf", model))
        assert ukf.mse_asymptote == pytest.approx(25.45, abs=0.05)

    def test_monotone_nonincreasing(self):
        model = builtin_contractive3d()
        cert = contractive_certificate(model, make_filter_config("ekf", model))
        ts = np.linspace(0, 20, 200)
        vals = [continuous_mse_bound(cert, t) for t in ts]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_before_settle_rejected(self):
        cert = self._cert(T=1.0)
        with pytest.raises(ValueError):
            continuous_mse_bound(cert, 0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True, "1.0", None])
    def test_time_that_is_not_finite_named(self, t):
        cert = self._cert()
        with pytest.raises(ValueError, match="^t must be a finite number"):
            continuous_mse_bound(cert, t)
        with pytest.raises(ValueError, match="^t must be a finite number"):
            continuous_concentration_threshold(cert, t, 1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, True, "1.0", None, [1.0, math.nan]])
    @pytest.mark.parametrize("function", ["beta", "continuous", "discrete"])
    def test_delta_that_is_not_finite_named(self, function, delta):
        call = {
            "beta": lambda: beta(delta),
            "continuous": lambda: continuous_concentration_threshold(self._cert(), 1.0, delta),
            "discrete": lambda: discrete_concentration_threshold(
                DiscreteCertificate(lambda_d=1.0, lambda_df=0.5, kappa=1.0, lambda_P_pred=1.0, lambda_P_upd=1.0,
                                    C_f=0.0, eta=0.0, u_d=2.0, e0_sq=1.0, e0_root=1.0, provenance="user"),
                1, delta),
        }[function]
        with pytest.raises(ValueError, match="^delta must be a finite number"):
            call()

    def _times(self):
        return np.linspace(0.0, 12.0, 97) ** 1.5

    @pytest.mark.parametrize("bound", ["mse", "threshold"])
    def test_array_times_equal_scalar_calls(self, bound):
        cert = self._cert(lam=0.7, T=0.0, u=3.0, C_T=5.0, e_T_sq=2.0)
        f = {"mse": continuous_mse_bound,
             "threshold": lambda c, t: continuous_concentration_threshold(c, t, 1.5)}[bound]
        ts = self._times()
        values = f(cert, ts)
        assert values.shape == ts.shape
        assert np.array_equal(values, [f(cert, float(t)) for t in ts])

    def test_array_values_match_closed_form(self):
        cert = self._cert(lam=0.7, T=0.4, u=3.0, C_T=5.0, e_T_sq=2.0)
        ts = cert.T + self._times()
        mse = continuous_mse_bound(cert, ts)
        thr = continuous_concentration_threshold(cert, ts, 1.5)
        for t, m, th in zip(ts, mse, thr):
            decay = math.exp(-2.0 * 0.7 * (t - 0.4))
            assert m == pytest.approx(2.0 * decay + 3.0 / 1.4, rel=1e-15, abs=0)
            shape = math.e * (math.sqrt(3.0) + 1.5)
            assert th == pytest.approx((5.0 * decay + 3.0 / 1.4) * shape, rel=1e-15, abs=0)

    def test_times_broadcast_against_deltas(self):
        cert = self._cert(u=2.0)
        ts = np.linspace(0.0, 3.0, 5)[:, None]
        deltas = np.array([0.5, 1.0, 2.0])
        table = continuous_concentration_threshold(cert, ts, deltas)
        assert table.shape == (5, 3)
        for i, j in np.ndindex(table.shape):
            assert table[i, j] == continuous_concentration_threshold(cert, float(ts[i, 0]), float(deltas[j]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_one_bad_entry_in_an_array_names_t(self, bad, where):
        cert = self._cert(T=1.0)
        ts = cert.T + self._times()
        ts[where] = bad
        with pytest.raises(ValueError, match="^t must be"):
            continuous_mse_bound(cert, ts)
        with pytest.raises(ValueError, match="^t must be"):
            continuous_concentration_threshold(cert, ts, 1.0)

    def test_asymptotic_has_no_transient(self):
        cert = self._cert(T=5.0, C_T=0.0, e_T_sq=0.0, asymptotic=True)
        for kw in ({"e_T_sq": 0.03}, {"C_T": 0.2}):
            with pytest.raises(ValueError):
                dataclasses.replace(cert, **kw)

    def test_threshold_vanishes_with_delta(self):
        cert = self._cert(u=2.0)
        assert continuous_concentration_threshold(cert, 1.0, 1e-12) <= 1e-5

    def test_threshold_long_run(self):
        cert = self._cert(u=2.0, C_T=5.0)
        val = continuous_concentration_threshold(cert, 1e9, 1.0)
        assert val == pytest.approx((2.0 / 2.0) * beta(1.0), rel=1e-6)

    def test_benchmark_threshold_value(self):
        model = builtin_contractive3d()
        cert = contractive_certificate(model, make_filter_config("ekf", model))
        val = continuous_concentration_threshold(cert, 1e9, 3.0)
        assert val == pytest.approx(67.8, abs=0.2)


class TestInflation:
    def test_closed_form_when_drift_neutral(self):
        for q, s, d in [(4.0, 1.0, 1), (2.0, 0.5, 3), (9.0, 2.0, 2)]:
            model = builtin_linear(np.zeros((d, d)), Q=np.eye(d), H=np.eye(d),
                                   R=(1.0 / s) * np.eye(d), mu0=np.zeros(d), Sigma0=np.eye(d))
            val = inflation_mineig_bound(model, q * np.eye(d))
            assert val == pytest.approx(math.sqrt(q / (d * s)), rel=1e-12)

    def test_worked_substitution(self):
        model = builtin_linear(np.zeros((1, 1)), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.zeros(1), Sigma0=np.eye(1))
        assert inflation_mineig_bound(model, 4.0 * np.eye(1)) == pytest.approx(2.0)

    def test_bound_holds_along_simulated_runs(self):
        # Monte Carlo oracle: the asymptotic floor must undercut the smallest
        # covariance eigenvalue observed at the end of inflated filter runs
        model = builtin_contractive3d()
        Q_tuned = 25.0 * np.eye(3)
        floor = inflation_mineig_bound(model, Q_tuned)
        config = make_filter_config("ekf", model, Q_tuned=Q_tuned)
        _, states, incr, _ = simulate_paths(model, dt=0.01, horizon=10.0, seed=123, n_paths=100)
        HtRinv = np.linalg.solve(model.R, model.H).T
        x = np.tile(config.x0_hat, (100, 1))
        P = np.tile(config.P0[:, :, None], (1, 1, 100))
        for k in range(1, states.shape[1]):
            x, P, _, _, bad = _kb_step_batch(model, config, HtRinv, x, P, None, incr[:, k], 0.01)
            assert not bad.any()
        min_eig = np.linalg.eigvalsh(np.moveaxis(P, -1, 0))[:, 0].min()
        assert floor <= min_eig + 1e-9

    @pytest.mark.parametrize("q", [1e-10, 1e-14, 1e-17])
    def test_expanding_drift_floor_without_cancellation(self, q):
        # N = s = d = 1: the floor is 1 + sqrt(1 + q), also where q is far
        # below the roundoff of N^2
        model = builtin_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
        floor = inflation_mineig_bound(model, q * np.eye(1))
        assert floor == pytest.approx(1.0 + math.sqrt(1.0 + q), rel=1e-15)

    def test_unobserved_expanding_drift_rejected(self):
        for a in (0.0, 1.0):
            model = builtin_linear(a * np.eye(1), Q=np.eye(1), H=np.zeros((1, 1)), R=np.eye(1))
            with pytest.raises(ValueError, match="unbounded"):
                inflation_mineig_bound(model, np.eye(1))
        contracting = builtin_linear(-np.eye(1), Q=np.eye(1), H=np.zeros((1, 1)), R=np.eye(1))
        assert inflation_mineig_bound(contracting, 4.0 * np.eye(1)) == pytest.approx(2.0, rel=1e-15)

    def test_asymmetric_tuning_rejected(self):
        model = builtin_linear(-np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError, match="Q_tuned must be symmetric"):
            inflation_mineig_bound(model, [[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("Q_tuned", [np.eye(2), np.eye(4), np.ones(3)])
    def test_wrong_size_tuning_rejected(self, Q_tuned):
        with pytest.raises(ValueError, match=r"Q_tuned must have shape \(3, 3\)"):
            inflation_mineig_bound(builtin_contractive3d(), Q_tuned)

    def test_drift_constants_passed_or_attached(self):
        bare = dataclasses.replace(builtin_contractive3d(), known_M_f=None, known_N_f=None)
        with pytest.raises(ValueError, match="need n_f"):
            inflation_mineig_bound(bare, np.eye(3))
        with pytest.raises(ValueError, match="need m_f"):
            required_inflation(bare, target_lambda=1.0)
        with pytest.raises(ValueError, match="need n_f"):
            required_inflation(bare, target_lambda=1.0, m_f=0.5)
        model = builtin_contractive3d()
        assert inflation_mineig_bound(bare, np.eye(3), n_f=model.known_N_f) == inflation_mineig_bound(model, np.eye(3))
        assert np.array_equal(required_inflation(bare, 1.0, m_f=model.known_M_f, n_f=model.known_N_f),
                              required_inflation(model, 1.0))

    def test_required_inflation_vacuous(self):
        model = builtin_contractive3d()
        q = required_inflation(model, target_lambda=0.1)
        assert np.all(q == 0.0)

    def test_required_inflation_closed_form(self):
        # M = 1, target 1, s = 1, N = 0, d = 1: floor sqrt(q) >= 2 gives q = 4
        model = builtin_linear(np.zeros((1, 1)), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.zeros(1), Sigma0=np.eye(1))
        model.known_M_f, model.known_N_f = 1.0, 0.0
        q = required_inflation(model, target_lambda=1.0)
        assert q[0, 0] == pytest.approx(4.0, rel=1e-12)

    def test_required_inflation_expanding_drift_vacuous(self):
        # M = N = 1, s = 1: the floor (sqrt(q + 1) + 1) never drops below 2,
        # above the target 1.5 at every q, so no inflation is needed
        model = builtin_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
        q = required_inflation(model, target_lambda=0.5)
        assert np.all(q == 0.0)

    def test_required_inflation_meets_target_exactly(self, rng):
        signs = {"stable": 0, "unstable": 0}
        for _ in range(40):
            d = int(rng.integers(1, 5))
            A = rng.normal(size=(d, d)) + rng.uniform(-2.0, 1.0) * np.eye(d)
            h, r = rng.uniform(0.3, 2.0), rng.uniform(0.05, 2.0)
            model = builtin_linear(A, Q=np.eye(d), H=h * np.eye(d), R=r * np.eye(d))
            M, N, s = model.known_M_f, model.known_N_f, model.s_scalar()
            signs["unstable" if M > 0 else "stable"] += 1
            # keeps the target above the drift's own floor (s t > 2 N), so q > 0
            target_lambda = 2.0 * max(N, 0.0) + max(M, 0.0) - M + rng.uniform(0.2, 2.0)
            q = required_inflation(model, target_lambda)
            assert q[0, 0] > 0.0
            assert np.array_equal(q, q[0, 0] * np.eye(d))
            target = (M + target_lambda) / s
            assert inflation_mineig_bound(model, q) == pytest.approx(target, rel=1e-12)
        assert min(signs.values()) >= 5

    def test_required_inflation_self_consistent(self):
        model = builtin_contractive3d()
        q = required_inflation(model, target_lambda=1.0, m_f=0.5)
        target = (0.5 + 1.0) / model.s_scalar()
        achieved = inflation_mineig_bound(model, q)
        assert achieved >= target * (1 - 1e-6)
        assert achieved <= target * (1 + 1e-4)


@st.composite
def velocity_params(draw, attained):
    """Integrated-velocity parameters that get a certificate, in one ``lambda_12`` regime.

    ``a1``, ``q1``, ``h`` and ``r`` span the ranges of the eigvalsh box test.
    ``q2`` sets ``k = s C22 / (lg + sigma)``: below 2 the best rate is
    attained at ``lambda_12 = s C22 / 2``, from 2 on it is not. ``a2`` is a
    fraction of the largest value whose corner rate is still positive:
    ``b^2 < sigma lg`` with ``b = (a2 / 2) max(1, (201/200) k - 1)``.
    """
    a1, q1, h, r = (draw(st.floats(lo, hi)) for lo, hi in ((-1.0, 0.5), (0.01, 1.0), (0.01, 1.0), (0.01, 1.0)))
    s, lg = h * h / r, VELOCITY_G_PRIME_MIN
    sigma = math.sqrt(s * q1 + a1 * a1)
    k = draw(st.floats(0.02, 1.98) if attained else st.floats(2.01, 4.0))
    a2 = draw(st.floats(0.05, 0.95)) * 2.0 * math.sqrt(sigma * lg) / max(1.0, 1.005 * k - 1.0)
    return dict(a1=a1, a2=a2, q1=q1, q2=2.0 * lg * k * (lg + sigma) / s, h=h, r=r)


class TestIntegratedVelocityCertificate:
    @pytest.mark.parametrize("attained", [True, False])
    @given(data=st.data())
    def test_lambda12_is_best_on_a_dense_sweep(self, attained, data):
        # the rate is -sup mu at the reported (lambda_12, C12); no point of a
        # 2000-point sweep up to lambda_12 beats it, and where the best rate is
        # attained no point of the whole range does
        p = data.draw(velocity_params(attained))
        model = builtin_integrated_velocity(**p)
        cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
        a1, a2, lg = p["a1"], p["a2"], VELOCITY_G_PRIME_MIN
        s = p["h"] ** 2 / p["r"]
        sigma = math.sqrt(s * p["q1"] + a1 * a1)
        p11_lo, lam12_hi = (a1 + sigma) / s, lg + sigma
        lam12, c12, c22 = (cert.details[key] for key in ("lambda_12", "C12", "C22"))
        assert lam12 == pytest.approx(0.5 * s * c22 if attained else lam12_hi * 200 / 201, rel=1e-12)
        assert 0.0 < lam12 < lam12_hi
        assert c12 == pytest.approx(a2 * c22 / lam12, rel=1e-12)
        assert cert.lam == -_velocity_box_sup_mu(a1, a2, s, p11_lo, c12, lg)
        grid = np.linspace(0.0, lam12_hi, 2002)[1:-1]
        rates = np.array([-_velocity_box_sup_mu(a1, a2, s, p11_lo, a2 * c22 / lam, lg) for lam in grid])
        assert rates[grid <= lam12].max(initial=-np.inf) <= cert.lam + 1e-12
        if attained:
            assert rates.max() <= cert.lam + 1e-9
            # and lambda_12 is the least value attaining it
            assert (rates[grid < 0.999 * lam12] < cert.lam).all()
        else:
            # the open end gives up at most the docstring's margin
            assert rates.max() <= cert.lam + s * a2 * c22 / (400.0 * lam12_hi) + 1e-12

    def test_tuning_comes_from_the_config(self):
        # Q_tuned = 4 Q on the default model is the default config of the
        # model with q1 = q2 = 0.2, through the harness's certificate choice
        model = builtin_integrated_velocity()
        tuned = certificate_for(model, make_filter_config("ekf", model, Q_tuned=4.0 * model.Q))
        ref_model = builtin_integrated_velocity(q1=0.2, q2=0.2)
        ref = certificate_for(ref_model, make_filter_config("ekf", ref_model))
        assert (tuned.lam, tuned.lambda_P) == (ref.lam, ref.lambda_P)
        for key in ("C22", "C12", "lambda_12"):
            assert tuned.details[key] == ref.details[key]
        assert tuned.lambda_P > certificate_for(model, make_filter_config("ekf", model)).lambda_P

    def test_certificate_fields(self):
        model = builtin_integrated_velocity()
        cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
        assert cert.asymptotic
        assert cert.C_lambda == 0.0
        assert cert.details["C22"] == pytest.approx(0.0597, abs=1e-3)
        assert cert.lambda_P == pytest.approx(0.173, abs=0.02)
        assert "lambda_12" in cert.details
        assert 0.0 < cert.lam <= model.params["lg"] + 1e-9

    def test_rate_is_box_worst_case(self, velocity_corner_rate):
        # with s C12 <= 2 a2 the supremum of mu(J - P S) over the box is at the
        # corner P11 = p11_lo, P12 = 0, g' = lg, so the rate is the closed form
        for kwargs in ({}, {"a1": -0.5}, {"a2": 0.5}):
            model = builtin_integrated_velocity(**kwargs)
            p = model.params
            cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
            assert p["h"] ** 2 / p["r"] * cert.details["C12"] <= 2.0 * p["a2"]
            assert cert.lam == pytest.approx(velocity_corner_rate(p), abs=1e-8)

    def test_box_supremum_matches_eigvalsh_search(self, rng):
        # independent oracle: the largest eigenvalue of the symmetric part of
        # J - P S, searched over the box's 8 corners and seeded interior points
        far_end = 0
        for _ in range(60):
            a1, a2 = rng.uniform(-1.0, 0.5), rng.uniform(0.05, 3.0)
            q1, q2, h, r = rng.uniform(0.01, 1.0, size=4)
            p = builtin_integrated_velocity(a1=a1, a2=a2, q1=q1, q2=q2, h=h, r=r).params
            lg, g_hi = p["lg"], p["sup_gprime"]
            s = h * h / r
            c22 = q2 / (2.0 * lg)
            p11_lo = (a1 + math.sqrt(s * q1 + a1 * a1)) / s
            lam12_hi = lg + math.sqrt(s * q1 + a1 * a1)
            for frac in (0.002, 0.02, rng.uniform(0.05, 1.0)):
                c12 = a2 * c22 / (frac * lam12_hi)
                p11_up = (a1 + math.sqrt(s * (q1 + 2.0 * a2 * c12) + a1 * a1)) / s
                lo, hi = np.array([p11_lo, 0.0, lg]), np.array([p11_up, c12, g_hi])
                corners = np.array(list(itertools.product(*zip(lo, hi))))
                points = np.concatenate([corners, rng.uniform(lo, hi, size=(512, 3))])
                P11, P12, G = points.T
                sym = np.zeros((len(points), 2, 2))
                sym[:, 0, 0] = a1 - s * P11
                sym[:, 0, 1] = sym[:, 1, 0] = 0.5 * (a2 - s * P12)
                sym[:, 1, 1] = -G
                mu = np.linalg.eigvalsh(sym)[:, -1]
                sup = _velocity_box_sup_mu(a1, a2, s, p11_lo, c12, lg)
                assert sup == pytest.approx(mu[:8].max(), rel=1e-12, abs=1e-12)
                assert mu.max() <= sup + 1e-12
                far_end += s * c12 > 2.0 * a2
        # the P12 = C12 end is the maximum in a good share of the boxes
        assert far_end >= 30

    def test_certificate_allocates_little(self):
        # the supremum is closed-form: no dense box grid may come back
        model = builtin_integrated_velocity()
        tracemalloc.start()
        try:
            integrated_velocity_certificate(model, make_filter_config("ekf", model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trace_bound_holds_on_simulation(self):
        model = builtin_integrated_velocity()
        config = make_filter_config("ekf", model)
        cert = integrated_velocity_certificate(model, config)
        _, states, incr, _ = simulate_paths(model, dt=0.01, horizon=10.0, seed=77, n_paths=50)
        HtRinv = np.linalg.solve(model.R, model.H).T
        x = np.tile(config.x0_hat, (50, 1))
        P = np.tile(config.P0[:, :, None], (1, 1, 50))
        worst = 0.0
        for k in range(1, states.shape[1]):
            x, P, _, _, bad = _kb_step_batch(model, config, HtRinv, x, P, None, incr[:, k], 0.01)
            assert not bad.any()
            if k * 0.01 >= cert.T:
                worst = max(worst, float(np.einsum("iib->b", P).max()))
        assert worst <= cert.lambda_P + 1e-6

    def test_negative_cross_covariance_rejected(self):
        model = builtin_integrated_velocity()
        config = make_filter_config(
            "ekf", model, P0=np.array([[0.01, -0.001], [-0.001, 0.01]]))
        with pytest.raises(ValueError):
            integrated_velocity_certificate(model, config)

    def test_weak_feedback_yields_no_certificate(self):
        model = builtin_integrated_velocity(a2=10.0, r=5.0)
        with pytest.raises(NoCertificateError):
            integrated_velocity_certificate(model, make_filter_config("ekf", model))

    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError):
            c3 = builtin_contractive3d()
            integrated_velocity_certificate(c3, make_filter_config("ekf", c3))


class TestDiscreteCertificate:
    def _model(self, a=0.5, d=1, q=1.0, h=1.0, r=1.0):
        return builtin_discrete_linear(a * np.eye(d), Q=q * np.eye(d), H=h * np.eye(d),
                                       R=r * np.eye(d), mu0=np.zeros(d), Sigma0=np.eye(d))

    def test_no_measurements_contraction_case(self):
        model = builtin_discrete_linear(0.8 * np.eye(2), Q=np.eye(2), H=np.zeros((2, 2)),
                                        R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=5.0, lambda_P_upd=5.0)
        assert cert.lambda_d == pytest.approx(1.0)
        assert cert.lambda_df == pytest.approx(0.8)
        assert cert.kappa == 0.0

    def test_expanding_map_has_no_certificate(self):
        model = builtin_discrete_linear(1.1 * np.eye(2), Q=np.eye(2), H=np.zeros((2, 2)),
                                        R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        with pytest.raises(NoCertificateError):
            discrete_certificate(model, config, lambda_P_pred=5.0, lambda_P_upd=5.0)

    def test_singular_R_named(self):
        model = self._model(d=2, r=0.0)
        with pytest.raises(IndefiniteMatrixError, match="R must be positive definite"):
            discrete_certificate(model, make_filter_config("ekf", model),
                                 lambda_P_pred=1.0, lambda_P_upd=1.0)

    def test_gain_shrinks_with_measurement_noise(self):
        model = self._model(r=1e6)
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=2.0, lambda_P_upd=2.0)
        assert cert.kappa == pytest.approx(2.0 * 1e-6, rel=1e-9)
        assert cert.lambda_d == pytest.approx(1.0)

    def test_worked_scalar_case(self):
        model = self._model(a=0.5, q=1.0, h=1.0, r=1.0)
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=1.0, lambda_P_upd=1.0)
        assert cert.kappa == pytest.approx(1.0)
        assert cert.lambda_d == pytest.approx(1.0)
        assert cert.lambda_df == pytest.approx(0.5)
        assert cert.eta == 0.0
        assert cert.u_d == pytest.approx(1.0 * 1.0 + 1.0 * 1.0)

    def test_quadrature_kind_gets_lipschitz_constant(self):
        model = self._model(a=0.5)
        config = make_filter_config("ukf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=1.0, lambda_P_upd=1.0)
        assert cert.C_f == pytest.approx(0.5)
        assert cert.eta == pytest.approx(1.0 * math.sqrt(0.5 * 1.0))

    def test_user_lambda_d_provenance(self):
        model = self._model()
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=1.0, lambda_P_upd=1.0,
                                    lambda_d=1.0)
        assert cert.provenance == "user"

    def test_initial_error_is_bound_at_build(self):
        # mu0 - x0_hat = (0.75, -2.5) and Sigma0 = diag(1, 3): tr Sigma0 = 4
        # but ||Sigma0|| = 3, and the gap is taken against the config's start
        model = builtin_discrete_linear(0.7 * np.eye(2), Q=0.1 * np.eye(2), H=np.eye(2), R=0.5 * np.eye(2),
                                        mu0=np.array([1.0, -2.0]), Sigma0=np.diag([1.0, 3.0]))
        config = make_filter_config("ekf", model, x0_hat=np.array([0.25, 0.5]))
        cert = discrete_certificate(model, config, lambda_P_pred=1.0, lambda_P_upd=1.0, lambda_d=1.0)
        e0_sq = 0.75**2 + 2.5**2 + (1.0 + 3.0)
        e0_root = math.sqrt(0.75**2 + 2.5**2) + math.sqrt(3.0)
        assert cert.e0_sq == pytest.approx(e0_sq, rel=1e-15)
        assert cert.e0_root == pytest.approx(e0_root, rel=1e-15)
        assert (cert.to_dict()["e0_sq"], cert.to_dict()["e0_root"]) == (cert.e0_sq, cert.e0_root)
        per_step = cert.u_d + cert.lambda_d**2 * cert.C_f * cert.lambda_P_upd
        assert discrete_mse_bound(cert, 0) == pytest.approx(e0_sq + per_step / (1.0 - 0.7**2), rel=1e-14)
        tail = (math.sqrt(cert.u_d) + cert.eta) / (1.0 - 0.7)
        assert discrete_concentration_threshold(cert, 0, 2.0) == pytest.approx(
            4.0 * beta(2.0) * (e0_root + tail) ** 2, rel=1e-14)


class TestDiscreteBounds:
    def _cert(self, **kw):
        # e0_sq and e0_root default to the law mu0 = x0_hat, Sigma0 = 1
        base = dict(lambda_d=1.0, lambda_df=0.5, kappa=1.0, lambda_P_pred=1.0, lambda_P_upd=1.0,
                    C_f=0.0, eta=0.0, u_d=2.0, e0_sq=1.0, e0_root=1.0, provenance="user")
        base.update(kw)
        return DiscreteCertificate(**base)

    @pytest.mark.parametrize("value", [-1e-12, math.nan])
    @pytest.mark.parametrize("field", ["lambda_d", "e0_sq", "e0_root"])
    def test_negative_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match="C_f, e0_sq and e0_root must be nonnegative"):
            self._cert(**{field: value})

    def test_memoryless_case(self):
        cert = self._cert(lambda_df=0.0, u_d=3.0, e0_sq=0.0, e0_root=0.0)
        val = discrete_mse_bound(cert, k=5)
        assert val == pytest.approx(3.0)

    def test_initial_value(self):
        # mu0 - x0_hat = 1, Sigma0 = 2
        cert = self._cert(u_d=0.0, e0_sq=1.0 + 2.0)
        val = discrete_mse_bound(cert, k=0)
        assert val == pytest.approx(1.0 + 2.0)

    def test_matches_recursion_oracle(self):
        mu0, x0, S0 = np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.5 * np.eye(2)
        init = float((mu0 - x0) @ (mu0 - x0) + np.trace(S0))
        cert = self._cert(lambda_df=0.6, u_d=1.3, C_f=0.4, lambda_d=1.1, lambda_P_upd=2.0, e0_sq=init)
        e = init
        per_step = cert.u_d + cert.lambda_d**2 * cert.C_f * cert.lambda_P_upd
        for k in range(11):
            if k > 0:
                e = cert.lambda_df**2 * e + per_step
            closed = discrete_mse_bound(cert, k)
            envelope = cert.lambda_df ** (2 * k) * init + per_step / (1 - cert.lambda_df**2)
            assert closed == pytest.approx(envelope, rel=1e-12)
            assert e <= closed + 1e-12

    @pytest.mark.parametrize("k", [2.5, True, math.nan, 1.0, "3", -1])
    def test_step_index_that_is_not_a_nonnegative_integer_named(self, k):
        cert = self._cert()
        with pytest.raises(ValueError, match="^k must be"):
            discrete_mse_bound(cert, k)
        with pytest.raises(ValueError, match="^k must be"):
            discrete_concentration_threshold(cert, k, 1.0)

    def test_numpy_step_index_accepted(self):
        cert = self._cert(e0_sq=2.0, e0_root=2.0)
        for bound, rest in ((discrete_mse_bound, ()), (discrete_concentration_threshold, (1.0,))):
            assert bound(cert, np.int64(3), *rest) == bound(cert, 3, *rest)

    def test_monotone_in_k(self):
        cert = self._cert(lambda_df=0.7, u_d=0.5, e0_sq=5.0, e0_root=3.0)
        vals = [discrete_mse_bound(cert, k) for k in range(50)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_threshold_vanishes_with_delta(self):
        cert = self._cert()
        val = discrete_concentration_threshold(cert, k=3, delta=1e-14)
        assert val <= 1e-4

    def test_threshold_long_run(self):
        cert = self._cert(lambda_df=0.5, u_d=4.0, eta=1.0, e0_sq=2.0, e0_root=2.0)
        val = discrete_concentration_threshold(cert, k=10**6, delta=2.0)
        expected = 4.0 * beta(2.0) * ((math.sqrt(4.0) + 1.0) / 0.5) ** 2
        assert val == pytest.approx(expected, rel=1e-9)

    def test_worked_case_value(self):
        cert = self._cert(lambda_df=0.5, u_d=2.0)
        val = discrete_concentration_threshold(cert, k=10, delta=2.0)
        init = 0.0 + 1.0
        expected = 4.0 * beta(2.0) * (0.5**10 * init + math.sqrt(2.0) / 0.5) ** 2
        assert val == pytest.approx(expected, rel=1e-12)


class TestDiscreteBoundMonteCarlo:
    def test_bound_dominates_empirical_error(self):
        # scalar contraction with exact covariance trace bounds from the
        # fixed point of the filter recursion
        a, q, r = 0.5, 0.1, 1.0
        model = builtin_discrete_linear(a * np.eye(1), Q=q * np.eye(1), H=np.eye(1),
                                        R=r * np.eye(1), mu0=np.zeros(1),
                                        Sigma0=0.5 * np.eye(1))
        p_pred = 0.5 + q
        for _ in range(200):
            p_upd = r * p_pred / (p_pred + r)
            p_pred = a * a * p_upd + q
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config, lambda_P_pred=p_pred * 1.01,
                                    lambda_P_upd=p_pred * 1.01, lambda_d=1.0)

        steps, n_paths = 30, 200
        _, states, meas, _ = simulate_discrete_paths(model, steps, seed=42, n_paths=n_paths)
        err_sq = run_discrete_ensemble(model, config, states, meas).err_sq
        emp = err_sq.mean(axis=0)
        se = err_sq.std(axis=0, ddof=1) / np.sqrt(n_paths)
        for k in range(steps + 1):
            bound = discrete_mse_bound(cert, k)
            assert emp[k] <= bound + 3.0 * se[k], k


def discrete_linear_model():
    return builtin_discrete_linear(0.7 * np.eye(2), Q=0.1 * np.eye(2), H=np.eye(2), R=0.5 * np.eye(2))


@pytest.fixture(scope="module")
def discrete_ensemble_paths(discrete_sine):
    paths = {}
    for name, build in (("linear", discrete_linear_model), ("sine", discrete_sine)):
        model = build()
        _, states, meas, diverged = simulate_discrete_paths(model, 50, seed=2024, n_paths=2000)
        assert np.all(diverged < 0)
        paths[name] = (model, states, meas)
    return paths


@pytest.fixture(scope="module", params=list(itertools.product(["linear", "sine"], ["ekf", "ukf", "gh"])),
                ids=lambda p: "-".join(p))
def discrete_run(request, discrete_ensemble_paths):
    """Certificate and ensemble run of one model and filter kind (see the class docstring)."""
    name, kind = request.param
    model, states, meas = discrete_ensemble_paths[name]
    config = make_filter_config(kind, model)
    jf = model.known_jf_norm
    lambda_P_upd = max(np.trace(model.R), np.trace(model.Sigma0))
    lambda_P_pred = jf**2 * lambda_P_upd + np.trace(model.Q)
    cert = discrete_certificate(model, config, lambda_P_pred=lambda_P_pred,
                                lambda_P_upd=lambda_P_upd, lambda_d=1.0)
    run = run_discrete_ensemble(model, config, states, meas)
    assert np.all(run.diverged < 0)
    return cert, run


class TestDiscreteCertificateEnsemble:
    """The discrete certificate against 2000 filtered paths of 50 steps.

    Both models have ``H = I``, ``R = 0.5 I``, ``Q = 0.1 I``, ``Sigma0 = I``
    and ``||J_f|| <= jf = 0.7``. Trace bounds, for every variant:

    * The update gives ``P_upd = (P_pred^-1 + R^-1)^-1 <= R`` when
      ``H = I``, and ``P_0 = Sigma0``, so
      ``lambda_P_upd = max(tr R, tr Sigma0) = 2``.
    * ``ekf`` predicts ``J P J^T + Q``, with ``tr(J P J^T) <= jf^2 tr P``.
      A rule with positive weights predicts the weighted covariance of the
      propagated points plus ``Q``. Its trace is at most the weighted mean
      of ``||f(x_i) - f(x)||^2 <= jf^2 ||x_i - x||^2``, and by degree-two
      exactness that mean is ``jf^2 tr P``. Hence
      ``lambda_P_pred = jf^2 lambda_P_upd + tr Q``.
    * ``I - K = R (P_pred + R)^-1`` has norm at most 1 for ``R = r I``, so
      ``lambda_d = 1`` and ``lambda_df = jf``.
    """

    def test_trace_stays_under_update_bound(self, discrete_run):
        cert, run = discrete_run
        assert run.trace_max.max() <= cert.lambda_P_upd

    def test_bound_dominates_mse(self, discrete_run):
        cert, run = discrete_run
        n = run.err_sq.shape[0]
        mse = run.err_sq.mean(axis=0)
        se = run.err_sq.std(axis=0, ddof=1) / math.sqrt(n)
        for k in range(run.err_sq.shape[1]):
            bound = discrete_mse_bound(cert, k)
            assert mse[k] <= bound + 3.0 * se[k], k

    def test_exceedance_within_concentration_limit(self, discrete_run):
        cert, run = discrete_run
        n = run.err_sq.shape[0]
        for k, delta in itertools.product((10, 50), (0.5, 1.0, 2.0, 3.0)):
            thr = discrete_concentration_threshold(cert, k, delta)
            frequency = float((run.err_sq[:, k] >= thr).mean())
            limit = math.exp(-delta)
            assert frequency <= limit + 3.0 * math.sqrt(limit * (1.0 - limit) / n), (k, delta)


class TestNaiveComparison:
    def _model(self, jf=0.5, q=0.01, h=1.0, r=10.0, d=1):
        return builtin_discrete_linear(jf * np.eye(d), Q=(q / d) * np.eye(d),
                                       H=h * np.eye(d), R=r * np.eye(d),
                                       mu0=np.zeros(d), Sigma0=np.eye(d))

    def test_naive_value(self):
        model = self._model(h=1.0, r=4.0, d=2, q=0.02)
        report = naive_vs_filter(model)
        assert report.naive_mse == pytest.approx(8.0)

    def test_filter_wins_in_low_noise_regime(self):
        for q in (1e-4, 1e-3, 0.01):
            for r in (10.0, 100.0, 1000.0):
                report = naive_vs_filter(self._model(q=q, r=r))
                assert report.filter_wins, (q, r)

    def test_naive_wins_under_huge_process_noise(self):
        for q in (100.0, 1000.0):
            for r in (10.0, 100.0):
                report = naive_vs_filter(self._model(q=q, r=r))
                assert not report.filter_wins, (q, r)

    def test_requires_isotropic_structure(self):
        model = builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2),
                                        H=np.array([[1.0, 0.0], [0.0, 2.0]]), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        with pytest.raises(ValueError):
            naive_vs_filter(model)

    def test_requires_contraction(self):
        with pytest.raises(NoCertificateError):
            naive_vs_filter(self._model(jf=1.2))


class TestGronwall:
    def test_continuous_saturation(self):
        assert gronwall_continuous(0.0, -1.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_continuous_zero_rate(self):
        assert gronwall_continuous(1.0, 0.0, 2.0, 3.0) == pytest.approx(7.0)

    def test_array_envelope_matches_scalar_calls(self, rng):
        # alpha = 0 cells included; broadcasting a (40, 1) column against t
        alpha = np.concatenate([-rng.uniform(0.1, 3.0, 20), rng.uniform(0.1, 2.0, 10), np.zeros(10)])[:, None]
        b = rng.uniform(0.0, 2.0, (40, 1))
        x0 = rng.uniform(0.0, 5.0, (40, 1))
        t = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 30)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = gronwall_continuous(x0, alpha, b, t)
        assert env.shape == (40, 31)
        scalar = np.array([[gronwall_continuous(float(x0[i, 0]), float(alpha[i, 0]), float(b[i, 0]), float(tj))
                            for tj in t] for i in range(40)])
        # The two paths differ only where np.exp and math.exp round e^{alpha t}
        # differently, by an error of at most 1e-15 of the terms the formula adds.
        eat = np.exp(alpha * t)
        scale = eat * (x0 + np.divide(b, np.abs(alpha), out=b * t, where=alpha != 0))
        assert np.all(np.abs(env - scalar) <= 1e-15 * scale)
        np.testing.assert_array_equal(env[30:], x0[30:] + b[30:] * t)

    def test_scalar_call_returns_a_float(self):
        assert type(gronwall_continuous(1.0, -0.5, 2.0, 0.3)) is float
        assert gronwall_continuous(1.0, -0.5, 2.0, 0.3) == 1.0 * math.exp(-0.15) - (
            1.0 - math.exp(-0.15)) * 2.0 / -0.5

    @pytest.mark.parametrize("t", [-1e-12, [0.0, 1.0, -2.0], np.array([[1.0], [-0.5]])])
    def test_negative_time_rejected(self, t):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            gronwall_continuous(np.ones(2), -1.0, 1.0, t)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            gronwall_continuous(1.0, -1.0, 1.0, np.min(t))

    def test_euler_trajectories_stay_below_envelope(self, rng):
        # 100 trajectories stepped together; row i draws alpha, b, x0 as one scalar loop would
        dt, n = 1e-3, 2000
        neg_alpha, b, x0 = rng.uniform([0.1, 0.0, 0.0], [3.0, 2.0, 5.0], size=(100, 3)).T
        alpha = -neg_alpha
        x, path = x0, np.empty((100, n))
        for k in range(n):
            x = x + dt * (alpha * x + b)
            path[:, k] = x
        env = gronwall_continuous(x0[:, None], alpha[:, None], b[:, None], np.arange(1, n + 1) * dt)
        assert np.all(path <= env + 10 * dt)


@st.composite
def gaussian_laws(draw):
    """``(m, P)`` with ``d`` in 1..6 and ``P = G G^T`` of any rank; ``m`` may be the scalar 0."""
    d = draw(st.integers(1, 6))
    G = draw(arrays(float, (d, draw(st.integers(0, d))), elements=st.floats(-3.0, 3.0)))
    m = draw(st.one_of(st.just(0), arrays(float, d, elements=st.floats(-3.0, 3.0))))
    return m, G @ G.T


class TestMomentUtilities:
    def test_bernstein_value(self):
        # the moment-based tail threshold at unit scale is beta(delta)
        assert beta(1.0) == pytest.approx(math.e * (math.sqrt(2) + 1))
        assert beta(1.0) == pytest.approx(6.5625, abs=1e-3)

    def test_chi_square_scalar(self):
        assert chi_square_moment_bound(0, np.eye(1), 1) == pytest.approx(3.0)

    def test_chi_square_monte_carlo(self, rng):
        X = rng.standard_normal((10**6, 3))
        nrm2 = np.einsum("bi,bi->b", X, X)
        emp4 = float(np.mean(nrm2**2))
        bound = chi_square_moment_bound(0, np.eye(3), 2) ** 2
        assert emp4 == pytest.approx(15.0, rel=0.02)
        assert emp4 <= bound
        assert bound == pytest.approx(100.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_gaussian_norm_moment_chi_square(self, d):
        # E[(chi^2_d)^n] = d (d+2) ... (d+2n-2)
        assert gaussian_norm_moment(0, np.eye(d), 1) == d
        assert gaussian_norm_moment(0, np.eye(d), 2) == d * (d + 2)
        assert gaussian_norm_moment(0, np.eye(d), 3) == d * (d + 2) * (d + 4)
        assert gaussian_norm_moment(0, np.eye(d), 4) == d * (d + 2) * (d + 4) * (d + 6)

    @pytest.mark.parametrize("rank", [3, 1])
    def test_gaussian_norm_moment_monte_carlo(self, rng, rank):
        m = rng.standard_normal(3)
        G = rng.standard_normal((3, rank))
        X = m + rng.standard_normal((10**6, rank)) @ G.T
        nrm2 = np.einsum("bi,bi->b", X, X)
        for n in (1, 2, 3):
            sample = nrm2**n
            stderr = sample.std() / math.sqrt(sample.size)
            assert abs(gaussian_norm_moment(m, G @ G.T, n) - sample.mean()) <= 5 * stderr, n

    @pytest.mark.parametrize("moment", [gaussian_norm_moment, chi_square_moment_bound])
    def test_indefinite_covariance_rejected(self, moment):
        with pytest.raises(IndefiniteMatrixError, match="P must be positive semidefinite"):
            moment(0, np.diag([1.0, -1.0]), 2)

    @pytest.mark.parametrize("moment", [gaussian_norm_moment, chi_square_moment_bound])
    @pytest.mark.parametrize("m", [np.ones(2), np.zeros(2), np.ones(4)])
    def test_mean_of_the_wrong_size_rejected(self, moment, m):
        with pytest.raises(ValueError, match="m must have size 3 like P"):
            moment(m, np.eye(3), 1)

    def test_gaussian_norm_moment_domain(self):
        with pytest.raises(ValueError):
            gaussian_norm_moment(0, np.eye(2), 0)

    @given(gaussian_laws(), st.integers(1, 3))
    def test_chi_square_bound_dominates_exact_moment(self, law, n):
        m, P = law
        assert chi_square_moment_bound(m, P, n) >= gaussian_norm_moment(m, P, n) ** (1.0 / n)
