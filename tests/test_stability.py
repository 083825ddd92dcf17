import dataclasses
import inspect
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from error_law import discrete_error_mse
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
from kbstab import filters
from kbstab.errors import (
    CertificateError,
    IndefiniteMatrixError,
    NoCertificateError,
    NotContractiveError,
    NotFullyObservedError,
)
from kbstab.filters import FILTER_KINDS, FilterConfig, _kb_step_batch, run_discrete_ensemble
from kbstab.functionals import Functional
from kbstab.harness import certificate_for
from kbstab.models import (
    VELOCITY_G_PRIME_MAX,
    VELOCITY_G_PRIME_MIN,
    simulate_discrete_paths,
    simulate_paths,
    velocity_g,
    velocity_g_prime,
)
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
        # the velocity drift's own M(f) = 0.333 is positive
        model = builtin_integrated_velocity()
        assert model.known_M_f == pytest.approx(0.333, abs=1e-3)
        config = make_filter_config("ekf", model)
        with pytest.raises(NotContractiveError):
            contractive_certificate(model, config)

    def test_not_fully_observed(self):
        model = builtin_linear(-np.eye(2), Q=np.eye(2), H=[[1.0, 0.0]], R=np.eye(1))
        assert model.known_M_f == -1.0
        config = make_filter_config("ekf", model)
        with pytest.raises(NotFullyObservedError):
            contractive_certificate(model, config)

    @pytest.mark.parametrize("kind, field", [("ekf", "known_M_f"), ("ukf", "known_M_f"), ("ukf", "known_N_f")])
    def test_missing_drift_constant_named(self, kind, field):
        model = dataclasses.replace(builtin_contractive3d(), **{field: None})
        with pytest.raises(ValueError, match=f"attach {field} to the model"):
            contractive_certificate(model, make_filter_config(kind, model))

    def test_point_evaluation_needs_no_N(self):
        model = dataclasses.replace(builtin_contractive3d(), known_N_f=None)
        cert = contractive_certificate(model, make_filter_config("ekf", model))
        assert cert.C_lambda == 0.0 and cert.details["N_f"] is None


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
            discrete_certificate(model, self.config(3))


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
                 discrete_certificate(disc, make_filter_config(kind, disc))]
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
            discrete_certificate(disc, make_filter_config("ukf", disc), "ekf")


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0", None])
    @pytest.mark.parametrize("field", ["lam", "lambda_P", "T", "C_lambda", "u", "rho", "C_T", "e_T_sq"])
    def test_constant_that_is_not_finite_named(self, field, value):
        # a NaN constant would make every bound NaN, and every comparison with it pass
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            self._cert(**{field: value})

    def test_negative_noise_rejected_and_negative_rho_kept(self):
        with pytest.raises(ValueError, match="C_lambda, u, C_T and e_T_sq must be nonnegative"):
            self._cert(u=-1e-12)
        assert self._cert(rho=-3.0).rho == -3.0

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


def inflation_floor(model, Q_tuned):
    """:func:`inflation_mineig_bound` of the model under an ``ekf`` config tuned with ``Q_tuned``."""
    return inflation_mineig_bound(model, make_filter_config("ekf", model, Q_tuned=Q_tuned))


class TestInflation:
    def test_closed_form_when_drift_neutral(self):
        for q, s, d in [(4.0, 1.0, 1), (2.0, 0.5, 3), (9.0, 2.0, 2)]:
            model = builtin_linear(np.zeros((d, d)), Q=np.eye(d), H=np.eye(d),
                                   R=(1.0 / s) * np.eye(d), mu0=np.zeros(d), Sigma0=np.eye(d))
            val = inflation_floor(model, q * np.eye(d))
            assert val == pytest.approx(math.sqrt(q / (d * s)), rel=1e-12)

    def test_worked_substitution(self):
        model = builtin_linear(np.zeros((1, 1)), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.zeros(1), Sigma0=np.eye(1))
        assert inflation_floor(model, 4.0 * np.eye(1)) == pytest.approx(2.0)

    def test_bound_holds_along_simulated_runs(self):
        # Monte Carlo oracle: the asymptotic floor must undercut the smallest
        # covariance eigenvalue observed at the end of inflated filter runs
        model = builtin_contractive3d()
        config = make_filter_config("ekf", model, Q_tuned=25.0 * np.eye(3))
        floor = inflation_mineig_bound(model, config)
        _, states, incr, _ = simulate_paths(model, dt=0.01, horizon=10.0, seed=123, n_paths=100)
        x = np.tile(config.x0_hat, (100, 1))
        P = np.tile(config.P0[:, :, None], (1, 1, 100))
        for k in range(1, states.shape[1]):
            x, P, _, _, bad = _kb_step_batch(model, config, x, P, None, incr[:, k], 0.01)
            assert not bad.any()
        min_eig = np.linalg.eigvalsh(np.moveaxis(P, -1, 0))[:, 0].min()
        assert floor <= min_eig + 1e-9

    @pytest.mark.parametrize("q", [1e-10, 1e-14, 1e-17])
    def test_expanding_drift_floor_without_cancellation(self, q):
        # N = s = d = 1: the floor is 1 + sqrt(1 + q), also where q is far
        # below the roundoff of N^2
        model = builtin_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
        floor = inflation_floor(model, q * np.eye(1))
        assert floor == pytest.approx(1.0 + math.sqrt(1.0 + q), rel=1e-15)

    def test_unobserved_expanding_drift_rejected(self):
        for a in (0.0, 1.0):
            model = builtin_linear(a * np.eye(1), Q=np.eye(1), H=np.zeros((1, 1)), R=np.eye(1))
            with pytest.raises(ValueError, match="unbounded"):
                inflation_floor(model, np.eye(1))
        contracting = builtin_linear(-np.eye(1), Q=np.eye(1), H=np.zeros((1, 1)), R=np.eye(1))
        assert inflation_floor(contracting, 4.0 * np.eye(1)) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("d", [2, 4])
    def test_wrong_size_tuning_rejected(self, d):
        # the tuning's own checks (shape, symmetry, definiteness) are FilterConfig's
        other = builtin_linear(-np.eye(d), Q=np.eye(d), H=np.eye(d), R=np.eye(d))
        with pytest.raises(ValueError, match=f"x0_hat, Q_tuned and P0 have size {d}, not dim_x = 3"):
            inflation_mineig_bound(builtin_contractive3d(), make_filter_config("ekf", other))

    def test_drift_constants_come_from_the_model(self):
        bare = dataclasses.replace(builtin_contractive3d(), known_M_f=None, known_N_f=None)
        with pytest.raises(ValueError, match="attach known_N_f to the model"):
            inflation_floor(bare, np.eye(3))
        with pytest.raises(ValueError, match="attach known_M_f to the model"):
            required_inflation(bare, target_lambda=1.0)
        with pytest.raises(ValueError, match="attach known_N_f to the model"):
            required_inflation(dataclasses.replace(bare, known_M_f=0.5), target_lambda=1.0)
        model = builtin_contractive3d()
        attached = dataclasses.replace(bare, known_M_f=model.known_M_f, known_N_f=model.known_N_f)
        assert inflation_floor(attached, np.eye(3)) == inflation_floor(model, np.eye(3))
        assert np.array_equal(required_inflation(attached, 1.0), required_inflation(model, 1.0))

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
            assert inflation_floor(model, q) == pytest.approx(target, rel=1e-12)
        assert min(signs.values()) >= 5

    def test_required_inflation_self_consistent(self):
        model = dataclasses.replace(builtin_contractive3d(), known_M_f=0.5)
        q = required_inflation(model, target_lambda=1.0)
        target = (0.5 + 1.0) / model.s_scalar()
        achieved = inflation_floor(model, q)
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

    @pytest.mark.parametrize("name, value, args, certified", [
        ("R", [[0.5]], {"r": 0.5}, False),
        ("R", [[0.02]], {"r": 0.02}, True),
        ("H", [[2.0, 0.0]], {"h": 2.0}, True),
    ])
    def test_certificate_reads_the_model_it_certifies(self, name, value, args, certified):
        # a model changed with dataclasses.replace is the model the builder makes
        # from the same arguments: it gets the same certificate, or none for the
        # same reason, whatever the default model would have got
        replaced = dataclasses.replace(builtin_integrated_velocity(), **{name: np.array(value)})
        fresh = builtin_integrated_velocity(**args)

        def outcome(model, kind):
            try:
                return integrated_velocity_certificate(model, make_filter_config(kind, model)).to_dict()
            except NoCertificateError as exc:
                return str(exc), exc.hypothesis

        for kind in ("ekf", "ukf"):
            want = outcome(fresh, kind)
            assert isinstance(want, dict) == certified
            assert outcome(replaced, kind) == want

    @pytest.mark.parametrize("changes, field", [
        ({"H": np.array([[1.0, 1.0]])}, "H"),
        ({"H": np.array([[0.0, 1.0]])}, "H"),
        ({"H": np.array([[0.0, 0.0]])}, "H"),
        ({"dim_y": 2, "H": np.eye(2), "R": 0.05 * np.eye(2)}, "R"),
    ], ids=["both-components", "velocity", "nothing", "two-measurements"])
    def test_model_that_does_not_measure_the_position_rejected(self, changes, field):
        # the certificate's bounds hold only for H = [[h, 0]], h != 0, and a
        # 1x1 R; without the check, H = [[1, 1]] gets the default model's rate
        model = dataclasses.replace(builtin_integrated_velocity(), **changes)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            integrated_velocity_certificate(model, make_filter_config("ekf", model))

    @pytest.mark.parametrize("case", ["velocity-drift", "exploding-velocity", "velocity-reads-position",
                                      "position-feedback-varies"])
    def test_certificate_checks_the_drift_it_certifies(self, case):
        # the certificate reads a1, a2 from the Jacobian's first row at the origin and
        # assumes x2' = -g(x2) with g' in [VELOCITY_G_PRIME_MIN, MAX]; without its grid
        # check, x2' = 5 x2, whose paths blow up, got the default model's rate
        def f(x):
            x1, x2 = x[..., 0], x[..., 1]
            out = np.stack([x2, -velocity_g(x2)], axis=-1)
            if case == "exploding-velocity":
                out[..., 1] = 5.0 * x2
            elif case == "velocity-reads-position":
                out[..., 1] -= 0.5 * x1
            elif case == "position-feedback-varies":
                out[..., 0] += 0.05 * x1 * x1
            return out

        def jac(x):
            J = np.zeros(x.shape[:-1] + (2, 2))
            J[..., 0, 1] = 1.0
            J[..., 1, 1] = -velocity_g_prime(x[..., 1])
            if case == "exploding-velocity":
                J[..., 1, 1] = 5.0
            elif case == "velocity-reads-position":
                J[..., 1, 0] = -0.5
            elif case == "position-feedback-varies":
                J[..., 0, 0] = 0.1 * x[..., 0]
            return J

        default = builtin_integrated_velocity()
        constants = {"known_M_f": 5.1, "known_N_f": -0.1} if case == "exploding-velocity" else {}
        model = dataclasses.replace(default, f=f, jac_f=jac, **constants)
        for kind in ("ekf", "ukf"):
            config = make_filter_config(kind, model)
            if case == "velocity-drift":
                # the builder's drift, rebuilt by hand, gets the builder's certificate
                want = certificate_for(default, make_filter_config(kind, default))
                assert certificate_for(model, config).to_dict() == want.to_dict()
                continue
            with pytest.raises(CertificateError) as caught:
                certificate_for(model, config)
            assert caught.value.hypothesis == "velocity drift structure"

    def test_certificate_fields(self):
        model = builtin_integrated_velocity()
        cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
        assert cert.asymptotic
        assert cert.C_lambda == 0.0
        assert cert.details["C22"] == pytest.approx(0.0597, abs=1e-3)
        assert cert.lambda_P == pytest.approx(0.173, abs=0.02)
        assert "lambda_12" in cert.details
        assert 0.0 < cert.lam <= VELOCITY_G_PRIME_MIN + 1e-9

    def test_rate_is_box_worst_case(self, velocity_corner_rate):
        # with s C12 <= 2 a2 the supremum of mu(J - P S) over the box is at the
        # corner P11 = p11_lo, P12 = 0, g' = lg, so the rate is the closed form;
        # the builder's defaults give s = h^2 / r = 20 and a2 = 1
        for kwargs in ({}, {"a1": -0.5}, {"a2": 0.5}):
            model = builtin_integrated_velocity(**kwargs)
            cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
            assert 20.0 * cert.details["C12"] <= 2.0 * kwargs.get("a2", 1.0)
            assert cert.lam == pytest.approx(velocity_corner_rate(**kwargs), abs=1e-8)

    def test_box_supremum_matches_eigvalsh_search(self, rng):
        # independent oracle: the largest eigenvalue of the symmetric part of
        # J - P S, searched over the box's 8 corners and seeded interior points
        far_end = 0
        for _ in range(60):
            a1, a2 = rng.uniform(-1.0, 0.5), rng.uniform(0.05, 3.0)
            q1, q2, h, r = rng.uniform(0.01, 1.0, size=4)
            lg, g_hi = VELOCITY_G_PRIME_MIN, VELOCITY_G_PRIME_MAX
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

    def test_certificate_allocates_little(self, traced_peak):
        # the supremum is closed-form: no dense box grid may come back
        model = builtin_integrated_velocity()
        assert traced_peak(lambda: integrated_velocity_certificate(model, make_filter_config("ekf", model))) < 2**20

    def test_trace_bound_holds_on_simulation(self):
        model = builtin_integrated_velocity()
        config = make_filter_config("ekf", model)
        cert = integrated_velocity_certificate(model, config)
        _, states, incr, _ = simulate_paths(model, dt=0.01, horizon=10.0, seed=77, n_paths=50)
        x = np.tile(config.x0_hat, (50, 1))
        P = np.tile(config.P0[:, :, None], (1, 1, 50))
        worst = 0.0
        for k in range(1, states.shape[1]):
            x, P, _, _, bad = _kb_step_batch(model, config, x, P, None, incr[:, k], 0.01)
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

    def test_takes_only_the_model_and_its_config(self):
        for builder in (contractive_certificate, integrated_velocity_certificate, discrete_certificate):
            assert str(inspect.signature(builder)) == "(model, config)"
        assert str(inspect.signature(inflation_mineig_bound)) == "(model, config)"
        assert str(inspect.signature(required_inflation)) == "(model, target_lambda)"

    def test_no_measurements_contraction_case(self):
        # s = 0: no d/s cap, so lambda_P_upd = max(tr P0, tr Q / (1 - 0.8^2))
        model = builtin_discrete_linear(0.8 * np.eye(2), Q=np.eye(2), H=np.zeros((2, 2)),
                                        R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config)
        assert cert.lambda_d == 1.0
        assert cert.lambda_df == pytest.approx(0.8)
        assert cert.kappa == 0.0
        assert cert.lambda_P_upd == pytest.approx(2.0 / 0.36, rel=1e-14)

    def test_expanding_map_has_no_certificate(self):
        model = builtin_discrete_linear(1.1 * np.eye(2), Q=np.eye(2), H=np.zeros((2, 2)),
                                        R=np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2))
        config = make_filter_config("ekf", model)
        with pytest.raises(NoCertificateError) as err:
            discrete_certificate(model, config)
        assert err.value.hypothesis == "lambda_df < 1"

    def test_unknown_drift_norm_named(self):
        model = dataclasses.replace(self._model(), known_jf_norm=None)
        with pytest.raises(ValueError, match="known_jf_norm"):
            discrete_certificate(model, make_filter_config("ekf", model))

    def test_singular_R_named(self):
        model = self._model(d=2, r=0.0)
        with pytest.raises(IndefiniteMatrixError, match="R must be positive definite"):
            discrete_certificate(model, make_filter_config("ekf", model))

    def test_gain_shrinks_with_measurement_noise(self):
        # s = 1e-6: the cap is tr Q / (1 - 0.5^2) = 4/3, above tr P0 = 1
        model = self._model(r=1e6)
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config)
        assert cert.lambda_P_upd == cert.lambda_P_pred == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert cert.kappa == pytest.approx(4.0 / 3.0 * 1e-6, rel=1e-9)
        assert cert.lambda_d == 1.0

    def test_worked_scalar_case(self):
        # s = 1, tr P0 = 1: lambda_P_upd = max(1, min(1, 1 / 0.75)) = 1, and
        # lambda_P_pred = 0.25 + 1; every value is exact in binary
        model = self._model(a=0.5, q=1.0, h=1.0, r=1.0)
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config)
        assert cert.lambda_P_upd == 1.0
        assert cert.lambda_P_pred == cert.kappa == 1.25
        assert cert.lambda_d == 1.0
        assert cert.lambda_df == 0.5
        assert cert.eta == 0.0
        assert cert.u_d == 2.5625
        assert cert.mse_asymptote == 2.5625 / 0.75

    def test_quadrature_kind_gets_lipschitz_constant(self):
        model = self._model(a=0.5)
        config = make_filter_config("ukf", model)
        cert = discrete_certificate(model, config)
        assert cert.C_f == pytest.approx(0.5)
        assert cert.eta == pytest.approx(1.0 * math.sqrt(0.5 * 1.0))

    def test_derived_constants_are_analytic(self):
        model = self._model()
        cert = discrete_certificate(model, make_filter_config("ekf", model))
        assert cert.provenance == "analytic"

    def test_initial_error_is_bound_at_build(self):
        # mu0 - x0_hat = (0.75, -2.5) and Sigma0 = diag(1, 3): tr Sigma0 = 4
        # but ||Sigma0|| = 3, and the gap is taken against the config's start
        model = builtin_discrete_linear(0.7 * np.eye(2), Q=0.1 * np.eye(2), H=np.eye(2), R=0.5 * np.eye(2),
                                        mu0=np.array([1.0, -2.0]), Sigma0=np.diag([1.0, 3.0]))
        config = make_filter_config("ekf", model, x0_hat=np.array([0.25, 0.5]))
        cert = discrete_certificate(model, config)
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

    FIELDS = ["lambda_d", "lambda_df", "kappa", "lambda_P_pred", "lambda_P_upd", "C_f", "eta", "u_d",
              "e0_sq", "e0_root"]

    @pytest.mark.parametrize("value", [-1e-12, math.nan])
    @pytest.mark.parametrize("field", FIELDS)
    def test_negative_constant_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            self._cert(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1.0", None])
    @pytest.mark.parametrize("field", FIELDS)
    def test_constant_that_is_not_finite_named(self, field, value):
        # a NaN u_d made both bounds NaN; a negative one a negative bound
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number"):
            self._cert(**{field: value})

    def test_contraction_factor_below_one(self):
        with pytest.raises(ValueError, match=r"^lambda_df must lie in \[0, 1\)"):
            self._cert(lambda_df=1.0)

    def test_asymptote_is_the_long_run_bound(self):
        cert = self._cert(lambda_df=0.6, u_d=1.3, C_f=0.4, lambda_d=1.1, lambda_P_upd=2.0)
        assert cert.mse_asymptote == (1.3 + 1.1**2 * 0.4 * 2.0) / (1.0 - 0.6**2)
        assert discrete_mse_bound(cert, 10**6) == cert.mse_asymptote

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


class TestDiscreteExport:
    def test_asymptote_follows_the_initial_error(self):
        model = builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        cert = discrete_certificate(model, make_filter_config("ukf", model))
        out = cert.to_dict()
        assert list(out) == ["type", "lambda_d", "lambda_df", "kappa", "lambda_P_pred", "lambda_P_upd", "C_f",
                             "eta", "u_d", "e0_sq", "e0_root", "mse_asymptote", "provenance", "jf_norm", "kind"]
        assert (out["type"], out["mse_asymptote"], out["kind"]) == ("discrete", cert.mse_asymptote, "quadrature")
        assert cert.format_text() == "\n".join(f"{k:<16} {v}" for k, v in out.items())
        assert cert.to_json() == json.dumps(out, sort_keys=True, indent=2)


class TestDiscreteBoundMonteCarlo:
    def test_bound_dominates_empirical_error(self):
        # s = 1, tr P0 = 0.5 above the cap 0.1 / 0.75: lambda_P_upd = 0.5 and
        # lambda_P_pred = 0.25 * 0.5 + 0.1, which the first prediction attains
        a, q, r = 0.5, 0.1, 1.0
        model = builtin_discrete_linear(a * np.eye(1), Q=q * np.eye(1), H=np.eye(1),
                                        R=r * np.eye(1), mu0=np.zeros(1),
                                        Sigma0=0.5 * np.eye(1))
        config = make_filter_config("ekf", model)
        cert = discrete_certificate(model, config)
        assert (cert.lambda_P_upd, cert.lambda_P_pred) == (0.5, 0.225)

        steps, n_paths = 30, 200
        _, states, meas, _ = simulate_discrete_paths(model, steps, seed=42, n_paths=n_paths)
        run = run_discrete_ensemble(model, config, states, meas)
        assert run.trace_max.max() <= cert.lambda_P_upd
        err_sq = run.err_sq
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
    """Certificate and ensemble run of one model and filter kind."""
    name, kind = request.param
    model, states, meas = discrete_ensemble_paths[name]
    config = make_filter_config(kind, model)
    cert = discrete_certificate(model, config)
    run = run_discrete_ensemble(model, config, states, meas)
    assert np.all(run.diverged < 0)
    return cert, run


class TestDiscreteCertificateEnsemble:
    """The discrete certificate against 2000 filtered paths of 50 steps.

    Both models have ``H = I``, ``R = 0.5 I``, ``Q = 0.1 I``, ``Sigma0 = I``
    and ``||J_f|| <= 0.7``. So ``s = 2`` and the cap ``min(d/s, tr Q / (1 -
    0.49)) = 0.392`` lies below ``tr P0 = 2``: :func:`discrete_certificate`
    gives ``lambda_P_upd = 2`` and ``lambda_P_pred = 0.49 * 2 + 0.2``, for
    every variant.
    """

    def test_trace_bounds_take_the_initial_trace(self, discrete_run):
        cert, _ = discrete_run
        jf = cert.details["jf_norm"]
        assert (cert.lambda_d, cert.lambda_df) == (1.0, jf)
        assert (cert.lambda_P_upd, cert.lambda_P_pred) == (2.0, jf**2 * 2.0 + 0.2)

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


@st.composite
def isotropic_discrete_models(draw, min_dim=1, observations=("none", "identity", "rotation")):
    """Linear discrete models with ``S = s I``, ``||A|| < 1`` and random positive definite ``Q``, ``R``, ``Sigma0``.

    ``H`` is zero, ``h I`` (with ``R = r I``) or ``h L U``, where ``L L^T = R``
    and ``U`` is orthogonal, so that ``S = h^2 U^T U = h^2 I``.
    """
    d = draw(st.integers(min_dim, 3))
    observe = draw(st.sampled_from(observations))
    jf, h = draw(st.floats(0.0, 0.95)), draw(st.floats(0.1, 3.0))
    q, sigma0 = 10.0 ** draw(st.floats(-2.0, 1.0)), 10.0 ** draw(st.floats(-2.0, 0.3))
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))

    def spd(scale):
        G = gen.uniform(-1.0, 1.0, (d, d))
        return scale * (G @ G.T + 0.1 * np.eye(d))

    G = gen.uniform(-1.0, 1.0, (d, d))
    A = jf * G / np.linalg.norm(G, 2)
    R = spd(1.0)
    if observe == "none":
        H = np.zeros((d, d))
    elif observe == "identity":
        H, R = h * np.eye(d), R[0, 0] * np.eye(d)
    else:
        H = h * np.linalg.cholesky(R) @ np.linalg.qr(gen.standard_normal((d, d)))[0]
    return builtin_discrete_linear(A, Q=spd(q), H=H, R=R, mu0=np.zeros(d), Sigma0=spd(sigma0))


class TestDiscreteTraceBounds:
    """Every step of ``ekf``, ``ukf`` and ``gh`` stays within the constants of :func:`discrete_certificate`.

    ``SLACK`` is roundoff only: over 9000 runs of random models like these
    the largest excess measured was one ulp (``tr P / lambda_P - 1 =
    2.2e-16``, at ``P0`` when ``lambda_P_upd = tr P0``), and ``||I - K H||``
    never exceeded 1. The bounds allow four ulps.
    """

    SLACK = 4.0 * np.finfo(float).eps

    def check_every_step(self, model, steps=12):
        update = filters._update_batch
        seen = []

        def spy(model, x_pred, P_pred, y):
            x, P, K = update(model, x_pred, P_pred, y)
            seen.append((P_pred, P, K))
            return x, P, K

        _, states, meas, _ = simulate_discrete_paths(model, steps, seed=5, n_paths=4)
        for kind in ("ekf", "ukf", "gh"):
            config = make_filter_config(kind, model)
            cert = discrete_certificate(model, config)
            seen.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(filters, "_update_batch", spy)
                run = run_discrete_ensemble(model, config, states, meas)
            assert np.all(run.diverged < 0) and len(seen) == steps
            P_pred, P_upd, K = (np.stack(steps_of) for steps_of in zip(*seen))
            assert np.trace(P_upd, axis1=-2, axis2=-1).max() <= cert.lambda_P_upd * (1.0 + self.SLACK), kind
            assert run.trace_max.max() <= cert.lambda_P_upd * (1.0 + self.SLACK), kind
            assert np.trace(P_pred, axis1=-2, axis2=-1).max() <= cert.lambda_P_pred * (1.0 + self.SLACK), kind
            deviation = np.linalg.norm(np.eye(model.dim_x) - K @ model.H, 2, axis=(-2, -1))
            assert deviation.max() <= cert.lambda_d * (1.0 + self.SLACK), kind

    @given(isotropic_discrete_models())
    def test_linear_models(self, model):
        self.check_every_step(model)

    def test_discrete_sine(self, discrete_sine):
        self.check_every_step(discrete_sine())

    @given(isotropic_discrete_models(min_dim=2, observations=("identity", "rotation")), st.floats(1.1, 3.0))
    def test_stretched_observation_rejected(self, model, stretch):
        H = model.H.copy()
        H[0] *= stretch
        skewed = dataclasses.replace(model, H=H)
        with pytest.raises(NotFullyObservedError):
            discrete_certificate(skewed, make_filter_config("ekf", skewed))


@st.composite
def mistuned(draw, model):
    """``(Q_tuned, P0, x0_hat)`` of the model's size, each off the model's ``Q``, ``Sigma0`` and ``mu0``."""
    d = model.dim_x
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))

    def spd(scale):
        G = gen.uniform(-1.0, 1.0, (d, d))
        return scale * (G @ G.T + 0.1 * np.eye(d))

    q, p, offset = (10.0 ** draw(st.floats(lo, hi)) for lo, hi in ((-2.0, 1.0), (-2.0, 1.0), (-2.0, 0.5)))
    return spd(q), spd(p), model.mu0 + offset * gen.standard_normal(d)


class TestDiscreteErrorLaw:
    """The discrete MSE bound against the exact error law of mis-tuned linear models (``tests/error_law.py``).

    At every step ``k <= 200``, ``E||E_k||^2 = ||m_k||^2 + tr Sigma_k`` must
    lie under ``discrete_mse_bound(cert, k)``, with the four ulps of
    :class:`TestDiscreteTraceBounds`. Over 2000 models drawn like these,
    each under the three kinds, the largest ratio of law to bound was
    ``1 + 4.4e-16``, two ulps, on an unobserved scalar model under ``ekf``:
    there ``K = 0`` and ``E||E_k||^2 = a^2k e0_sq + tr Q (1 - a^2k) / (1 -
    a^2)``, which the bound exceeds by ``tr Q a^2k / (1 - a^2)`` alone: that
    is 0 from ``k = 1`` on at ``a = 0``, and vanishes as ``k`` grows. The
    median ratio at the last step was 0.42.
    The law is the filter's in exact arithmetic, the same for every kind;
    the bound of a quadrature kind is the larger, by its ``C_f`` term.
    """

    STEPS = 200

    @given(isotropic_discrete_models(), st.data())
    def test_bound_holds_at_every_step(self, model, data):
        Q_tuned, P0, x0_hat = data.draw(mistuned(model))
        A = model.jac_f(np.zeros(model.dim_x))  # a linear drift's Jacobian is A everywhere
        mse = discrete_error_mse(A, model.Q, model.H, model.R, model.Sigma0, model.mu0 - x0_hat,
                                 Q_tuned, P0, self.STEPS)
        for kind in ("ekf", "ukf", "gh"):
            cert = discrete_certificate(model, make_filter_config(kind, model, Q_tuned=Q_tuned, x0_hat=x0_hat,
                                                                  P0=P0))
            bound = np.array([discrete_mse_bound(cert, k) for k in range(self.STEPS + 1)])
            assert np.all(mse <= bound * (1.0 + TestDiscreteTraceBounds.SLACK)), kind


class TestNaiveComparison:
    def _model(self, jf=0.5, q=0.01, h=1.0, r=10.0, d=1):
        return builtin_discrete_linear(jf * np.eye(d), Q=(q / d) * np.eye(d),
                                       H=h * np.eye(d), R=r * np.eye(d),
                                       mu0=np.zeros(d), Sigma0=np.eye(d))

    def test_naive_value(self):
        model = self._model(h=1.0, r=4.0, d=2, q=0.02)
        report = naive_vs_filter(model)
        assert report.naive_mse == pytest.approx(8.0)

    def test_filter_bound_is_the_certificate_asymptote(self):
        # s = 0.01 caps lambda_P_upd at d/s = 100: lambda_P_pred = kappa r = 125,
        # u_d = 100 + 1.25^2 100 = 256.25 and the bound 256.25 / 0.75
        report = naive_vs_filter(self._model(q=100.0, r=100.0))
        cert = report.certificate
        assert (cert.lambda_P_upd, cert.lambda_P_pred, cert.C_f) == (100.0, 125.0, 0.0)
        assert report.filter_bound == cert.mse_asymptote == pytest.approx(256.25 / 0.75, rel=1e-14)
        assert report.naive_mse == 100.0 and not report.filter_wins

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

        def reference(x0, a, b, t):
            if a == 0.0:
                return x0 + b * t
            eat = math.exp(a * t)
            return x0 * eat - (1.0 - eat) * b / a

        scalar = np.array([[reference(float(x0[i, 0]), float(alpha[i, 0]), float(b[i, 0]), float(tj))
                            for tj in t] for i in range(40)])
        # The two differ only where np.exp and math.exp round e^{alpha t}
        # differently, by an error of at most 1e-15 of the terms the formula adds.
        eat = np.exp(alpha * t)
        scale = eat * (x0 + np.divide(b, np.abs(alpha), out=b * t, where=alpha != 0))
        assert np.all(np.abs(env - scalar) <= 1e-15 * scale)
        np.testing.assert_array_equal(env[30:], x0[30:] + b[30:] * t)

    def test_scalar_call_returns_a_float(self):
        assert type(gronwall_continuous(1.0, -0.5, 2.0, 0.3)) is float
        eat = np.exp(-0.5 * 0.3)
        assert gronwall_continuous(1.0, -0.5, 2.0, 0.3) == 1.0 * eat + (eat - 1.0) * 2.0 / -0.5

    @pytest.mark.parametrize("alpha", [-0.5, 0.0])
    def test_zero_dimensional_arguments_give_a_float(self, alpha):
        args = (1.0, alpha, 2.0, 0.3)
        for wrap in (np.float64, np.array):
            env = gronwall_continuous(*map(wrap, args))
            assert type(env) is float
            assert env == gronwall_continuous(*args)

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
