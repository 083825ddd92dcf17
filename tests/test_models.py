import dataclasses
import warnings

import numpy as np
import pytest

from kbstab import (
    ContinuousModel,
    DiscreteModel,
    Functional,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    gauss_hermite_rule,
    simulate_discrete_paths,
    simulate_paths,
    velocity_g,
    velocity_g_prime,
)
from kbstab.errors import IndefiniteMatrixError
from kbstab.functionals import eval_drift_batch
from kbstab.models import _faddeeva, _philox_key, _rekeyer, philox
from kbstab.quadrature import matrix_sqrt


def central_difference_jacobian(f, x, eps=1e-6):
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = eps
        J[:, j] = (f(x + e) - f(x - e)) / (2 * eps)
    return J


def one_path(model, dt, horizon, seed, path_index=0):
    """Path ``path_index`` alone: ``(states, increments, diverged)`` of the batch of one."""
    _, states, incr, diverged = simulate_paths(model, dt, horizon, seed, 1, first_path=path_index)
    return states[0], incr[0], int(diverged[0])


def one_discrete_path(model, steps, seed, path_index=0):
    """Discrete analogue of :func:`one_path`."""
    _, states, meas, diverged = simulate_discrete_paths(model, steps, seed, 1, first_path=path_index)
    return states[0], meas[0], int(diverged[0])


def assert_rows_are_single_runs(batch, single):
    """A diverged path is finite before its step, NaN (and unmeasured) from it, and
    ``single(p)`` reports that step; every row equals ``single(p)``."""
    _, states, meas, diverged = batch
    for p, k in enumerate(diverged):
        alone, alone_meas, alone_diverged = single(p)
        assert alone_diverged == k
        if k >= 0:
            assert np.all(np.isfinite(states[p, :k])) and np.all(np.isnan(states[p, k:]))
            assert np.all(meas[p, k:] == 0.0)
        np.testing.assert_array_equal(alone, states[p])
        np.testing.assert_array_equal(alone_meas, meas[p])


class TestContractive3d:
    def test_drift_vanishes_at_origin(self):
        model = builtin_contractive3d()
        assert np.allclose(model.f(np.zeros(3)), 0.0)

    def test_information_rate_matrix(self):
        model = builtin_contractive3d()
        assert np.allclose(model.S, np.eye(3) / 8.0)
        assert np.trace(model.S) == pytest.approx(0.375)
        assert model.s_scalar() == pytest.approx(0.125)

    def test_jacobian_against_finite_differences(self, rng):
        model = builtin_contractive3d()
        J0 = central_difference_jacobian(model.f, np.zeros(3))
        assert np.abs(model.jac_f(np.zeros(3)) - J0).max() <= 1e-6
        for _ in range(100):
            x = rng.uniform(-4, 4, 3)
            J = central_difference_jacobian(model.f, x)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(model.jac_f(x) - J).max() <= 1e-5 * scale


def small_covariances(rng, n):
    """``n`` draws per trace in ``(0, 1e-8, 1e-4, 1e-2, 0.1)``, batch-last; every
    fourth is singular along ``x1`` and every fourth (offset one) has ``P33 = 0``."""
    G = rng.standard_normal((5 * n, 3, 3))
    P = G @ np.swapaxes(G, 1, 2)
    P *= np.repeat([0.0, 1e-8, 1e-4, 1e-2, 0.1], n)[:, None, None] / np.trace(P, axis1=1, axis2=2)[:, None, None]
    P[::4, 0, :] = P[::4, :, 0] = 0.0
    P[1::4, 2, :] = P[1::4, :, 2] = 0.0
    return np.moveaxis(P, 0, -1).copy()


class TestGaussianDrift:
    """contractive3d's exact Gaussian moments, the ``adf`` filter's terms on it."""

    def test_faddeeva_matches_scipy(self, rng):
        # the arguments the rational term takes, zeta = (i - m) / (s sqrt 2);
        # the largest relative error measured is 1.3e-14
        wofz = pytest.importorskip("scipy.special").wofz
        m = rng.uniform(-50.0, 50.0, 20000)
        s = np.exp(rng.uniform(np.log(1e-4), np.log(20.0), 20000))
        zeta = (1j - m) / (s * np.sqrt(2.0))
        exact = wofz(zeta)
        assert (np.abs(_faddeeva(zeta) - exact) / np.abs(exact)).max() <= 1e-13

    def test_matches_gauss_hermite_40_at_small_covariances(self, rng):
        # GH40 is exact to roundoff at these scales, and at P = 0 it gives the
        # point values; the largest gaps measured are 9.8e-15 (mean) and
        # 8.0e-16 (Riccati term)
        model = builtin_contractive3d()
        x = rng.uniform(-3.0, 3.0, (40, 3))
        P = small_covariances(rng, 8)
        mean, lam = model.gaussian_drift(x, P)
        ref_mean, ref_lam = eval_drift_batch(Functional("sigma", gauss_hermite_rule(3, 40)), "cont", model.f, x, P)
        assert np.abs(mean - ref_mean).max() <= 1e-12
        assert np.abs(lam - ref_lam).max() <= 1e-12

    def test_tiny_variance_of_x3_beside_large_ones(self, rng):
        # P33 = 1e-12 puts zeta near 7e5, where w' = -2 zeta w + 2i/sqrt(pi)
        # cancels: it is 2.6e-11 off in the Riccati term; the moment series
        # that takes over there is 1.1e-15 off
        model = builtin_contractive3d()
        x = rng.uniform(-3.0, 3.0, (12, 3))
        P = np.tile(np.diag([0.1, 0.1, 1e-12])[:, :, None], (1, 1, 12))
        P[0, 2] = P[2, 0] = 1e-7
        mean, lam = model.gaussian_drift(x, P)
        ref_mean, ref_lam = eval_drift_batch(Functional("sigma", gauss_hermite_rule(3, 40)), "cont", model.f, x, P)
        assert np.abs(mean - ref_mean).max() <= 1e-12
        assert np.abs(lam - ref_lam).max() <= 1e-12

    def test_each_path_from_its_own_inputs(self, rng):
        # one batch mixes the series (P33 = 0, 1e-8) and the Faddeeva function
        model = builtin_contractive3d()
        x = rng.uniform(-3.0, 3.0, (40, 3))
        P = small_covariances(rng, 8)
        mean, lam = model.gaussian_drift(x, P)
        for b in range(40):
            one_mean, one_lam = model.gaussian_drift(x[b:b + 1], P[..., b:b + 1].copy())
            assert np.array_equal(one_mean[0], mean[b]) and np.array_equal(one_lam[..., 0], lam[..., b]), b


class TestIntegratedVelocity:
    def test_nonlinearity_at_origin(self):
        assert velocity_g(0.0) == pytest.approx(0.0)
        assert velocity_g_prime(0.0) == pytest.approx(1.0)

    def test_information_rate_scalar(self):
        model = builtin_integrated_velocity()
        assert model.S[0, 0] == pytest.approx(20.0)
        assert model.S[1, 1] == pytest.approx(0.0)
        assert model.s_scalar() is None

    def test_slope_bounds_bracket_sampled_slopes(self, rng):
        z = rng.uniform(-50, 50, 100000)
        g = velocity_g_prime(z)
        assert g.min() >= 0.419 - 1e-3
        assert g.max() <= 1.581 + 1e-3

    def test_slope_minus_one_is_odd(self):
        # so VELOCITY_G_PRIME_MAX = 2 - VELOCITY_G_PRIME_MIN, each attained at the other's -z
        z = np.concatenate([np.linspace(-50.0, 50.0, 20001), np.linspace(0.48, 0.51, 3001)])
        np.testing.assert_allclose(velocity_g_prime(z) + velocity_g_prime(-z), 2.0, rtol=0, atol=1e-15)

    def test_jacobian_against_finite_differences(self, rng):
        model = builtin_integrated_velocity()
        for _ in range(100):
            x = rng.uniform(-5, 5, 2)
            J = central_difference_jacobian(model.f, x)
            assert np.abs(model.jac_f(x) - J).max() <= 1e-5 * max(1.0, np.abs(J).max())

    @pytest.mark.parametrize("a1, a2", [(0.0, 1.0)] + [
        (float(a1), float(a2)) for a1, a2 in np.random.default_rng(5).uniform([-3.0, 0.05], [3.0, 4.0], (6, 2))])
    def test_log_lipschitz_closed_form(self, a1, a2):
        model = builtin_integrated_velocity(a1=a1, a2=a2)
        # oracle: dense sweep over the slope range
        gs = np.linspace(model.params["lg"], model.params["sup_gprime"], 2001)
        J = np.zeros((gs.size, 2, 2))
        J[:, 0, 0] = a1
        J[:, 0, 1] = a2
        J[:, 1, 1] = -gs
        sym = 0.5 * (J + np.swapaxes(J, 1, 2))
        vals = np.linalg.eigvalsh(sym)
        assert model.known_M_f == pytest.approx(vals[:, 1].max(), abs=1e-6)
        assert model.known_N_f == pytest.approx(vals[:, 0].min(), abs=1e-6)

    def test_slope_matches_its_power_form(self):
        # the cube is taken as z * z * z; it must stay within a few ulp of z**3's result
        z = np.linspace(-50, 50, 100001)
        power_form = 1.0 + ((z**3 + z) * np.cos(z) - (z**2 - 1.0) * np.sin(z)) / (1.0 + z**2) ** 2
        np.testing.assert_array_max_ulp(velocity_g_prime(z), power_form, maxulp=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            builtin_integrated_velocity(a2=0.0)
        with pytest.raises(ValueError):
            builtin_integrated_velocity(h=0.0)
        with pytest.raises(ValueError):
            builtin_integrated_velocity(r=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                builtin_integrated_velocity(a1=bad)
            with pytest.raises(ValueError, match="A must be finite"):
                builtin_linear([[bad]], Q=np.eye(1), H=np.eye(1), R=np.eye(1))

    @pytest.mark.parametrize("bad", [True, "1"])
    @pytest.mark.parametrize("name", ["a1", "a2", "q1", "q2", "h", "r"])
    def test_parameter_that_is_no_real_number_named(self, name, bad):
        with pytest.raises(ValueError, match="^a1, a2, q1, q2, h and r must be finite$"):
            builtin_integrated_velocity(**{name: bad})


class TestModelValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            builtin_linear(np.eye(2), Q=np.array([[1.0, 0.2], [0.0, 1.0]]), H=np.eye(2), R=np.eye(2))

    @pytest.mark.parametrize("build", [builtin_linear, builtin_discrete_linear], ids=["cont", "disc"])
    @pytest.mark.parametrize("name", ["Q", "Sigma0"])
    def test_indefinite_covariance_rejected(self, name, build):
        # the model checks Sigma0 once; the bounds that read it trust it
        law = {"Q": np.eye(2), "Sigma0": np.eye(2), name: np.diag([1.0, -1.0])}
        with pytest.raises(IndefiniteMatrixError, match=f"{name} must be positive semidefinite"):
            build(0.5 * np.eye(2), H=np.eye(2), R=np.eye(2), **law)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            builtin_linear(np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2), mu0=[0.0, bad])
        with pytest.raises(ValueError, match="mu0 must be finite"):
            builtin_discrete_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1), mu0=[bad])

    @pytest.mark.parametrize("field, bad", [
        *((field, bad) for field in ("known_M_f", "known_N_f", "known_jf_norm")
          for bad in (True, "0.5", np.nan, np.inf, -np.inf)),
        ("known_jf_norm", -0.5),
    ])
    def test_attached_drift_constant_checked(self, field, bad):
        model = builtin_linear(-np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(model, **{field: bad})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ContinuousModel(dim_x=2, dim_y=1, f=lambda x: x, jac_f=lambda x: x,
                            Q=np.eye(2), H=np.eye(2), R=np.eye(1), mu0=np.zeros(2),
                            Sigma0=np.eye(2))

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ContinuousModel(2, 1, lambda x: x, lambda x: x, np.eye(2), np.eye(1, 2), np.eye(1),
                            np.zeros(2), np.eye(2))

    def test_time_kind_is_a_class_attribute(self):
        assert ContinuousModel.time == builtin_contractive3d().time == "cont"
        assert DiscreteModel.time == builtin_discrete_linear(
            np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1)).time == "disc"

    def test_simulators_reject_the_other_time_kind(self):
        discrete = builtin_discrete_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
        with pytest.raises(ValueError):
            simulate_paths(discrete, dt=0.1, horizon=1.0, seed=0, n_paths=2)
        with pytest.raises(ValueError):
            simulate_discrete_paths(builtin_contractive3d(), steps=3, seed=0, n_paths=2)


class TestContinuousSimulation:
    def test_zero_noise_zero_drift_is_constant(self):
        model = builtin_linear(np.zeros((1, 1)), Q=np.zeros((1, 1)), H=np.eye(1),
                               R=np.eye(1), mu0=np.array([2.5]), Sigma0=np.zeros((1, 1)))
        states, _, _ = one_path(model, dt=0.1, horizon=2.0, seed=0)
        assert np.allclose(states, 2.5)

    def test_ou_stationary_variance(self):
        model = builtin_linear(np.array([[-1.0]]), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.zeros(1), Sigma0=0.5 * np.eye(1))
        _, states, _, diverged = simulate_paths(model, dt=0.01, horizon=10.0, seed=7, n_paths=10000)
        assert np.all(diverged < 0)
        var = states[:, -1, 0].var()
        assert var == pytest.approx(0.5, abs=0.02)

    def test_bit_identical_reruns(self):
        model = builtin_contractive3d()
        a = one_path(model, dt=0.05, horizon=1.0, seed=42)
        b = one_path(model, dt=0.05, horizon=1.0, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("seeds", [(-1, -2), (2**63, 2**63 + 1)])
    def test_seeds_outside_int64_do_not_collide(self, seeds):
        # seeds are taken mod 2**64 and keyed as uint64 words, never through float64
        model = builtin_contractive3d()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = (simulate_paths(model, dt=0.05, horizon=0.5, seed=s, n_paths=2)[1] for s in seeds)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("key", [(7, 1), (1, 3998), (0, 10), (2**63 - 1, 3)])
    def test_int64_seeds_keep_their_streams(self, key):
        assert np.array_equal(philox(*key).bit_generator.random_raw(8),
                              np.random.Philox(key=list(key)).random_raw(8))

    def test_batch_rows_match_single_paths(self):
        # chunking must never change a path: compare batch simulation
        # against one-at-a-time simulation, bit for bit
        model = builtin_contractive3d()
        _, states, incr, _ = simulate_paths(model, dt=0.05, horizon=1.0, seed=9, n_paths=8)
        for p in range(8):
            single_states, single_incr, _ = one_path(model, dt=0.05, horizon=1.0, seed=9, path_index=p)
            assert np.array_equal(single_states, states[p])
            assert np.array_equal(single_incr, incr[p])

    def test_measurement_row0_is_placeholder(self):
        model = builtin_contractive3d()
        times, states, incr, _ = simulate_paths(model, dt=0.1, horizon=1.0, seed=3, n_paths=1)
        assert np.all(incr[0, 0] == 0.0)
        assert len(times) == states.shape[1] == incr.shape[1]

    def test_divergence_raises_with_step(self):
        # a blow-up is reported as the step it happened at, not raised
        model = builtin_linear(np.array([[1e8]]), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.ones(1), Sigma0=np.zeros((1, 1)))
        _, _, step = one_path(model, dt=1.0, horizon=60.0, seed=0)
        assert step > 0

    def test_paths_diverging_at_different_steps(self):
        # x' = x - x^3 under Euler steps of 0.1: paths started far out
        # overflow, each at its own step, and the rest settle
        model = ContinuousModel(dim_x=1, dim_y=1, f=lambda x: x - x**3, jac_f=lambda x: (1 - 3 * x**2)[..., None],
                                Q=np.eye(1), H=np.eye(1), R=np.eye(1), mu0=np.zeros(1), Sigma0=25.0 * np.eye(1))
        batch = simulate_paths(model, dt=0.1, horizon=2.0, seed=3, n_paths=12)
        diverged = batch[3]
        assert len(set(diverged[diverged >= 0].tolist())) >= 3
        assert np.any(diverged < 0)
        assert_rows_are_single_runs(batch, lambda p: one_path(model, dt=0.1, horizon=2.0, seed=3, path_index=p))

    def test_peak_memory_is_the_record(self, traced_peak):
        # the noise is drawn into the rows its steps overwrite: at fig2's
        # benchmark size the call peaked at 9.70 MB against a 9.62 MB record
        # (numpy 2.4); separate noise buffers copied in row by row peaked at 19.32 MB
        model = builtin_integrated_velocity()
        B, n = 1000, 400
        simulate_paths(model, dt=0.01, horizon=0.1, seed=7, n_paths=10)
        peak = traced_peak(simulate_paths, model, dt=0.01, horizon=4.0, seed=7, n_paths=B)
        assert peak <= 1.05 * 8 * (n + 1) * B * (model.dim_x + model.dim_y)

    def test_invalid_grid_rejected(self):
        model = builtin_contractive3d()
        with pytest.raises(ValueError):
            one_path(model, dt=-0.1, horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            one_path(model, dt=0.3, horizon=1.0, seed=0)  # not a multiple


class TestSimulatorArguments:
    """A bad simulator argument is a ``ValueError`` that names it."""

    def assert_rejected(self, name, value):
        """Every simulator that takes ``name`` rejects ``value`` for it, naming it."""
        discrete_model = builtin_discrete_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1))
        calls = [(simulate_paths, builtin_contractive3d(), dict(dt=0.1, horizon=1.0, seed=0, n_paths=2, first_path=0)),
                 (simulate_discrete_paths, discrete_model, dict(steps=3, seed=0, n_paths=2, first_path=0))]
        for call, model, kwargs in calls:
            if name in kwargs:
                with pytest.raises(ValueError, match=f"^{name} "):
                    call(model, **{**kwargs, name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.1, "0.1", True])
    def test_dt(self, value):
        self.assert_rejected("dt", value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, "1.0"])
    def test_horizon(self, value):
        self.assert_rejected("horizon", value)

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "7", None])
    def test_seed(self, value):
        self.assert_rejected("seed", value)

    @pytest.mark.parametrize("value", [-1, 0, 2.5, 2.0, True, np.nan])
    def test_n_paths(self, value):
        self.assert_rejected("n_paths", value)

    @pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True])
    def test_steps(self, value):
        self.assert_rejected("steps", value)

    @pytest.mark.parametrize("value", [-1, 1.0, 0.5, False])
    def test_first_path(self, value):
        self.assert_rejected("first_path", value)

    def test_numpy_integers_are_accepted(self):
        model = builtin_contractive3d()
        _, states, _, _ = simulate_paths(model, 0.1, 0.2, np.uint64(5), np.int64(2), first_path=np.int32(3))
        assert np.array_equal(states, simulate_paths(model, 0.1, 0.2, 5, 2, first_path=3)[1])


class TestDiscreteSimulation:
    def test_noiseless_identity_is_constant(self):
        model = builtin_discrete_linear(np.eye(2), Q=np.zeros((2, 2)), H=np.eye(2),
                                        R=np.zeros((2, 2)), mu0=np.array([1.0, -2.0]),
                                        Sigma0=np.zeros((2, 2)))
        states, meas, _ = one_discrete_path(model, steps=5, seed=0)
        assert np.allclose(states, [1.0, -2.0])
        assert np.allclose(meas[1:], [1.0, -2.0])

    def test_zero_map_gives_iid_noise(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = builtin_discrete_linear(np.zeros((2, 2)), Q=Q, H=np.eye(2), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.zeros((2, 2)))
        _, states, _, _ = simulate_discrete_paths(model, steps=1, seed=5, n_paths=10000)
        draws = states[:, 1, :]
        cov = np.cov(draws.T)
        assert np.abs(cov - Q).max() <= 0.05 * np.abs(Q).max() * 2

    def test_deterministic_under_seed(self):
        model = builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2),
                                        mu0=np.zeros(2), Sigma0=np.eye(2))
        a = one_discrete_path(model, steps=20, seed=11)
        b = one_discrete_path(model, steps=20, seed=11)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


    def test_measurement_overflow_freezes_its_path_for_good(self):
        # negative paths grow tenfold a step until H x overflows while the
        # state is still finite; fmin maps the frozen NaN state to a finite
        # value, which must not bring the path back
        model = DiscreteModel(dim_x=1, dim_y=1, f=lambda x: np.fmin(10.0 * x, 1e4),
                              jac_f=lambda x: np.where(10.0 * x < 1e4, 10.0, 0.0)[..., None],
                              Q=np.eye(1), H=1e300 * np.eye(1), R=np.eye(1), mu0=np.zeros(1), Sigma0=np.eye(1))
        batch = simulate_discrete_paths(model, steps=15, seed=2, n_paths=10)
        diverged = batch[3]
        assert sorted(set(diverged[diverged >= 0].tolist())) == [8, 9]
        assert_rows_are_single_runs(batch, lambda p: one_discrete_path(model, steps=15, seed=2, path_index=p))


SIGMA0_FULL = np.array([[1.0, 0.4, -0.2], [0.4, 0.8, 0.3], [-0.2, 0.3, 0.6]])


class TestStreamContract:
    """Path ``p`` of a batch starting at ``first_path`` draws from the stream
    ``philox(seed, 4 (first_path + p) + role)``: role 0 its initial state,
    role 1 its state noise and role 2 its measurement noise, each from the
    start of its stream."""

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 1])
    @pytest.mark.parametrize("first_path", [0, 5])
    @pytest.mark.parametrize("paths, n, Sigma0", [
        (3, 5, np.diag([0.5, 1.0, 2.0])),
        # 200 paths draw in 66 chunks of 3 and a last one of 2, 130 in 65 chunks of 2;
        # the initial states' stacked product meets a full root of Sigma0
        (200, 5, SIGMA0_FULL), (3, 1, SIGMA0_FULL), (130, 1, SIGMA0_FULL),
    ], ids=["3x5-diag", "200x5-full", "3x1-full", "130x1-full"])
    def test_rows_come_from_fresh_keyed_streams(self, seed, first_path, paths, n, Sigma0):
        # zero drift and H = 0 leave the noise rows readable from the paths;
        # dim 3 leaves words in the generator's buffer after each draw
        Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]])
        R, mu0 = np.array([[0.3]]), np.array([0.5, -1.0, 2.0])
        zero, H = np.zeros((3, 3)), np.zeros((1, 3))
        cont = builtin_linear(zero, Q=Q, H=H, R=R, mu0=mu0, Sigma0=Sigma0)
        disc = builtin_discrete_linear(zero, Q=Q, H=H, R=R, mu0=mu0, Sigma0=Sigma0)
        sqrt_q, sqrt_r, sqrt_s0 = matrix_sqrt(Q), matrix_sqrt(R), matrix_sqrt(Sigma0)
        # two simulations in a row, each over several streams
        _, xc, yc, _ = simulate_paths(cont, dt=0.25, horizon=n * 0.25, seed=seed, n_paths=paths,
                                      first_path=first_path)
        _, xd, yd, _ = simulate_discrete_paths(disc, n, seed, paths, first_path=first_path)
        for p in range(paths):
            g_init, g_state, g_meas = (philox(seed, 4 * (first_path + p) + role) for role in range(3))
            x0 = mu0 + sqrt_s0 @ g_init.standard_normal(3)
            z_state, z_meas = g_state.standard_normal((n, 3)), g_meas.standard_normal((n, 1))
            # continuous rows: x_k = x_{k-1} + sqrt(dt) w_k, y_k = sqrt(dt) v_k
            np.testing.assert_array_equal(xc[p], np.cumsum(np.vstack([x0, 0.5 * z_state @ sqrt_q]), axis=0))
            np.testing.assert_array_equal(yc[p, 1:], 0.5 * z_meas @ sqrt_r)
            # discrete rows: x_k = w_k, y_k = v_k
            np.testing.assert_array_equal(xd[p, 0], x0)
            np.testing.assert_array_equal(xd[p, 1:], z_state @ sqrt_q)
            np.testing.assert_array_equal(yd[p, 1:], z_meas @ sqrt_r)

    def test_rekey_forgets_counter_and_buffer(self):
        gen = philox(3, 8)
        gen.standard_normal(5)
        gen.integers(0, 2**32, dtype=np.uint32)
        state = gen.bit_generator.state
        assert state["state"]["counter"][0] > 0 and state["buffer_pos"] < 4 and state["has_uint32"] == 1
        fresh = philox(9, 2)
        _rekeyer(gen)(_philox_key(9, 2).tolist())
        np.testing.assert_array_equal(gen.integers(0, 2**32, size=5, dtype=np.uint32),
                                      fresh.integers(0, 2**32, size=5, dtype=np.uint32))
        np.testing.assert_array_equal(gen.standard_normal(7), fresh.standard_normal(7))

    @pytest.mark.parametrize("n_paths", [1, 4, 40])
    def test_one_generator_per_simulation(self, n_paths, monkeypatch):
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        simulate_paths(builtin_contractive3d(), dt=0.05, horizon=0.5, seed=7, n_paths=n_paths)
        assert len(built) == 1
        simulate_discrete_paths(builtin_discrete_linear(0.5 * np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2)),
                                steps=5, seed=7, n_paths=n_paths)
        assert len(built) == 2
