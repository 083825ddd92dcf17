import warnings

import numpy as np
import pytest

from kbstab import (
    ContinuousModel,
    DiscreteModel,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    simulate_discrete_path,
    simulate_path,
    velocity_g,
    velocity_g_prime,
)
from kbstab.errors import DivergenceError
from kbstab.models import philox, simulate_discrete_paths, simulate_paths, velocity_log_lipschitz


def central_difference_jacobian(f, x, eps=1e-6):
    d = x.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = eps
        J[:, j] = (f(x + e) - f(x - e)) / (2 * eps)
    return J


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

    def test_jacobian_against_finite_differences(self, rng):
        model = builtin_integrated_velocity()
        for _ in range(100):
            x = rng.uniform(-5, 5, 2)
            J = central_difference_jacobian(model.f, x)
            assert np.abs(model.jac_f(x) - J).max() <= 1e-5 * max(1.0, np.abs(J).max())

    def test_log_lipschitz_closed_form(self):
        model = builtin_integrated_velocity()
        M, N = velocity_log_lipschitz(model)
        # oracle: dense sweep over the slope range
        gs = np.linspace(model.params["lg"], model.params["sup_gprime"], 2001)
        J = np.zeros((gs.size, 2, 2))
        J[:, 0, 1] = 1.0
        J[:, 1, 1] = -gs
        sym = 0.5 * (J + np.swapaxes(J, 1, 2))
        vals = np.linalg.eigvalsh(sym)
        assert M == pytest.approx(vals[:, 1].max(), abs=1e-6)
        assert N == pytest.approx(vals[:, 0].min(), abs=1e-6)

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


class TestModelValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            builtin_linear(np.eye(2), Q=np.array([[1.0, 0.2], [0.0, 1.0]]), H=np.eye(2), R=np.eye(2))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError):
            builtin_linear(np.eye(2), Q=np.diag([1.0, -1.0]), H=np.eye(2), R=np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            builtin_linear(np.eye(2), Q=np.eye(2), H=np.eye(2), R=np.eye(2), mu0=[0.0, bad])
        with pytest.raises(ValueError, match="mu0 must be finite"):
            builtin_discrete_linear(np.eye(1), Q=np.eye(1), H=np.eye(1), R=np.eye(1), mu0=[bad])

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
        path = simulate_path(model, dt=0.1, horizon=2.0, seed=0)
        assert np.allclose(path.states, 2.5)

    def test_ou_stationary_variance(self):
        model = builtin_linear(np.array([[-1.0]]), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.zeros(1), Sigma0=0.5 * np.eye(1))
        _, states, _, diverged = simulate_paths(model, dt=0.01, horizon=10.0, seed=7, n_paths=10000)
        assert np.all(diverged < 0)
        var = states[:, -1, 0].var()
        assert var == pytest.approx(0.5, abs=0.02)

    def test_bit_identical_reruns(self):
        model = builtin_contractive3d()
        a = simulate_path(model, dt=0.05, horizon=1.0, seed=42)
        b = simulate_path(model, dt=0.05, horizon=1.0, seed=42)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurement_increments, b.measurement_increments)

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
            single = simulate_path(model, dt=0.05, horizon=1.0, seed=9, path_index=p)
            assert np.array_equal(single.states, states[p])
            assert np.array_equal(single.measurement_increments, incr[p])

    def test_measurement_row0_is_placeholder(self):
        model = builtin_contractive3d()
        path = simulate_path(model, dt=0.1, horizon=1.0, seed=3)
        assert np.all(path.measurement_increments[0] == 0.0)
        assert len(path.times) == len(path.states) == len(path.measurement_increments)

    def test_divergence_raises_with_step(self):
        model = builtin_linear(np.array([[1e8]]), Q=np.eye(1), H=np.eye(1), R=np.eye(1),
                               mu0=np.ones(1), Sigma0=np.zeros((1, 1)))
        with pytest.raises(DivergenceError) as info:
            simulate_path(model, dt=1.0, horizon=60.0, seed=0)
        assert info.value.step is not None

    def test_invalid_grid_rejected(self):
        model = builtin_contractive3d()
        with pytest.raises(ValueError):
            simulate_path(model, dt=-0.1, horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            simulate_path(model, dt=0.3, horizon=1.0, seed=0)  # not a multiple


class TestDiscreteSimulation:
    def test_noiseless_identity_is_constant(self):
        model = builtin_discrete_linear(np.eye(2), Q=np.zeros((2, 2)), H=np.eye(2),
                                        R=np.zeros((2, 2)), mu0=np.array([1.0, -2.0]),
                                        Sigma0=np.zeros((2, 2)))
        path = simulate_discrete_path(model, steps=5, seed=0)
        assert np.allclose(path.states, [1.0, -2.0])
        assert np.allclose(path.measurement_increments[1:], [1.0, -2.0])

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
        a = simulate_discrete_path(model, steps=20, seed=11)
        b = simulate_discrete_path(model, steps=20, seed=11)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurement_increments, b.measurement_increments)
