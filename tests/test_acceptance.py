"""Acceptance suite: every release criterion, one printed verdict per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The expensive Monte Carlo benchmarks are shared session fixtures.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from kbstab import (
    Functional,
    assumption_inputs,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    check_assumption_continuous,
    chi_square_moment_bound,
    export_result,
    gauss_hermite_rule,
    gaussian_norm_moment,
    gronwall_continuous,
    integrated_velocity_certificate,
    log_norm_mu,
    log_norm_nu,
    make_filter_config,
    naive_vs_filter,
    preset_spec,
    run_experiment,
    simulate_paths,
    unscented_rule,
    check_degree_two_exactness,
)
from kbstab.matrix_measures import log_norm_range
from kbstab.models import VELOCITY_G_PRIME_MAX, VELOCITY_G_PRIME_MIN, velocity_g_prime


def verdict(tag, passed, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


class TestCriterion1FigureOneReproduction:
    def test_time_averaged_mse(self, fig1_result):
        targets = {"ekf": 1.058, "ukf": 1.128}
        ok = True
        details = []
        for kind, target in targets.items():
            value = fig1_result.time_averaged_mse[kind]
            within = abs(value - target) <= 0.15 * target
            ok &= within
            details.append(f"{kind} {value:.3f} vs {target} (+-15%)")
        assert verdict("1 fig1-mse", ok, "; ".join(details))


class TestCriterion2BoundDomination:
    def test_asymptotes_to_three_significant_figures(self, fig1_result):
        ekf = fig1_result.certificates["ekf"].mse_asymptote
        ukf = fig1_result.certificates["ukf"].mse_asymptote
        ok = abs(ekf - 4.58) <= 0.005 and abs(ukf - 25.45) <= 0.05
        assert verdict("2 asymptotes", ok, f"ekf {ekf:.4f} vs 4.58; ukf {ukf:.4f} vs 25.45")

    def test_empirical_below_bound_from_time_one(self, fig1_result):
        ok = True
        details = []
        sel = fig1_result.times >= 1.0
        for kind in ("ekf", "ukf"):
            mse = fig1_result.empirical_mse[kind][sel]
            bound = fig1_result.bound_curve[kind][sel]
            margin = float((bound - mse).min())
            ok &= margin >= 0.0
            details.append(f"{kind} min margin {margin:.3f}")
        assert verdict("2 domination", ok, "; ".join(details))


class TestCriterion3VelocityCertificate:
    def test_trace_bound_value(self):
        model = builtin_integrated_velocity()
        cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
        ok = abs(cert.lambda_P - 0.173) <= 0.02
        assert verdict("3a lambda_P", ok,
                       f"lambda_P {cert.lambda_P:.4f} vs 0.173 (+-0.02), "
                       f"lambda_12 {cert.details['lambda_12']:.4f}")

    def test_contraction_rate_value(self, velocity_corner_rate):
        # The rate is minus the supremum of mu(J - P S) over the covariance
        # box. The symmetric part has -g' on its diagonal, so mu >= -g' and
        # the rate can never exceed inf g' = lg. When s C12 <= 2 a2 the
        # supremum sits at the corner P11 = p11_lo, P12 = 0, g' = lg, where
        # the rate has a closed form. An eigvalsh search of the same box must
        # find nothing above -lambda, and its worst corner must reach it.
        args = dict(a1=0.0, a2=1.0, q1=0.05, h=1.0, r=0.05)  # the builder's defaults, spelled out
        model = builtin_integrated_velocity(**args)
        cert = integrated_velocity_certificate(model, make_filter_config("ekf", model))
        a1, a2, lg, g_hi = args["a1"], args["a2"], VELOCITY_G_PRIME_MIN, VELOCITY_G_PRIME_MAX
        s = args["h"] ** 2 / args["r"]
        c12 = cert.details["C12"]
        p11_lo, p11_up = cert.details["P11_interval"]
        corner_case = s * c12 <= 2.0 * a2
        lam_star = velocity_corner_rate(**args)

        def box_mu(points):
            P11, P12, G = points.T
            J = np.zeros((len(points), 2, 2))
            J[:, 0, 0], J[:, 0, 1], J[:, 1, 1] = a1, a2, -G
            P = np.zeros_like(J)
            P[:, 0, 0], P[:, 0, 1], P[:, 1, 0], P[:, 1, 1] = P11, P12, P12, cert.details["C22"]
            M = J - P @ np.diag([s, 0.0])
            return np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))[:, -1]

        corners = np.array(list(itertools.product((p11_lo, p11_up), (0.0, c12), (lg, g_hi))))
        interior = np.random.default_rng(31).uniform(
            [p11_lo, 0.0, lg], [p11_up, c12, g_hi], size=(4096, 3))
        worst_corner = float(box_mu(corners).max())
        worst = max(worst_corner, float(box_mu(interior).max()))
        ok = (corner_case
              and abs(cert.lam - lam_star) <= 1e-8
              and 0.0 < cert.lam <= lg
              and worst <= -cert.lam + 1e-12
              and abs(worst_corner + cert.lam) <= 1e-8)
        assert verdict("3b lambda", ok,
                       f"lambda {cert.lam:.6f} vs closed-form corner {lam_star:.6f} (+-1e-8, "
                       f"s C12 <= 2 a2: {corner_case}), cap inf g' {lg:.4f}, "
                       f"worst sampled mu {worst:.6f} (8 corners + 4096 interior)")

    def test_figure_two_domination(self, fig2_result):
        cert = fig2_result.certificates["ekf"]
        sel = fig2_result.times >= 2.0
        mse = fig2_result.empirical_mse["ekf"][sel]
        limit = cert.mse_asymptote
        margin = float((limit - mse).min())
        ok = margin >= 0.0
        assert verdict("3c fig2-domination", ok,
                       f"limiting bound {limit:.3f}, min margin {margin:.3f}")


class TestCriterion4LogLipschitzReproduction:
    """The attached drift constants against the Jacobian's log norms on a grid.

    A grid only under-approximates ``sup mu`` and over-approximates
    ``inf nu``, so it checks the attached values but cannot certify them.
    """

    def test_drift_constants(self):
        # contractive3d's Jacobian depends on (x1, x3) alone, so a 241 x 241
        # grid over [-6, 6]^2 at x2 = 0 stands for the box [-6, 6]^3; it comes
        # within 4.4e-4 of M and 1.0e-3 of N
        model = builtin_contractive3d()
        axis = np.linspace(-6.0, 6.0, 241)
        x1, x3 = (c.ravel() for c in np.meshgrid(axis, axis))
        pts = np.stack([x1, np.zeros_like(x1), x3], axis=-1)
        J = model.jac_f(pts)
        nu, mu = log_norm_range(J)
        m_grid, n_grid = float(mu.max()), float(nu.min())
        ok = (np.array_equal(model.jac_f(pts + [0.0, 5.0, 0.0]), J)
              and abs(m_grid - model.known_M_f) <= 0.002 and abs(n_grid - model.known_N_f) <= 0.002)
        assert verdict("4 drift", ok, f"M {m_grid:.4f} vs attached {model.known_M_f}; "
                                      f"N {n_grid:.4f} vs attached {model.known_N_f} (+-0.002)")

    def test_velocity_slopes(self):
        slope = velocity_g_prime(np.linspace(-20.0, 20.0, 400001))
        lo, hi = float(slope.min()), float(slope.max())
        ok = abs(hi - VELOCITY_G_PRIME_MAX) <= 1e-9 and abs(lo - VELOCITY_G_PRIME_MIN) <= 1e-9
        assert verdict("4 slopes", ok, f"sup {hi:.6f} vs {VELOCITY_G_PRIME_MAX:.6f}; "
                                       f"inf {lo:.6f} vs {VELOCITY_G_PRIME_MIN:.6f} (+-1e-9)")


@pytest.fixture(scope="module")
def linear_model():
    rng = np.random.default_rng(2024)
    A = -1.5 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    G = rng.standard_normal((3, 3))
    Q = G @ G.T / 3 + 0.5 * np.eye(3)
    return builtin_linear(A, Q=Q, H=np.eye(3), R=2.0 * np.eye(3),
                          mu0=np.zeros(3), Sigma0=0.2 * np.eye(3))


class TestCriterion5LinearOracle:
    def test_all_variants_coincide(self, linear_model, record_filter):
        _, states, incr, _ = simulate_paths(linear_model, dt=0.01, horizon=2.0, seed=15, n_paths=1)
        estimates = {
            kind: record_filter(linear_model, make_filter_config(kind, linear_model), states, incr, 0.01)[1]
            for kind in ("ekf", "ukf", "adf", "gh")
        }
        worst = 0.0
        kinds = list(estimates)
        for i in range(len(kinds)):
            for j in range(i + 1, len(kinds)):
                gap = np.abs(estimates[kinds[i]] - estimates[kinds[j]]).max()
                worst = max(worst, float(gap))
        ok = worst <= 1e-8
        assert verdict("5 variants", ok, f"worst pairwise estimate gap {worst:.2e}")

    def test_riccati_converges_to_algebraic_solution(self, linear_model, record_filter):
        A = linear_model.jac_f(np.zeros(3))  # the linear drift's Jacobian is A everywhere
        # independent steady-state solve
        P_inf = scipy.linalg.solve_continuous_are(A.T, linear_model.H.T, linear_model.Q,
                                                  linear_model.R)
        _, states, incr, _ = simulate_paths(linear_model, dt=1e-3, horizon=20.0, seed=16, n_paths=1)
        _, _, P, _ = record_filter(linear_model, make_filter_config("ekf", linear_model), states, incr, 1e-3)
        gap = float(np.abs(P[-1, 0] - P_inf).max())
        ok = gap <= 1e-3
        assert verdict("5 riccati", ok, f"terminal gap to algebraic solution {gap:.2e}")


class TestCriterion6PropertySuites:
    def test_degree_two_exactness(self):
        rules = [unscented_rule(d) for d in (1, 2, 3, 5)]
        rules += [gauss_hermite_rule(1, 5), gauss_hermite_rule(2, 4), gauss_hermite_rule(3, 3)]
        worst = max(
            max(r.weight_sum_residual, r.mean_residual, r.covariance_residual)
            for r in (check_degree_two_exactness(rule, tol=1e-9) for rule in rules)
        )
        ok = worst <= 1e-9
        assert verdict("6 exactness", ok, f"worst moment residual {worst:.2e}")

    def test_consistency_inequality_all_drifts_and_rules(self):
        cases = []
        for name, model in [("contractive3d", builtin_contractive3d()), ("velocity", builtin_integrated_velocity())]:
            d = model.dim_x
            inputs = assumption_inputs(d, samples=10000, seed=0)
            for rule_name, rule in [("ut", unscented_rule(d)), ("gh", gauss_hermite_rule(d, 3))]:
                F = Functional("sigma", rule)
                rep = check_assumption_continuous(F, model.f, model.known_M_f, model.known_N_f, inputs)
                cases.append((f"{name}/{rule_name}", rep.passed, rep.worst_violation))
        ok = all(p for _, p, _ in cases)
        assert verdict("6 consistency", ok,
                       "; ".join(f"{n} worst {v:.2e}" for n, _, v in cases))

    def test_log_norm_inequalities(self):
        rng = np.random.default_rng(99)
        A = rng.standard_normal((10000, 4, 4))
        B = rng.standard_normal((10000, 4, 4))
        x = rng.standard_normal((10000, 4))
        G = rng.standard_normal((10000, 4, 4))
        Bpsd = G @ np.swapaxes(G, 1, 2)
        sub = np.all(log_norm_mu(A + B) <= log_norm_mu(A) + log_norm_mu(B) + 1e-9)
        sub &= np.all(log_norm_nu(A + B) >= log_norm_nu(A) + log_norm_nu(B) - 1e-9)
        quad = np.einsum("bi,bij,bj->b", x, A, x)
        n2 = np.einsum("bi,bi->b", x, x)
        sand = np.all(quad <= log_norm_mu(A) * n2 + 1e-8 * np.maximum(1, n2))
        sand &= np.all(quad >= log_norm_nu(A) * n2 - 1e-8 * np.maximum(1, n2))
        trB = np.einsum("bii->b", Bpsd)
        trAB = np.einsum("bij,bji->b", A, Bpsd)
        scale = 1e-7 * np.maximum(1.0, np.abs(trB) * np.abs(log_norm_mu(A)))
        tr = np.all(trAB <= log_norm_mu(A) * trB + scale)
        tr &= np.all(trAB >= log_norm_nu(A) * trB - scale)
        ok = bool(sub and sand and tr)
        assert verdict("6 log-norms", ok, "subadditivity, sandwich, trace on 10000 samples")

    def test_gronwall_envelopes(self):
        # 100 Euler trajectories stepped together against one array envelope
        rng = np.random.default_rng(7)
        dt, n = 1e-3, 2000
        neg_alpha, b, x0 = rng.uniform([0.1, 0.0, 0.0], [3.0, 2.0, 5.0], size=(100, 3)).T
        alpha = -neg_alpha
        x, path = x0, np.empty((100, n))
        for k in range(n):
            x = x + dt * (alpha * x + b)
            path[:, k] = x
        env = gronwall_continuous(x0[:, None], alpha[:, None], b[:, None], np.arange(1, n + 1) * dt)
        worst = float(np.max(path - env))
        ok = worst <= 10 * dt
        assert verdict("6 gronwall", ok, f"worst Euler overshoot {worst:.2e}")

    def test_gaussian_moment_bound(self):
        # exact moments of ||X||^2 from its cumulants, so no sampling error
        rng = np.random.default_rng(11)
        m = np.array([0.4, -0.8, 0.1])
        G = rng.standard_normal((3, 3))
        P = G @ G.T / 3
        ok = True
        details = []
        for n in (1, 2, 3):
            emp = gaussian_norm_moment(m, P, n) ** (1.0 / n)
            bnd = chi_square_moment_bound(m, P, n)
            ok &= emp <= bnd
            details.append(f"n={n} {emp:.3g}<={bnd:.3g}")
        assert verdict("6 moments", ok, "; ".join(details))


class TestCriterion7Concentration:
    def test_exceedance_within_limit(self, fig1_result):
        ok = True
        worst = -np.inf
        for kind in ("ekf", "ukf"):
            rows = [r for r in fig1_result.exceedance if r["filter"] == kind and r["t"] in (5.0, 10.0)]
            ok &= len(rows) == 8
            for row in rows:
                ok &= row["passed"]
                worst = max(worst, row["frequency"] - row["limit"])
        assert verdict("7 concentration", ok, f"worst frequency excess {worst:+.4f}")


class TestCriterion8MeasurementComparison:
    def test_regime_sweep(self):
        def model(q, r):
            return builtin_discrete_linear(0.5 * np.eye(1), Q=q * np.eye(1), H=np.eye(1),
                                           R=r * np.eye(1), mu0=np.zeros(1), Sigma0=np.eye(1))

        low_ok = all(naive_vs_filter(model(q, r)).filter_wins
                     for q in (1e-4, 1e-3, 0.01) for r in (10.0, 30.0, 100.0))
        high_ok = all(not naive_vs_filter(model(q, r)).filter_wins
                      for q in (100.0, 300.0, 1000.0) for r in (10.0, 30.0, 100.0))
        ok = low_ok and high_ok
        assert verdict("8 naive-comparison", ok,
                       f"filter wins when tr(Q)<=0.01: {low_ok}; loses when tr(Q)>=100: {high_ok}")


class TestCriterion9Determinism:
    def test_worker_count_is_invisible_in_exports(self, fig1_export, tmp_path_factory):
        out4 = tmp_path_factory.mktemp("fig1_w4")
        result4 = run_experiment(preset_spec("fig1", workers=4))
        export_result(result4, out4)
        same_mse = (fig1_export / "mse.csv").read_bytes() == (out4 / "mse.csv").read_bytes()
        same_exc = (fig1_export / "exceedance.csv").read_bytes() == (out4 / "exceedance.csv").read_bytes()
        ok = same_mse and same_exc
        assert verdict("9 determinism", ok, f"mse.csv identical: {same_mse}; exceedance.csv identical: {same_exc}")
