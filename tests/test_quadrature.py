import numpy as np
import pytest

from kbstab import (
    check_degree_two_exactness,
    default_unscented_kappa,
    gauss_hermite_rule,
    matrix_sqrt,
    unscented_rule,
)
from kbstab.errors import IndefiniteMatrixError
from kbstab.quadrature import CubatureRule, _cholesky


def gaussian_quadratic_mean(C, a, b, x, P):
    """Closed-form E[z^T C z + a^T z + b] for z ~ N(x, P)."""
    return float(np.trace(C @ P) + x @ C @ x + a @ x + b)


class TestUnscented:
    def test_dim1_kappa2(self):
        rule = unscented_rule(1, 2.0)
        assert sorted(rule.points.ravel()) == pytest.approx([-np.sqrt(3), 0.0, np.sqrt(3)])
        assert rule.weights == pytest.approx([2 / 3, 1 / 6, 1 / 6])

    def test_dim3_kappa0(self):
        rule = unscented_rule(3, 0.0)
        assert rule.size == 7
        assert rule.weights[0] == 0.0
        assert check_degree_two_exactness(rule).passed

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_outputs_pass_exactness(self, dim):
        rule = unscented_rule(dim)
        report = check_degree_two_exactness(rule, tol=1e-10)
        assert report.passed
        assert not rule.has_negative_weights

    def test_default_kappa(self):
        assert default_unscented_kappa(1) == 2.0
        assert default_unscented_kappa(3) == 0.0
        assert default_unscented_kappa(7) == 0.0

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            unscented_rule(2, -0.5)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            unscented_rule(0)


class TestGaussHermite:
    def test_dim1_order3(self):
        rule = gauss_hermite_rule(1, 3)
        assert sorted(rule.points.ravel()) == pytest.approx([-np.sqrt(3), 0.0, np.sqrt(3)])
        assert sorted(rule.weights) == pytest.approx(sorted([2 / 3, 1 / 6, 1 / 6]))

    def test_dim2_order3(self):
        rule = gauss_hermite_rule(2, 3)
        assert rule.size == 9
        assert check_degree_two_exactness(rule, tol=1e-12).passed

    def test_fourth_moment_order10(self):
        rule = gauss_hermite_rule(1, 10)
        fourth = float(rule.weights @ rule.points.ravel() ** 4)
        assert fourth == pytest.approx(3.0, abs=1e-10)

    def test_weights_positive(self):
        rule = gauss_hermite_rule(3, 6)
        assert np.all(rule.weights > 0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(7, 8)  # 8**7 > 1e6

    def test_order_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(2, 1)


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self, rng):
        for _ in range(20):
            G = rng.standard_normal((4, 4))
            P = G @ G.T
            S = matrix_sqrt(P)
            assert np.allclose(S, S.T)
            assert np.abs(S @ S - P).max() <= 1e-8 * max(1.0, np.abs(P).max())

    def test_clamps_tiny_negative(self):
        P = np.diag([1.0, -5e-11])
        S = matrix_sqrt(P)
        assert S[1, 1] == 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteMatrixError):
            matrix_sqrt(np.diag([1.0, -1e-3]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matrix_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^P must be a finite number, got "):
            matrix_sqrt(np.diag([1.0, bad]))

    def test_tolerances_scale_with_the_entries(self):
        # the eigenvalue floor is -1e-10 times the largest entry: -1e-6 here
        assert matrix_sqrt(np.diag([1e4, -5e-7]))[1, 1] == 0.0
        with pytest.raises(IndefiniteMatrixError):
            matrix_sqrt(np.diag([1e4, -5e-5]))


def lapack_members(stack):
    """Per-member ``np.linalg.cholesky``: the factors, and the mask of members it rejects."""
    L, failing = np.zeros_like(stack), np.zeros(len(stack), dtype=bool)
    for b, M in enumerate(stack):
        try:
            L[b] = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            failing[b] = True
    return L, failing


def scaled_spd(rng, n, d, shift):
    """``n`` SPD members ``D (G G^T / d + shift I) D``, ``D`` diagonal with entries ``e^U(-20, 20)``."""
    G = rng.standard_normal((n, d, d))
    scale = np.exp(rng.uniform(-20.0, 20.0, (n, d)))
    return scale[:, :, None] * (G @ np.swapaxes(G, 1, 2) / d + shift * np.eye(d)) * scale[:, None, :]


def cholesky_first(stack):
    """The guard's recurrence on a batch-first stack, its factors moved back to batch-first."""
    L, failing = _cholesky(np.moveaxis(stack, 0, -1))
    return np.moveaxis(L, -1, 0), failing


def semidefinite_members(d):
    """Members on which every factorization stops at an exactly zero or negative pivot, or passes exactly."""
    v = np.arange(1.0, d + 1.0)
    low_rank = np.zeros((d, d))
    low_rank[1:, 1:] = np.eye(d - 1) if d > 1 else 0.0
    return [np.zeros((d, d)), np.outer(v, v), -np.eye(d), np.diag([1.0] * (d - 1) + [0.0]),
            np.diag([1.0] * (d - 1) + [-1e-300]), low_rank, np.eye(d) * 1e-300]


class TestCholeskyRecurrence:
    """The guard's one batch-last ``potf2`` recurrence, against LAPACK member by member."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_factors_equal_lapack_bit_for_bit(self, d, rng):
        # 60,000 SPD members per size, each coordinate scaled by e^U(-20, 20)
        P = scaled_spd(rng, 60_000, d, 1e-3)
        L, failing = cholesky_first(P)
        assert not failing.any()
        assert np.array_equal(L, np.linalg.cholesky(P))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_factors_within_roundoff_of_lapack(self, d, rng):
        # OpenBLAS fuses multiply-adds from d = 3 on. On members with condition
        # numbers up to about 11 the gap measured at most 2.2e-16 of sqrt(p_ii),
        # which bounds row i of the factor; LAPACK's own bits on most entries
        P = scaled_spd(rng, 20_000, d, 1.0)
        L, failing = cholesky_first(P)
        ref = np.linalg.cholesky(P)
        assert not failing.any()
        row_scale = np.sqrt(np.diagonal(P, axis1=1, axis2=2))[:, :, None]
        assert (np.abs(L - ref) / row_scale).max() <= 1e-15
        assert np.mean(L == ref) >= 0.9
        assert np.array_equal(np.triu(L, 1), np.zeros_like(L))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_failure_set_equals_lapack(self, d, rng):
        G = rng.standard_normal((400, d, d))
        eigvals = rng.uniform(0.1, 1.0, (400, d))
        # a quarter of the members get one eigenvalue of -0.1 to -1: indefinite by a margin
        eigvals[:100, 0] *= -1.0
        Q = np.linalg.qr(G)[0]
        random = (Q * eigvals[:, None, :]) @ np.swapaxes(Q, 1, 2)
        special = semidefinite_members(d)
        if d == 1:
            special += [[[-0.0]], [[1e-300]], [[-1e-300]], [[5e-324]]]
        elif d == 2:
            special += [
                [[1.0, 2.0], [2.0, 4.0]],              # second pivot exactly 0
                [[1e-300, 1e-300], [1e-300, 2e-300]],
                [[4e-300, 2e-300], [2e-300, 1e-300]],
                [[1e-300, 0.0], [0.0, -1e-300]],
                [[5e-324, 0.0], [0.0, 1.0]],
            ]
        stack = np.concatenate([random, np.array(special, dtype=float)])
        L, failing = cholesky_first(stack)
        ref, ref_failing = lapack_members(stack)
        assert np.array_equal(failing, ref_failing)
        assert failing[:100].all() and not failing[100:400].any()
        # the zero matrix and the negative identity; the rank-one v v^T is exactly singular from d = 2 on
        assert failing[400] and failing[402] and failing[401] == (d > 1)
        if d <= 2:
            assert np.array_equal(L[~failing], ref[~failing])

    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_pivot_fails_only_after_a_failed_one(self, d):
        # potf2 stops at the first pivot <= 0; a NaN pivot passes, and every pivot after it is NaN
        nan = np.nan
        members = [
            [[1.0, nan], [nan, 1.0]],    # second pivot NaN: passes
            [[nan, 0.0], [0.0, -1.0]],   # first pivot NaN, then NaN: passes
            [[-1.0, nan], [nan, 1.0]],   # negative pivot, then NaN: fails
            [[1.0, 0.0], [0.0, nan]],    # last pivot NaN: passes
        ]
        stack = np.zeros((len(members), d, d))
        stack[:, :2, :2] = members
        stack[:, 2:, 2:] = np.eye(d - 2)
        _, failing = cholesky_first(stack)
        assert np.array_equal(failing, lapack_members(stack)[1])
        assert failing.tolist() == [False, False, True, False]

    def test_overflowing_inner_product_fails_quietly(self):
        # l10 = 1e205, so l10 * l10 overflows and the second pivot is -inf, where LAPACK stops too;
        # the suite turns warnings into errors, so an overflow warning fails this test
        stack = np.array([[[1e-10, 1e200], [1e200, 1.0]], [[4.0, 2.0], [2.0, 2.0]]])
        _, failing = cholesky_first(stack)
        assert failing.tolist() == [True, False]
        assert np.array_equal(failing, lapack_members(stack)[1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_member_factor_independent_of_batch(self, d, rng):
        P = scaled_spd(rng, 1000, d, 1e-3)
        stack = np.moveaxis(P, 0, -1)
        whole, failing = _cholesky(stack)
        assert not failing.any()
        for s in (slice(0, 1), slice(5, 12), slice(100, 124), slice(0, 333)):
            part, _ = _cholesky(np.ascontiguousarray(stack[..., s]))
            assert np.array_equal(part, whole[..., s]), s


class TestExactnessChecker:
    def test_scaled_weights_fail(self):
        rule = unscented_rule(2)
        bad = CubatureRule(points=rule.points, weights=rule.weights * 1.1)
        report = check_degree_two_exactness(bad)
        assert not report.passed
        assert report.weight_sum_residual == pytest.approx(0.1)

    def test_gh_2x4_passes(self):
        assert check_degree_two_exactness(gauss_hermite_rule(2, 4)).passed

    def test_rule_is_a_read_only_copy_sized_by_its_points(self):
        points, weights = np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
        rule = CubatureRule(points=points, weights=weights)
        assert rule.dim == 1
        points[0, 0] = 2.0
        assert points.flags.writeable and rule.points[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            rule.weights[0] = 1.0

    @pytest.mark.parametrize("name", ["points", "weights"])
    def test_non_finite_entry_named(self, name):
        fields = {"points": [[1.0], [-1.0]], "weights": [0.5, 0.5]}
        fields[name][1] = np.nan if name == "weights" else [np.inf]
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            CubatureRule(**fields)

    def test_points_that_are_no_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^points must have shape \(2, any\), got \(2,\)"):
            CubatureRule(points=[1.0, -1.0], weights=[0.5, 0.5])

    def test_reports_negative_weights(self):
        rule = CubatureRule(points=[[1.0], [-1.0], [0.0]], weights=[0.75, 0.75, -0.5])
        report = check_degree_two_exactness(rule)
        assert report.negative_weight_count == 1
        assert report.min_weight == pytest.approx(-0.5)


class TestMomentProperties:
    """Transformed rules must reproduce affine functions exactly and
    quadratics against closed-form Gaussian moments."""

    @pytest.mark.parametrize("make", [
        lambda: unscented_rule(3),
        lambda: unscented_rule(2, 1.0),
        lambda: gauss_hermite_rule(3, 3),
        lambda: gauss_hermite_rule(2, 5),
    ])
    def test_affine_and_quadratic_exactness(self, make, rng):
        rule = make()
        d = rule.dim
        for _ in range(10):
            G = rng.standard_normal((d, d))
            P = G @ G.T + 0.1 * np.eye(d)
            x = rng.standard_normal(d)
            S = matrix_sqrt(P)
            pts = x + rule.points @ S
            a, b = rng.standard_normal(d), rng.standard_normal()
            affine = float(rule.weights @ (pts @ a + b))
            assert affine == pytest.approx(float(a @ x + b), abs=1e-9)
            C = rng.standard_normal((d, d))
            C = 0.5 * (C + C.T)
            quad = float(rule.weights @ (np.einsum("pi,ij,pj->p", pts, C, pts) + pts @ a + b))
            assert quad == pytest.approx(gaussian_quadratic_mean(C, a, b, x, P), abs=1e-8)
