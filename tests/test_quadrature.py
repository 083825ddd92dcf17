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
        with pytest.raises(ValueError, match="must be finite"):
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


@pytest.mark.parametrize("d", [1, 2])
class TestClosedFormCholesky:
    """The guard's closed-form factor of 1x1 and 2x2 stacks is LAPACK's, bit for bit."""

    def test_factors_equal_lapack_bit_for_bit(self, d, rng):
        # 60,000 SPD members per size, each coordinate scaled by e^U(-20, 20)
        G = rng.standard_normal((60_000, d, d))
        scale = np.exp(rng.uniform(-20.0, 20.0, (60_000, d)))
        P = scale[:, :, None] * (G @ np.swapaxes(G, 1, 2) + 1e-3 * np.eye(d)) * scale[:, None, :]
        L, failing = _cholesky(P)
        assert not failing.any()
        assert np.array_equal(L, np.linalg.cholesky(P))

    def test_failure_set_equals_lapack(self, d, rng):
        G = rng.standard_normal((400, d, d))
        # shifted down by up to 3: a mix of definite and indefinite members
        shifted = G @ np.swapaxes(G, 1, 2) - rng.uniform(0.0, 3.0, 400)[:, None, None] * np.eye(d)
        if d == 1:
            special = [[[0.0]], [[-0.0]], [[-1.0]], [[1e-300]], [[-1e-300]], [[5e-324]]]
        else:
            special = [
                np.zeros((2, 2)),
                [[1.0, 2.0], [2.0, 4.0]],              # second pivot exactly 0
                [[1e-300, 0.0], [0.0, 1e-300]],
                [[1e-300, 1e-300], [1e-300, 2e-300]],
                [[4e-300, 2e-300], [2e-300, 1e-300]],
                [[1e-300, 0.0], [0.0, -1e-300]],
                [[5e-324, 0.0], [0.0, 1.0]],
            ]
        stack = np.concatenate([shifted, np.array(special, dtype=float)])
        L, failing = _cholesky(stack)
        ref, ref_failing = lapack_members(stack)
        assert np.array_equal(failing, ref_failing)
        assert 0 < failing.sum() < len(stack)
        assert np.array_equal(L[~failing], ref[~failing])
        # the zero matrix, and -0.0 or the exactly singular member
        assert failing[400:402].all()


class TestExactnessChecker:
    def test_scaled_weights_fail(self):
        rule = unscented_rule(2)
        bad = CubatureRule(dim=2, points=rule.points, weights=rule.weights * 1.1)
        report = check_degree_two_exactness(bad)
        assert not report.passed
        assert report.weight_sum_residual == pytest.approx(0.1)

    def test_gh_2x4_passes(self):
        assert check_degree_two_exactness(gauss_hermite_rule(2, 4)).passed

    def test_reports_negative_weights(self):
        rule = CubatureRule(dim=1, points=[[1.0], [-1.0], [0.0]], weights=[0.75, 0.75, -0.5])
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
