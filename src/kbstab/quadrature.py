"""Unit sigma-point rules, Gauss-Hermite tensor rules, and the PSD root and clamp.

A cubature rule here is a set of unit sigma-points and weights approximating
expectations against a standard Gaussian. The rules constructed by this
module integrate every polynomial of total degree at most two exactly, the
property the filter stability theory relies on, for ``N(x, P)`` at the
points ``x + L xi`` with any root ``L L^T = P`` (:func:`_psd_root`).
"""

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import IndefiniteMatrixError

MAX_RULE_POINTS = 10**6


@dataclass(frozen=True)
class CubatureRule:
    """Unit sigma-points ``points`` (n, dim) with weights ``weights`` (n,)."""

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if points.shape != (weights.size, self.dim):
            raise ValueError("points must have shape (len(weights), dim)")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise ValueError("rule entries must be finite")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self):
        return self.weights.size

    @property
    def has_negative_weights(self):
        return bool(np.any(self.weights < 0.0))


def default_unscented_kappa(dim):
    """Classical fourth-moment matching clipped to keep weights nonnegative."""
    return max(0.0, 3.0 - dim)


def unscented_rule(dim, kappa=None):
    """Unscented transform points for a ``dim``-dimensional unit Gaussian.

    Produces ``2 dim + 1`` points: the origin with weight ``kappa/(dim+kappa)``
    and ``+-sqrt(dim+kappa) e_i`` with weight ``1/(2 (dim+kappa))``. Requires
    ``kappa >= 0`` so that every weight is nonnegative, a condition the
    stability constants depend on.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if kappa is None:
        kappa = default_unscented_kappa(dim)
    kappa = float(kappa)
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative (negative weights are not allowed)")
    scale = np.sqrt(dim + kappa)
    eye = np.eye(dim)
    points = np.vstack([np.zeros((1, dim)), scale * eye, -scale * eye])
    weights = np.concatenate([[kappa / (dim + kappa)], np.full(2 * dim, 0.5 / (dim + kappa))])
    return CubatureRule(dim=dim, points=points, weights=weights)


def gauss_hermite_rule(dim, order):
    """Tensor product of probabilists' Gauss-Hermite rules.

    ``order`` nodes per axis, hence ``order ** dim`` points with positive
    weights; exact for polynomials up to total degree ``2 order - 1``.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if order < 2:
        raise ValueError("order must be at least 2")
    if order**dim > MAX_RULE_POINTS:
        raise ValueError(f"rule would have {order**dim} points (limit {MAX_RULE_POINTS})")
    nodes, weights = hermegauss(order)
    weights = weights / np.sqrt(2.0 * np.pi)
    idx = np.array(list(itertools.product(range(order), repeat=dim)))
    points = nodes[idx]
    w = np.prod(weights[idx], axis=1)
    return CubatureRule(dim=dim, points=points.reshape(-1, dim), weights=w)


def _clamp_psd(M):
    """Symmetrize stacked matrices and set their negative eigenvalues to zero; also return roots.

    The roots ``V diag(sqrt(max(lam, 0)))`` come from the same eigendecomposition.
    """
    sym = 0.5 * (M + np.swapaxes(M, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2)), vecs * np.sqrt(vals)[..., None, :]


def _psd_root(P):
    """Symmetrize a stack of matrices and return it with a root ``L L^T = P`` of each member.

    ``L`` is the Cholesky factor; matrices whose factorization fails are
    eigen-clamped by :func:`_clamp_psd`, which gives their root. Whether a
    member is clamped depends on its own matrix alone, never on its batch.
    """
    sym = 0.5 * (P + np.swapaxes(P, -1, -2))
    try:
        return sym, np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        L, failing = np.empty_like(sym), []
    for b, M in enumerate(sym):
        try:
            L[b] = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            failing.append(b)
    sym[failing], L[failing] = _clamp_psd(sym[failing])
    return sym, L


def _check_psd(name, M):
    """``eigh`` of the symmetrized square ``M``, which must be finite, symmetric and PSD, naming ``name``.

    With ``s = max(1, max |M_ij|)``, asymmetry up to ``1e-10 s`` and eigenvalues down to
    ``-1e-10 s`` are rounding noise; an indefinite ``M`` raises :class:`IndefiniteMatrixError`.
    """
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    if vals[0] < -1e-10 * scale:
        raise IndefiniteMatrixError(f"{name} must be positive semidefinite, has eigenvalue {vals[0]:.3e}")
    return vals, vecs


def matrix_sqrt(P):
    """Symmetric positive-semidefinite square root via eigendecomposition.

    Eigenvalues in ``[-1e-10 s, 0)``, ``s = max(1, max |P_ij|)``, are
    rounding noise and clamped to zero; anything below raises
    :class:`IndefiniteMatrixError`.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("expected a single square matrix")
    vals, vecs = _check_psd("matrix", P)
    S = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (S + S.T)


@dataclass(frozen=True)
class ExactnessReport:
    """Moment residuals of a rule against the standard Gaussian."""

    weight_sum_residual: float
    mean_residual: float
    covariance_residual: float
    negative_weight_count: int
    min_weight: float
    tol: float
    passed: bool

    def __bool__(self):
        return self.passed


def check_degree_two_exactness(rule, tol=1e-10):
    """Verify the three degree-two moment identities of a cubature rule.

    Checks that weights sum to one, the weighted mean of the points is zero
    and their weighted second moment is the identity. Negative weights are
    reported but do not fail the moment check on their own.
    """
    w, xi = rule.weights, rule.points
    wsum = abs(float(w.sum()) - 1.0)
    mean = float(np.abs(w @ xi).max())
    cov = float(np.abs(np.einsum("p,pi,pj->ij", w, xi, xi) - np.eye(rule.dim)).max())
    return ExactnessReport(
        weight_sum_residual=wsum,
        mean_residual=mean,
        covariance_residual=cov,
        negative_weight_count=int(np.sum(w < 0.0)),
        min_weight=float(w.min()),
        tol=tol,
        passed=bool(wsum <= tol and mean <= tol and cov <= tol),
    )
