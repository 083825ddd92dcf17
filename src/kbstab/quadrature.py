"""Unit sigma-point rules, Gauss-Hermite tensor rules, the covariance check, and the PSD root and clamp.

A cubature rule here is a set of unit sigma-points and weights approximating
expectations against a standard Gaussian. The rules constructed by this
module integrate every polynomial of total degree at most two exactly, the
property the filter stability theory relies on, for ``N(x, P)`` at the
points ``x + L xi`` with any root ``L L^T = P`` (:func:`_psd_root`, the filter
step's guard, which repairs its state). :func:`_check_psd` judges, and rejects,
every covariance argument the library takes.

The filter loop stores its covariance stacks batch-last, ``(d, d, B)``: the
guard takes and returns them so, and the helpers beside it turn a stack's
view between the two layouts and multiply two batch-last stacks.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .checks import check_finite, check_integer, check_number, check_shape, check_square, read_only
from .errors import IndefiniteMatrixError

MAX_RULE_POINTS = 10**6


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """Finite unit sigma-points ``points`` (n, dim) and weights ``weights`` (n,), kept as read-only copies; ``dim`` is derived."""

    points: np.ndarray
    weights: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        weights = read_only(check_finite("weights", self.weights).ravel())
        points = read_only(check_shape("points", check_finite("points", self.points), (weights.size, None)))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim", points.shape[1])

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
    dim = check_integer("dim", dim, low=1)
    kappa = default_unscented_kappa(dim) if kappa is None else check_number("kappa", kappa, low=0)
    scale = np.sqrt(dim + kappa)
    eye = np.eye(dim)
    points = np.vstack([np.zeros((1, dim)), scale * eye, -scale * eye])
    weights = np.concatenate([[kappa / (dim + kappa)], np.full(2 * dim, 0.5 / (dim + kappa))])
    return CubatureRule(points=points, weights=weights)


def gauss_hermite_rule(dim, order):
    """Tensor product of probabilists' Gauss-Hermite rules.

    ``order`` nodes per axis, hence ``order ** dim`` points with positive
    weights; exact for polynomials up to total degree ``2 order - 1``.
    """
    dim = check_integer("dim", dim, low=1)
    order = check_integer("order", order, low=2)
    if order**dim > MAX_RULE_POINTS:
        raise ValueError(f"rule would have {order**dim} points (limit {MAX_RULE_POINTS})")
    nodes, weights = hermegauss(order)
    weights = weights / np.sqrt(2.0 * np.pi)
    # the index grid in itertools.product's order, C-ordered like the array that built it
    idx = np.indices((order,) * dim).reshape(dim, -1).T.copy()
    points = nodes[idx]
    w = np.prod(weights[idx], axis=1)
    return CubatureRule(points=points, weights=w)


def _clamp_psd(M):
    """Symmetrize stacked matrices and set their negative eigenvalues to zero; also return roots.

    The roots ``V diag(sqrt(max(lam, 0)))`` come from the same eigendecomposition.
    """
    sym = 0.5 * (M + np.swapaxes(M, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2)), vecs * np.sqrt(vals)[..., None, :]


def _batch_last(A):
    """The ``(d, e, B)`` view of a batch-first stack ``(B, d, e)``."""
    return A.transpose(1, 2, 0)


def _batch_first(A):
    """The ``(B, d, e)`` view of a batch-last stack ``(d, e, B)``."""
    return A.transpose(2, 0, 1)


def _matmul_last(A, C, out=None):
    """The products ``A_b C_b`` of two batch-last stacks ``(d, k, B)`` and ``(k, e, B)``, batch-last.

    Both operands are made contiguous first. The einsum then runs its inner
    loop over the batch and sums over ``k`` in order, so a member's product
    has the same bits whatever batch it is in. A transposed operand would
    break that: ``A_b C_b^T`` written as ``ikb,jkb`` sums a batch of one in
    another order. ``out``, if given, is a ``(d, e, B)`` array or view whose
    batch axis is its innermost, such as a block of a larger batch-last
    stack; the products are written into it.
    """
    return np.einsum("ikb,kjb->ijb", np.ascontiguousarray(A), np.ascontiguousarray(C), out=out)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _cholesky(sym):
    """Lower Cholesky factors of a batch-last symmetric stack ``(d, d, B)`` and the mask of members that fail.

    One column recurrence serves every ``d``: LAPACK's unblocked ``potf2``
    as OpenBLAS runs it, each step a few vector operations over the
    contiguous batch. Column ``j`` takes ``s[j:, j] - sum_k l[j:, k] l[j, k]``
    (``k < j``, summed in order), its pivot's square root as ``l[j, j]``,
    and the entries below scaled by the pivot's reciprocal,
    ``l[i, j] = c[i] * (1 / l[j, j])`` (``np.reciprocal``, which rounds as
    the division does). Only the lower triangle is read. At
    ``d <= 2`` no inner product has more than one term, so the factors are
    ``np.linalg.cholesky``'s bit for bit; from ``d = 3`` on, OpenBLAS fuses
    the multiply-adds of its kernels and the two differ by rounding. A
    member fails where a pivot is ``<= 0``, where ``potf2`` stops (a NaN
    pivot does not fail there either, and every later pivot is NaN): the
    test is made once, on the running ``fmin`` of the pivots, which skips
    NaNs. An inner product that overflows gives a pivot of ``-inf``, which
    fails as in LAPACK, with no warning. Failing members' factors are
    undefined. Each member's factor depends on its own matrix alone.
    """
    d, _, B = sym.shape
    L = np.zeros((d, d, B))
    for j in range(d):
        col = sym[j:, j]
        if j:
            acc = L[j:, 0] * L[j, 0]
            for k in range(1, j):
                acc += L[j:, k] * L[j, k]
            col = np.subtract(col, acc, out=acc)
        pivot, l_jj = col[0], L[j, j]
        low = np.fmin(low, pivot) if j else pivot
        np.sqrt(pivot, out=l_jj)
        if j + 1 < d:
            np.multiply(col[1:], np.reciprocal(l_jj), out=L[j + 1:, j])
    return L, low <= 0.0


def _psd_root(P):
    """Symmetrize a batch-last stack ``(d, d, B)`` and return it with a root ``L L^T = P`` of each member.

    Both outputs are new C-contiguous ``(d, d, B)`` arrays; ``P`` may be a
    strided view, such as :func:`_batch_last` of a batch-first stack, and
    is read once, straight into the symmetrized output. ``L`` is
    the Cholesky factor of :func:`_cholesky`. Matrices whose factorization
    fails are eigen-clamped by :func:`_clamp_psd`, which gives their root.
    Whether a member is clamped depends on its own matrix alone, never on
    its batch.
    """
    sym = np.add(P, P.transpose(1, 0, 2), out=np.empty(P.shape))
    sym *= 0.5
    L, failing = _cholesky(sym)
    if failing.any():
        clamped, root = _clamp_psd(_batch_first(sym[..., failing]))
        sym[..., failing] = _batch_last(clamped)
        L[..., failing] = _batch_last(root)
    return sym, L


def _check_psd(name, M, definite=False):
    """The symmetrized ``M``, a square matrix or a stack, each finite, symmetric and PSD, naming ``name``.

    The library's one covariance check, on top of :func:`~kbstab.checks.check_square`. Per
    matrix, with ``s = max(1, max |M_ij|)``, asymmetry up to ``1e-10 s`` and eigenvalues down to
    ``-1e-10 s`` (above zero with ``definite``) are allowed.
    """
    M = check_square(name, M)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if np.any(np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale):
        raise ValueError(f"{name} must be symmetric")
    sym = 0.5 * (M + np.swapaxes(M, -1, -2))
    low = np.linalg.eigvalsh(sym)[..., 0]
    if np.any(low <= 0.0 if definite else low < -1e-10 * scale):
        kind = "definite" if definite else "semidefinite"
        raise IndefiniteMatrixError(f"{name} must be positive {kind}, has eigenvalue {np.min(low):.3e}")
    return sym


def matrix_sqrt(P):
    """Symmetric positive-semidefinite square root via eigendecomposition.

    ``P`` must be one matrix that passes :func:`_check_psd`; its eigenvalues
    in ``[-1e-10 s, 0)`` are rounding noise and clamped to zero.
    """
    P = check_shape("P", _check_psd("P", P), (None, None))
    vals, vecs = np.linalg.eigh(P)
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
    reported but do not fail the moment check on their own. ``tol`` is a
    finite number at least 0.
    """
    if not isinstance(rule, CubatureRule):
        raise ValueError(f"rule must be a CubatureRule, got {type(rule).__name__}")
    tol = check_number("tol", tol, low=0)
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
