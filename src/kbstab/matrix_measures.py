"""Logarithmic matrix norms and sampled log-Lipschitz constants of vector fields.

The logarithmic norm ``mu(A) = 0.5 * lambda_max(A + A^T)`` measures the
one-sided growth rate of ``x' = A x``; its counterpart
``nu(A) = 0.5 * lambda_min(A + A^T) = -mu(-A)`` measures the contraction
rate. For a differentiable vector field the extremes of these quantities
over the Jacobian are its one-sided Lipschitz constants ``M(f)`` and
``N(f)``. The stability certificates read them only from the model's
attached ``known_M_f`` and ``known_N_f``; :func:`log_lipschitz_estimate`
samples them over a box, which can only under-approximate ``sup mu``, so
it serves to check attached values, not to certify.
"""

from dataclasses import dataclass

import numpy as np

from ._search import pattern_search
from .errors import KbstabError


def _validated_square(A):
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def log_norm_range(A):
    """Lower and upper logarithmic norms ``(nu(A), mu(A))`` from one spectrum of ``A + A^T``.

    Accepts stacked matrices with shape ``(..., d, d)`` and returns arrays
    with matching leading dimensions (floats for one matrix).
    """
    A = _validated_square(A)
    vals = np.linalg.eigvalsh(A + np.swapaxes(A, -1, -2))
    nu, mu = 0.5 * vals[..., 0], 0.5 * vals[..., -1]
    return (float(nu), float(mu)) if mu.ndim == 0 else (nu, mu)


def log_norm_mu(A):
    """Logarithmic norm ``0.5 * lambda_max(A + A^T)``; the largest eigenvalue when ``A`` is symmetric."""
    return log_norm_range(A)[1]


def log_norm_nu(A):
    """Lower logarithmic norm ``0.5 * lambda_min(A + A^T) = -mu(-A)``."""
    return log_norm_range(A)[0]


def spectral_norm(A):
    """Euclidean operator norm (largest singular value)."""
    A = _validated_square(A)
    out = np.linalg.norm(A, ord=2) if A.ndim == 2 else np.linalg.svd(A, compute_uv=False)[..., 0]
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LogLipschitzEstimate:
    """Sampled estimates of the log-Lipschitz constants of a vector field.

    ``m_hat`` under-approximates the true supremum of ``mu`` over the
    Jacobian and ``n_hat`` over-approximates the true infimum of ``nu``,
    because both are inner (sampled) approximations: refining the sample can
    only raise ``m_hat`` and lower ``n_hat``. A certificate built on them,
    by attaching them to a model, is not proved.
    """

    m_hat: float
    n_hat: float
    sample_count: int
    domain_box: np.ndarray
    argmax: np.ndarray
    argmin: np.ndarray

    def __post_init__(self):
        if self.n_hat > self.m_hat + 1e-12:
            raise ValueError("n_hat must not exceed m_hat")


def _box_array(box):
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("domain box must have shape (d, 2)")
    if not np.all(np.isfinite(box)) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("domain box must be non-empty with finite bounds")
    return box


def _sobol_points(dim, budget):
    from scipy.stats import qmc  # here, not at module level: it is most of `import kbstab`

    # Sobol' sequences balance best at power-of-two sizes.
    m = max(1, int(np.ceil(np.log2(max(budget, 2)))))
    sampler = qmc.Sobol(d=dim, scramble=False)
    return sampler.random_base2(m)


def log_lipschitz_estimate(jac, box, budget=4096):
    """Estimate sup/inf of the Jacobian logarithmic norms over a box.

    Parameters
    ----------
    jac : callable
        Jacobian of the field; must accept points of shape ``(..., d)`` and
        return matrices of shape ``(..., d, d)``.
    box : array_like, shape (d, 2)
        Per-coordinate interval bounds of the sampling domain.
    budget : int
        Number of low-discrepancy samples (rounded up to a power of two).
        Each sampled extreme is then refined by up to 50 rounds of
        coordinate search.

    Returns
    -------
    LogLipschitzEstimate
    """
    box = _box_array(box)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    dim = box.shape[0]
    lo, hi = box[:, 0], box[:, 1]

    unit = _sobol_points(dim, budget)
    pts = lo + unit * (hi - lo)
    pts = np.vstack([pts, 0.5 * (lo + hi)])

    J = np.asarray(jac(pts), dtype=float)
    if J.shape != (pts.shape[0], dim, dim):
        raise ValueError(f"jacobian returned shape {J.shape}, expected {(pts.shape[0], dim, dim)}")
    if not np.all(np.isfinite(J)):
        raise KbstabError("jacobian produced non-finite values on the box")

    nu, mu = log_norm_range(J)

    def mu_at(x):
        return log_norm_mu(jac(x[None, :])[0])

    def neg_nu_at(x):
        return -log_norm_nu(jac(x[None, :])[0])

    m_hat, arg_m = pattern_search(mu_at, pts[np.argmax(mu)], lo, hi)
    n_neg, arg_n = pattern_search(neg_nu_at, pts[np.argmin(nu)], lo, hi)

    return LogLipschitzEstimate(
        m_hat=max(m_hat, float(np.max(mu))),
        n_hat=min(-n_neg, float(np.min(nu))),
        sample_count=pts.shape[0],
        domain_box=box,
        argmax=arg_m,
        argmin=arg_n,
    )
