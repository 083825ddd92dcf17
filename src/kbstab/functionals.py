"""Mean and covariance-propagation functionals of the generalized filter family.

Every filter in this library is defined by a pair of parametrized linear
functionals: a mean functional that produces the drift estimate and a
Riccati functional that produces the covariance propagation term. Two
families are provided:

* ``ekf``: point evaluation ``g(x)`` and Jacobian-based propagation.
* ``sigma``: Gaussian expectations over a sigma-point rule at ``x + L xi``
  for any root ``L L^T = P``: the Cholesky factor, or the clamp's
  eigen-root where it fails. For ``X ~ N(m, P)`` Stein's identity gives
  ``E[J_g(X)] P = E[g(X) (X - m)^T]``, so the covariance term is computed
  from field values alone, at the same points as the mean.

The Gaussian assumed-density filter is the ``sigma`` family on the fixed
high-order Gauss-Hermite rule of :func:`reference_rule`: exact Gaussian
integrals are rarely available in closed form, and by Stein's identity its
Jacobian average is the integral the sigma-point path already computes.

All fields must be vectorized: ``g`` maps ``(..., d)`` to ``(..., d)`` and
``jac`` maps ``(..., d)`` to ``(..., d, d)``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IndefiniteMatrixError
from .quadrature import CubatureRule, _psd_root, check_degree_two_exactness, gauss_hermite_rule

MEAN_KINDS = ("ekf", "sigma")
TIME_KINDS = ("cont", "disc")


def reference_rule(dim):
    """High-order Gauss-Hermite rule of the assumed-density (``adf``) filter."""
    if dim <= 3:
        order = 10
    elif dim <= 5:
        order = 6
    else:
        order = 4
    return gauss_hermite_rule(dim, order)


def _check_functional(role, kind, rule):
    """An ``ekf`` functional takes no rule; a ``sigma`` one needs an admissible rule."""
    if kind not in MEAN_KINDS:
        raise ValueError(f"unknown {role} functional kind {kind!r}")
    if kind == "ekf" and rule is not None:
        raise ValueError("ekf functional takes no rule")
    if kind != "ekf" and rule is None:
        raise ValueError("sigma functional requires a rule")
    if rule is not None:
        if not check_degree_two_exactness(rule, tol=1e-8).passed:
            raise ValueError("rule fails the degree-two exactness check")
        if rule.has_negative_weights:
            raise ValueError("rules with negative weights are not admissible here")


@dataclass(frozen=True)
class MeanFunctional:
    """Drift-estimate functional; ``kind`` is ``ekf`` or ``sigma``."""

    kind: str
    rule: Optional[CubatureRule] = None

    def __post_init__(self):
        _check_functional("mean", self.kind, self.rule)


@dataclass(frozen=True)
class RiccatiFunctional:
    """Covariance-propagation functional with a continuous or discrete form."""

    kind: str
    time: str
    rule: Optional[CubatureRule] = None

    def __post_init__(self):
        _check_functional("riccati", self.kind, self.rule)
        if self.time not in TIME_KINDS:
            raise ValueError("time must be 'cont' or 'disc'")


def mean_functional(kind, rule=None):
    """Build a :class:`MeanFunctional`; ``sigma`` needs a rule, ``ekf`` takes none."""
    return MeanFunctional(kind=kind, rule=rule)


def riccati_functional(kind, time, rule=None):
    """Build a :class:`RiccatiFunctional` analogous to :func:`mean_functional`."""
    return RiccatiFunctional(kind=kind, time=time, rule=rule)


def _as_batch(x, P):
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
        P = P[None, :, :]
    if P.shape != (x.shape[0], x.shape[1], x.shape[1]):
        raise ValueError("P must have shape (d, d) matching x")
    scale = max(1.0, float(np.abs(P).max()))
    if float(np.linalg.eigvalsh(0.5 * (P + np.swapaxes(P, -1, -2)))[..., 0].min()) < -1e-10 * scale:
        raise IndefiniteMatrixError("covariance must be positive semidefinite")
    return x, P, single


def _sigma_points(rule, x, L):
    """Transformed points ``x + xi L^T`` (B, n, d) for roots ``L L^T = P``."""
    return x[:, None, :] + rule.points @ np.swapaxes(L, -1, -2)


def _field_at(g, pts):
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError("field returned an unexpected shape (fields must be vectorized)")
    return vals


def eval_mean_batch(F, g, x, P):
    """Batched mean functional over states ``x`` (B, d) with covariances ``P`` (B, d, d)."""
    if F.kind == "ekf":
        return np.asarray(g(x), dtype=float)
    return F.rule.weights @ _field_at(g, _sigma_points(F.rule, x, _psd_root(P)[1]))


def eval_mean(F, g, x, P):
    """Evaluate the mean functional at a single state / covariance pair.

    Point evaluation ``g(x)`` for ``ekf``; a weighted sigma-point sum
    ``sum_i w_i g(x + L xi_i)`` otherwise, for any root ``L L^T = P`` (the
    Cholesky factor, or the clamp's eigen-root). Exactly reproduces ``g(x)``
    for affine fields regardless of ``P``.
    """
    x, P, single = _as_batch(x, P)
    out = eval_mean_batch(F, g, x, P)
    return out[0] if single else out


def eval_riccati_cont_batch(F, g, x, P, jac=None):
    if F.kind == "ekf":
        if jac is None:
            raise ValueError("ekf riccati functional requires the Jacobian")
        return np.asarray(jac(x), dtype=float) @ P
    return _rule_terms(F, g, x, _psd_root(P)[1])[1]


def _rule_terms(F, g, x, L):
    """Mean and ``F``'s Riccati term from one root ``L L^T = P`` and one field evaluation.

    The continuous term is the Stein form ``vals^T (w xi) L^T``, the rule's
    ``E[J_g(X)] P``; the discrete one is the symmetrized weighted
    covariance of the propagated points.
    """
    rule = F.rule
    vals = _field_at(g, _sigma_points(rule, x, L))
    mean = rule.weights @ vals
    if F.time == "cont":
        return mean, np.swapaxes(vals, -1, -2) @ (rule.weights[:, None] * rule.points) @ np.swapaxes(L, -1, -2)
    dev = vals - mean[:, None, :]
    cov = (np.swapaxes(dev, -1, -2) * rule.weights) @ dev
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def eval_drift_batch(mean_fn, riccati_fn, g, x, P, root=None):
    """Mean and Riccati functionals (of ``riccati_fn``'s time kind) from one set of sigma points.

    Equal to the separate batch functionals, at the cost of one root of
    ``P`` (none if the caller passes its roots ``L L^T = P`` as ``root``)
    and one field evaluation; both functionals must share one rule. No
    Jacobian is needed, for the ``adf`` reference rule either. Returns
    ``(mean, lam)``.
    """
    if not shares_sigma_points(mean_fn, riccati_fn):
        raise ValueError("mean and riccati functionals do not share a sigma-point rule")
    return _rule_terms(riccati_fn, g, x, _psd_root(P)[1] if root is None else root)


def shares_sigma_points(mean_fn, riccati_fn):
    """Whether both functionals evaluate at the same rule's sigma points."""
    a, b = mean_fn.rule, riccati_fn.rule
    if a is None or b is None:
        return False
    return a is b or (np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights))


def eval_riccati_cont(F, g, x, P, jac=None):
    """Continuous-time Riccati functional.

    ``ekf`` returns ``J_g(x) P`` and ``sigma`` the Stein form
    ``sum_i w_i g(x + L xi_i) xi_i^T L^T`` for any root ``L L^T = P`` (the
    Cholesky factor, or the clamp's eigen-root), which by Stein's identity
    is the rule's estimate of ``E[J_g(X)] P`` for ``X ~ N(x, P)``: on the
    ``adf`` reference rule it replaces a Jacobian average over the same
    points. Both coincide with ``A P`` for affine ``g(z) = A z + b``.
    """
    if F.time != "cont":
        raise ValueError("functional is not a continuous-time variant")
    x, P, single = _as_batch(x, P)
    out = eval_riccati_cont_batch(F, g, x, P, jac=jac)
    return out[0] if single else out


def eval_riccati_disc_batch(F, g, x, P, jac=None):
    if F.kind == "ekf":
        if jac is None:
            raise ValueError("ekf riccati functional requires the Jacobian")
        J = np.asarray(jac(x), dtype=float)
        JPJt = J @ P @ np.swapaxes(J, -1, -2)
        return 0.5 * (JPJt + np.swapaxes(JPJt, -1, -2))
    return _rule_terms(F, g, x, _psd_root(P)[1])[1]


def eval_riccati_disc(F, g, x, P, jac=None):
    """Discrete-time Riccati functional (propagated covariance, without noise).

    ``ekf`` returns ``J_g(x) P J_g(x)^T``; the quadrature variants return the
    weighted covariance of the propagated sigma points. The output is
    symmetrized, and positive semidefinite by construction up to rounding
    (a congruence of ``P``, or positive weights), so it is not clamped.
    """
    if F.time != "disc":
        raise ValueError("functional is not a discrete-time variant")
    x, P, single = _as_batch(x, P)
    out = eval_riccati_disc_batch(F, g, x, P, jac=jac)
    return out[0] if single else out


@dataclass(frozen=True)
class AssumptionCheckReport:
    """Outcome of a sampled one-sided consistency check."""

    worst_violation: float
    sample_count: int
    c_g_used: float
    passed: bool
    worst_index: int = -1

    def __bool__(self):
        return self.passed


def _sample_inputs(dim, samples, seed, box):
    """Deterministic (x, x_alt, P) triples spanning small and large scales."""
    gen = np.random.Generator(np.random.Philox(key=[seed % 2**64, 0]))
    lo, hi = float(box[0]), float(box[1])
    width = hi - lo
    x_alt = gen.uniform(lo, hi, size=(samples, dim))
    far = gen.uniform(lo, hi, size=(samples, dim))
    near = x_alt + 0.1 * width * gen.standard_normal((samples, dim))
    use_near = gen.random(samples) < 0.5
    x = np.where(use_near[:, None], near, far)
    G = gen.standard_normal((samples, dim, dim))
    P = G @ np.swapaxes(G, 1, 2)
    target = np.exp(gen.uniform(np.log(1e-3), np.log(10.0), size=samples))
    tr = np.einsum("bii->b", P)
    P *= (target / np.maximum(tr, 1e-300))[:, None, None]
    return x, x_alt, P


def _report(lhs, rhs, samples, c_g):
    slack = 1e-8 * np.maximum(1.0, np.abs(rhs))
    violation = lhs - rhs
    worst = int(np.argmax(violation))
    return AssumptionCheckReport(
        worst_violation=float(violation[worst]),
        sample_count=samples,
        c_g_used=float(c_g),
        passed=bool(np.all(violation <= slack)),
        worst_index=worst,
    )


def _check_dim(F, dim):
    if dim is None:
        if F.rule is None:
            raise ValueError("pass dim explicitly for the point-evaluation functional")
        return F.rule.dim
    if F.rule is not None and F.rule.dim != dim:
        raise ValueError("dim disagrees with the functional's rule")
    return int(dim)


def check_assumption_continuous(F, g, m_g, n_g, samples=10000, seed=0, box=(-5.0, 5.0), c_g=None, dim=None):
    """Sampled check of the continuous one-sided consistency inequality.

    Verifies ``<x - x~, g(x) - L_{x~,P}(g)> <= m_g ||x - x~||^2 + C tr(P)``
    on random triples, with ``C = 0`` for the point-evaluation functional and
    ``C = m_g - n_g`` for the quadrature-based ones (override via ``c_g``).
    """
    if not (np.isfinite(m_g) and np.isfinite(n_g) and n_g <= m_g):
        raise ValueError("need finite m_g >= n_g")
    if c_g is None:
        c_g = 0.0 if F.kind == "ekf" else float(m_g - n_g)
    dim = _check_dim(F, dim)
    x, x_alt, P = _sample_inputs(dim, samples, seed, box)
    gx = np.asarray(g(x), dtype=float)
    L = eval_mean_batch(F, g, x_alt, P)
    lhs = np.einsum("bi,bi->b", x - x_alt, gx - L)
    rhs = m_g * np.sum((x - x_alt) ** 2, axis=1) + c_g * np.einsum("bii->b", P)
    return _report(lhs, rhs, samples, c_g)


def check_assumption_discrete(F, g, jf_norm, samples=10000, seed=0, box=(-5.0, 5.0), c_g=None, dim=None):
    """Sampled check of the discrete squared-deviation inequality.

    Verifies ``||g(x) - L_{x~,P}(g)||^2 <= jf_norm^2 ||x - x~||^2 + C tr(P)``
    with ``C = 0`` for point evaluation and ``C = jf_norm`` otherwise. The
    default constant follows the stated discrete convention; pass ``c_g`` to
    test alternatives (for example ``jf_norm ** 2``).
    """
    if not np.isfinite(jf_norm) or jf_norm < 0:
        raise ValueError("jf_norm must be finite and nonnegative")
    if c_g is None:
        c_g = 0.0 if F.kind == "ekf" else float(jf_norm)
    dim = _check_dim(F, dim)
    x, x_alt, P = _sample_inputs(dim, samples, seed, box)
    gx = np.asarray(g(x), dtype=float)
    L = eval_mean_batch(F, g, x_alt, P)
    lhs = np.sum((gx - L) ** 2, axis=1)
    rhs = jf_norm**2 * np.sum((x - x_alt) ** 2, axis=1) + c_g * np.einsum("bii->b", P)
    return _report(lhs, rhs, samples, c_g)
