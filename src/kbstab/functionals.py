"""The Gaussian expectation rule that defines each filter of the generalized family.

Every filter in this library is defined by one parametrized linear
functional, a :class:`Functional`. It gives both the drift estimate (the
mean term) and the covariance propagation (the Riccati term), in
continuous and in discrete time; which time model runs is the model's
choice, not the functional's. Two kinds are provided:

* ``ekf``: point evaluation ``g(x)`` and Jacobian-based propagation.
* ``sigma``: Gaussian expectations over a sigma-point rule at ``x + L xi``
  for any root ``L L^T = P``: the Cholesky factor, or the clamp's
  eigen-root where it fails. For ``X ~ N(m, P)`` Stein's identity gives
  ``E[J_g(X)] P = E[g(X) (X - m)^T]``, so the covariance term is computed
  from field values alone, at the same points as the mean.

The Gaussian assumed-density filter is the ``sigma`` kind on the fixed
high-order Gauss-Hermite rule of :func:`reference_rule`: exact Gaussian
integrals are rarely available in closed form, and by Stein's identity its
Jacobian average is the integral the sigma-point path already computes.

All fields must be vectorized: ``g`` maps ``(..., d)`` to ``(..., d)`` and
``jac`` maps ``(..., d)`` to ``(..., d, d)``.

The single-state functionals take ``P`` as ``(d, d)``, or a batch-first
stack ``(B, d, d)``, and return batch-first. The ``*_batch`` functionals
are the filter loop's: they take states ``(B, d)`` but covariances and
roots batch-last, ``(d, d, B)``, as the loop stores them, and return
their Riccati terms batch-last too.

The sigma-point layer walks a batch in fixed path blocks of at most
``BLOCK_COORDS`` point coordinates, so its memory is bounded whatever the
batch and rule, and a block's arrays stay cache-sized. In each block the
points are one GEMM over the roots (see :func:`_sigma_points`). The
reductions over the points stay per-member stacked products: each path's
result then depends on its own values alone, never on its block or its
batch, so every block size gives the same bits. A 2-D GEMM contracting over the points would
give rows that depend on the batch size, and so would an einsum over them,
which sums a batch of one in another order. Products of two ``d x d``
stacks, ``J P`` and the Stein term's ``L^T``, run batch-last
(:func:`kbstab.quadrature._matmul_last`).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import check_integer, is_finite_real
from .models import philox
from .quadrature import (
    CubatureRule,
    _batch_first,
    _batch_last,
    _check_psd,
    _matmul_last,
    _psd_root,
    check_degree_two_exactness,
    gauss_hermite_rule,
)

FUNCTIONAL_KINDS = ("ekf", "sigma")

# Most point coordinates (paths x points x d) a sigma-point evaluation holds
# at once; its points, field values and products stay cache-sized.
BLOCK_COORDS = 2**17


def reference_rule(dim):
    """High-order Gauss-Hermite rule of the assumed-density (``adf``) filter."""
    if dim <= 3:
        order = 10
    elif dim <= 5:
        order = 6
    else:
        order = 4
    return gauss_hermite_rule(dim, order)


@dataclass(frozen=True)
class Functional:
    """One filter's expectation rule: ``ekf`` takes no rule, ``sigma`` an admissible one.

    The same functional gives the mean and the Riccati term in either time
    model. An admissible rule is exact to degree two and has no negative
    weights.
    """

    kind: str
    rule: Optional[CubatureRule] = None

    def __post_init__(self):
        if self.kind not in FUNCTIONAL_KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "ekf" and self.rule is not None:
            raise ValueError("ekf functional takes no rule")
        if self.kind != "ekf" and self.rule is None:
            raise ValueError("sigma functional requires a rule")
        if self.rule is not None:
            if not check_degree_two_exactness(self.rule, tol=1e-8).passed:
                raise ValueError("rule fails the degree-two exactness check")
            if self.rule.has_negative_weights:
                raise ValueError("rules with negative weights are not admissible here")


def _as_batch(x, P):
    """``x`` as ``(B, d)`` and ``P`` checked and viewed batch-last, with whether the input was one state."""
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
        P = P[None, :, :]
    if P.shape != (x.shape[0], x.shape[1], x.shape[1]):
        raise ValueError("P must have shape (d, d) matching x")
    return x, _batch_last(_check_psd("P", P)), single


def _sigma_points(rule, x, L):
    """Transformed points ``x + xi L^T`` (B, n, d) for batch-last roots ``L`` (d, d, B), ``L L^T = P``.

    The products ``L xi_i`` of the whole block are one 2-D GEMM over the
    ``B d`` rows of the roots, contracting over ``d``; the rows are one
    small copy of the batch-last roots. The GEMM's ``(B, d, n)`` result is
    handed back as a transposed view, so the points keep that layout: the
    field's ``empty_like`` carries it into the values, and the reductions
    over the points read each member in it.
    """
    B, d = x.shape
    rows = np.ascontiguousarray(_batch_first(L)).reshape(B * d, d)
    prod = (rows @ rule.points.T).reshape(B, d, -1)
    return x[:, None, :] + np.swapaxes(prod, -1, -2)


def _field_at(g, pts):
    vals = np.asarray(g(pts), dtype=float)
    if vals.shape != pts.shape:
        raise ValueError("field returned an unexpected shape (fields must be vectorized)")
    return vals


def eval_mean_batch(F, g, x, P):
    """Batched mean functional over states ``x`` (B, d) with batch-last covariances ``P`` (d, d, B)."""
    if F.kind == "ekf":
        return np.asarray(g(x), dtype=float)
    return _eval_sigma(F.rule, g, x, P)[0]


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
    """Batched :func:`eval_riccati_cont` over batch-last ``P`` (d, d, B), returned batch-last.

    The ``ekf`` product ``J P`` is one einsum over the contiguous batch, on
    a batch-last copy of the Jacobians.
    """
    if F.kind == "ekf":
        if jac is None:
            raise ValueError("ekf riccati functional requires the Jacobian")
        J = np.ascontiguousarray(_batch_last(np.asarray(jac(x), dtype=float)))
        return _matmul_last(J, P)
    return eval_drift_batch(F, "cont", g, x, P)[1]


def eval_drift_batch(F, time, g, x, P, root=None):
    """Mean and Riccati term of a ``sigma`` functional in ``time`` from one set of sigma points.

    Equal to the separate batch functionals, at the cost of one root of
    the batch-last ``P`` (none if the caller passes its roots
    ``L L^T = P``, batch-last too, as ``root``) and one field evaluation
    per path block. No Jacobian is needed, for the ``adf`` reference rule
    either. The continuous (``"cont"``) term is the Stein form
    ``vals^T (w xi) L^T``, the rule's ``E[J_g(X)] P``; the discrete
    (``"disc"``) one is the symmetrized weighted covariance of the
    propagated points. Returns ``(mean, lam)``, ``lam`` batch-last.
    """
    if F.kind == "ekf":
        raise ValueError("the ekf functional has no sigma points; evaluate its mean and Riccati terms apart")
    if time not in ("cont", "disc"):
        raise ValueError(f"time must be 'cont' or 'disc', got {time!r}")
    return _eval_sigma(F.rule, g, x, P, root, time)


def _eval_sigma(rule, g, x, P, root=None, time=None):
    """Mean, and for ``time`` ``"cont"``/``"disc"`` the Riccati term, of ``rule`` over the batch.

    The batch is walked in blocks of at most ``BLOCK_COORDS`` point
    coordinates (``block n d``), at least one path each, whose results are
    written into the preallocated outputs. ``P``, ``root`` (by default
    the guard's root of ``P``) and ``lam`` are batch-last ``(d, d, B)``; the
    Stein term's final product with ``L^T`` runs batch-last. Returns
    ``(mean, lam)``, ``lam`` ``None`` without ``time``.
    """
    if x.ndim != 2:
        raise ValueError(f"x must be a (paths, dim) batch, got shape {x.shape}")
    B, d = x.shape
    if d != rule.dim:
        raise ValueError(f"x has size {d}, but the rule's points have dim {rule.dim}")
    if P.shape != (d, d, B):
        raise ValueError(f"P must be batch-last with shape {(d, d, B)} to match x, got {P.shape}")
    L = _psd_root(P)[1] if root is None else root
    if L.shape != P.shape:
        raise ValueError(f"root must have P's shape {P.shape}, got {L.shape}")
    w = rule.weights
    step = max(1, BLOCK_COORDS // (rule.size * d))
    mean = np.empty((B, d))
    lam = None if time is None else np.empty((d, d, B))
    for start in range(0, B, step):
        blk = slice(start, start + step)
        vals = _field_at(g, _sigma_points(rule, x[blk], L[..., blk]))
        mean[blk] = block_mean = w @ vals
        if time == "cont":
            stein = np.swapaxes(vals, -1, -2) @ (w[:, None] * rule.points)
            lam[..., blk] = _matmul_last(_batch_last(stein), L[..., blk].transpose(1, 0, 2))
        elif time == "disc":
            dev = vals - block_mean[:, None, :]
            cov = (np.swapaxes(dev, -1, -2) * w) @ dev
            lam[..., blk] = _batch_last(0.5 * (cov + np.swapaxes(cov, -1, -2)))
    return mean, lam


def eval_riccati_cont(F, g, x, P, jac=None):
    """Continuous-time Riccati functional.

    ``ekf`` returns ``J_g(x) P`` and ``sigma`` the Stein form
    ``sum_i w_i g(x + L xi_i) xi_i^T L^T`` for any root ``L L^T = P`` (the
    Cholesky factor, or the clamp's eigen-root), which by Stein's identity
    is the rule's estimate of ``E[J_g(X)] P`` for ``X ~ N(x, P)``: on the
    ``adf`` reference rule it replaces a Jacobian average over the same
    points. Both coincide with ``A P`` for affine ``g(z) = A z + b``.
    """
    x, P, single = _as_batch(x, P)
    out = _batch_first(eval_riccati_cont_batch(F, g, x, P, jac=jac))
    return out[0] if single else out


def eval_riccati_disc_batch(F, g, x, P, jac=None):
    """Batched :func:`eval_riccati_disc` over batch-last ``P`` (d, d, B), returned batch-last.

    The ``ekf`` products stay stacked matmuls, on one batch-first copy of ``P``.
    """
    if F.kind == "ekf":
        if jac is None:
            raise ValueError("ekf riccati functional requires the Jacobian")
        J = np.asarray(jac(x), dtype=float)
        JPJt = J @ np.ascontiguousarray(_batch_first(P)) @ np.swapaxes(J, -1, -2)
        return _batch_last(0.5 * (JPJt + np.swapaxes(JPJt, -1, -2)))
    return eval_drift_batch(F, "disc", g, x, P)[1]


def eval_riccati_disc(F, g, x, P, jac=None):
    """Discrete-time Riccati functional (propagated covariance, without noise).

    ``ekf`` returns ``J_g(x) P J_g(x)^T``; the quadrature variants return the
    weighted covariance of the propagated sigma points. The output is
    symmetrized, and positive semidefinite by construction up to rounding
    (a congruence of ``P``, or positive weights), so it is not clamped.
    """
    x, P, single = _as_batch(x, P)
    out = _batch_first(eval_riccati_disc_batch(F, g, x, P, jac=jac))
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
    gen = philox(seed, 0)
    lo, hi = box
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


@dataclass(frozen=True, eq=False)
class AssumptionInputs:
    """One drawn set of ``(x, x_alt, P)`` triples; the only input the assumption checks take.

    It unpacks as ``x, x_alt, P``; ``samples`` and ``dim`` are its shape.
    Draw it with :func:`assumption_inputs`.
    """

    x: np.ndarray
    x_alt: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        shapes = [getattr(a, "shape", None) for a in (self.x, self.x_alt, self.P)]
        n, d = shapes[0] if shapes[0] is not None and len(shapes[0]) == 2 else (0, 0)
        if min(n, d) == 0 or shapes[1:] != [(n, d), (n, d, d)]:
            raise ValueError("inputs must hold arrays x and x_alt of shape (samples, dim) and P of shape "
                             f"(samples, dim, dim), with samples and dim at least 1, got shapes {shapes}")

    @property
    def samples(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    def __iter__(self):
        return iter((self.x, self.x_alt, self.P))


def assumption_inputs(dim, samples=10000, seed=0, box=(-5.0, 5.0)):
    """Draw ``samples`` triples ``(x, x_alt, P)`` of size ``dim`` in ``box``, as :class:`AssumptionInputs`.

    The draw is a function of the arguments alone. Pass the set as
    ``inputs`` to every check that should see it. ``dim`` and ``samples``
    must be integers of at least 1, ``seed`` an integer, and ``box`` two
    finite numbers ``(low, high)`` with ``low < high``; anything else is a
    ``ValueError`` naming the argument.
    """
    samples = check_integer("samples", samples, low=1)
    seed = check_integer("seed", seed)
    try:
        lo, hi = box
    except (TypeError, ValueError):
        lo = hi = None
    if not (is_finite_real(lo) and is_finite_real(hi) and lo < hi):
        raise ValueError(f"box must be two finite numbers low < high, got {box!r}")
    dim = check_integer("dim", dim, low=1)
    return AssumptionInputs(*_sample_inputs(dim, samples, seed, (float(lo), float(hi))))


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


def _check_inputs(F, inputs):
    """The triples of ``inputs``, which must be an :class:`AssumptionInputs` of the rule's dimension."""
    if not isinstance(inputs, AssumptionInputs):
        raise ValueError(f"inputs must be drawn by assumption_inputs, got {type(inputs).__name__}")
    if F.rule is not None and F.rule.dim != inputs.dim:
        raise ValueError(f"inputs have dim {inputs.dim}, but the functional's rule has dim {F.rule.dim}")
    return tuple(inputs)


def check_assumption_continuous(F, g, m_g, n_g, inputs, *, c_g=None):
    """Sampled check of the continuous one-sided consistency inequality.

    Verifies ``<x - x~, g(x) - L_{x~,P}(g)> <= m_g ||x - x~||^2 + C tr(P)``
    on the triples ``(x, x~, P)`` of ``inputs``, a set drawn by
    :func:`assumption_inputs`, with ``C = 0`` for the point-evaluation
    functional and ``C = m_g - n_g`` for the quadrature-based ones
    (override via ``c_g``). Several checks may share one set. A set of
    another type, or of another size than the functional's rule, is a
    ``ValueError`` naming ``inputs``.
    """
    if not (is_finite_real(m_g) and is_finite_real(n_g) and n_g <= m_g):
        raise ValueError("need finite m_g >= n_g")
    if c_g is None:
        c_g = 0.0 if F.kind == "ekf" else float(m_g - n_g)
    x, x_alt, P = _check_inputs(F, inputs)
    gx = np.asarray(g(x), dtype=float)
    L = eval_mean_batch(F, g, x_alt, _batch_last(P))
    lhs = np.einsum("bi,bi->b", x - x_alt, gx - L)
    rhs = m_g * np.sum((x - x_alt) ** 2, axis=1) + c_g * np.einsum("bii->b", P)
    return _report(lhs, rhs, len(x), c_g)


def check_assumption_discrete(F, g, jf_norm, inputs, *, c_g=None):
    """Sampled check of the discrete squared-deviation inequality.

    Verifies ``||g(x) - L_{x~,P}(g)||^2 <= jf_norm^2 ||x - x~||^2 + C tr(P)``
    with ``C = 0`` for point evaluation and ``C = jf_norm`` otherwise. The
    default constant follows the stated discrete convention; pass ``c_g`` to
    test alternatives (for example ``jf_norm ** 2``). ``inputs`` is taken
    and checked as in :func:`check_assumption_continuous`.
    """
    if not is_finite_real(jf_norm) or jf_norm < 0:
        raise ValueError("jf_norm must be finite and nonnegative")
    if c_g is None:
        c_g = 0.0 if F.kind == "ekf" else float(jf_norm)
    x, x_alt, P = _check_inputs(F, inputs)
    gx = np.asarray(g(x), dtype=float)
    L = eval_mean_batch(F, g, x_alt, _batch_last(P))
    lhs = np.sum((gx - L) ** 2, axis=1)
    rhs = jf_norm**2 * np.sum((x - x_alt) ** 2, axis=1) + c_g * np.einsum("bii->b", P)
    return _report(lhs, rhs, len(x), c_g)
