"""Stability certificates: time-uniform mean-square error bounds and
exponential concentration thresholds for the generalized filter family.

A continuous certificate packages constants ``(lambda, lambda_P, T, C_lambda,
u, rho, C_T)`` under which, for all ``t >= T``,

    E ||E_t||^2  <=  e_T_sq * exp(-2 lambda (t - T)) + u / (2 lambda),
    P[ ||E_t||^2 >= (C_T exp(-2 lambda (t-T)) + u/(2 lambda)) beta(delta) ]
        <= exp(-delta),

with ``u = tr(Q) + 2 C_lambda lambda_P + tr(S) lambda_P^2`` and
``beta(delta) = e (sqrt(2 delta) + delta)``. Both bounds and ``beta`` take
arrays of ``t`` and ``delta``, which broadcast; one bad entry is a
``ValueError`` naming its argument. Discrete certificates carry the
analogous constants ``(lambda_d, lambda_df, kappa, lambda_P_pred,
lambda_P_upd, C_f, eta, u_d)`` and initial error terms ``e0_sq = ||mu0 -
x0_hat||^2 + tr Sigma0`` and ``e0_root = ||mu0 - x0_hat|| + sqrt(||Sigma0||)``.
Every builder reads the model and its filter config; every bound only its certificate.
A discrete certificate derives all its constants, for ``S = s I`` and
``||J_f|| < 1`` (:func:`discrete_certificate`).

The drift constants ``M(f)``, ``N(f)`` and ``||J_f||`` come only from the
model's ``known_M_f``, ``known_N_f`` and ``known_jf_norm``; a builder that
needs one the model lacks raises a ``ValueError`` naming the field. So every
builder records ``analytic`` provenance; the field stays for certificates
built by hand.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_integer, is_finite_real
from .errors import CertificateError, NoCertificateError, NotContractiveError, NotFullyObservedError
from .filters import make_filter_config
from .models import VELOCITY_G_PRIME_MAX, VELOCITY_G_PRIME_MIN
from .quadrature import _check_psd

def _finite(name, value):
    """``value`` as an array; a ``ValueError`` naming ``name`` unless each entry is a finite real (no bool)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return arr


def _beta(delta, positive):
    """:func:`beta` of finite ``delta`` entries, each positive (``positive``) or at least 0."""
    delta = _finite("delta", delta)
    if np.any(delta <= 0) if positive else np.any(delta < 0):
        raise ValueError(f"delta must be {'positive' if positive else 'nonnegative'}")
    return math.e * (np.sqrt(2.0 * delta) + delta)


def beta(delta):
    """Concentration shape ``e (sqrt(2 delta) + delta)`` of a finite ``delta >= 0`` or an array of them."""
    return _beta(delta, positive=False)


# ---------------------------------------------------------------------------
# Certificate containers


class _Certificate:
    """The constant check and the export both certificate types share.

    A subclass names its ``_type`` and lists its constants in export order
    in ``_constants``: each must be a finite real number (no bool), and the
    dict gives them, then ``mse_asymptote``, ``provenance``, the ``_flags``
    and the sorted ``details``. The field ``lam`` is exported as ``lambda``.
    """

    _flags = ()

    def __post_init__(self):
        for name in self._constants:
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")

    def to_dict(self):
        out = {"type": self._type}
        for name in self._constants + ("mse_asymptote", "provenance") + self._flags:
            out["lambda" if name == "lam" else name] = getattr(self, name)
        out.update(sorted(self.details.items()))
        return out

    def format_text(self):
        return "\n".join(f"{k:<16} {v}" for k, v in self.to_dict().items())

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class ContinuousCertificate(_Certificate):
    """Constants of the continuous-time mean-square / concentration bounds.

    ``asymptotic`` marks certificates whose constants are limiting values
    (transient terms with unknown prefactors dropped); their bounds are only
    claimed from the settle time ``T`` on, and the decay/concentration
    prefactors ``e_T_sq`` and ``C_T`` are zeroed.
    """

    lam: float
    lambda_P: float
    T: float
    C_lambda: float
    u: float
    rho: float
    C_T: float
    e_T_sq: float
    provenance: str
    asymptotic: bool = False
    details: dict = field(default_factory=dict)

    _type = "continuous"
    _constants = ("lam", "lambda_P", "T", "C_lambda", "u", "rho", "C_T", "e_T_sq")
    _flags = ("asymptotic",)

    def __post_init__(self):
        super().__post_init__()
        if not (self.lam > 0 and self.lambda_P > 0 and self.T >= 0):
            raise ValueError("need lam > 0, lambda_P > 0, T >= 0")
        if self.C_lambda < 0 or self.u < 0 or self.C_T < 0 or self.e_T_sq < 0:
            raise ValueError("C_lambda, u, C_T and e_T_sq must be nonnegative")
        if self.asymptotic and (self.C_T or self.e_T_sq):
            raise ValueError("an asymptotic certificate has C_T = e_T_sq = 0")

    @property
    def mse_asymptote(self):
        return self.u / (2.0 * self.lam)


@dataclass(frozen=True)
class DiscreteCertificate(_Certificate):
    """Constants of the discrete-time mean-square / concentration bounds."""

    lambda_d: float
    lambda_df: float
    kappa: float
    lambda_P_pred: float
    lambda_P_upd: float
    C_f: float
    eta: float
    u_d: float
    e0_sq: float
    e0_root: float
    provenance: str
    details: dict = field(default_factory=dict)

    _type = "discrete"
    _constants = ("lambda_d", "lambda_df", "kappa", "lambda_P_pred", "lambda_P_upd", "C_f", "eta", "u_d",
                  "e0_sq", "e0_root")

    def __post_init__(self):
        super().__post_init__()
        for name in self._constants:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        if self.lambda_df >= 1.0:
            raise ValueError("lambda_df must lie in [0, 1)")

    @property
    def mse_asymptote(self):
        return (self.u_d + self.lambda_d**2 * self.C_f * self.lambda_P_upd) / (1.0 - self.lambda_df**2)


# ---------------------------------------------------------------------------
# Continuous-time certificates and bounds


def _drift_constant(model, attr):
    """The drift constant the model attaches as ``attr``, as a float; a ``ValueError`` naming ``attr`` if none."""
    value = getattr(model, attr, None)
    if value is None:
        raise ValueError(f"attach {attr} to the model")
    return float(value)


def _kind(model, config):
    """The kind a ``config`` of the model's size covers: ``"ekf"`` for a point-evaluation functional, else ``"quadrature"``."""
    config.check_dim(model.dim_x)
    return "ekf" if config.functional.kind == "ekf" else "quadrature"


def _consistency_tail(model, kind, lam, lambda_P):
    """``(C_lambda, u, rho)`` of a continuous certificate with rate ``lam`` for :func:`_kind` ``kind``.

    The consistency constant ``C_lambda`` is zero for the point-evaluation
    filter and ``max(0, -lam - N(f) + tr(S) lambda_P)`` for the
    quadrature-based ones, which alone need the model's ``known_N_f``;
    ``rho = M(f) + ||S|| lambda_P``.
    """
    tr_S = float(np.trace(model.S))
    if kind == "ekf":
        C_lambda = 0.0
    else:
        C_lambda = max(0.0, -lam - _drift_constant(model, "known_N_f") + tr_S * lambda_P)
    u = float(np.trace(model.Q)) + 2.0 * C_lambda * lambda_P + tr_S * lambda_P**2
    rho = _drift_constant(model, "known_M_f") + float(np.linalg.norm(model.S, 2)) * lambda_P
    return C_lambda, u, rho


def _initial_error(model, config):
    """``(gap, e0_sq)``: the start's mean error ``gap = mu0 - x0_hat`` and ``e0_sq = ||gap||^2 + tr Sigma0``."""
    gap = model.mu0 - config.x0_hat
    return gap, float(gap @ gap) + float(np.trace(model.Sigma0))


def contractive_certificate(model, config):
    """Certificate for contractive, fully observed models under the filter of ``config``.

    Requires the model's ``known_M_f`` ``M(f) <= -l < 0`` and
    ``S = H^T R^-1 H = s I``. Then the bounds hold from ``T = 0`` with rate
    ``lam = l`` and trace bound ``lambda_P = tr(P0) + tr(Q_tuned) / (2 l)``.
    The consistency constant is zero for the point-evaluation filter and
    ``-lam - N(f) + tr(S) lambda_P`` for the quadrature-based ones, which
    also need the model's ``known_N_f``; which one applies is read from
    ``config.functional``.
    """
    kind = _kind(model, config)
    M_f = _drift_constant(model, "known_M_f")
    if M_f >= 0:
        raise NotContractiveError(f"drift is not contractive: M(f) = {M_f:.6g} >= 0")
    s = model.s_scalar()
    if s is None or s <= 0:
        raise NotFullyObservedError("S = H^T R^-1 H is not a positive multiple of the identity")

    lam = -M_f
    tr_P0 = float(np.trace(config.P0))
    tr_Qt = float(np.trace(config.Q_tuned))
    lambda_P = tr_P0 + tr_Qt / (2.0 * lam)
    C_lambda, u, rho = _consistency_tail(model, kind, lam, lambda_P)
    gap, e_T_sq = _initial_error(model, config)
    # T = 0, so the pre-settle moment-growth factor is not needed.
    C_T = 4.0 * (float(gap @ gap) + float(np.linalg.norm(model.Sigma0, 2)) * (model.dim_x + 2))
    return ContinuousCertificate(
        lam=lam,
        lambda_P=lambda_P,
        T=0.0,
        C_lambda=C_lambda,
        u=u,
        rho=rho,
        C_T=C_T,
        e_T_sq=e_T_sq,
        provenance="analytic",
        asymptotic=False,
        details={"kind": kind, "s": s, "M_f": model.known_M_f, "N_f": model.known_N_f},
    )


def _decay(cert, X, t):
    """``X exp(-2 lam (t - T)) + u / (2 lam)`` at ``t``, a finite time ``>= cert.T`` or an array of them.

    It keeps the whole level ``u / (2 lam)`` at every time, not Gronwall's
    envelope ``gronwall_continuous(X, -2 lam, u, t - T)``, which is smaller
    by ``exp(-2 lam (t - T)) u / (2 lam)``. An asymptotic certificate has
    ``e_T_sq = C_T = 0`` and claims only the limiting level from ``T`` on:
    the envelope would bound its mean-square error at ``T`` by 0 (fig2's,
    for one). A tighter form for the certificates that hold from ``T = 0``
    waits for the exact error law of continuous linear models to judge it.
    """
    t = _finite("t", t)
    if np.any(t < cert.T):
        raise ValueError(f"t must be at least the settle time T = {cert.T}")
    return X * np.exp(-2.0 * cert.lam * (t - cert.T)) + cert.u / (2.0 * cert.lam)


def continuous_mse_bound(cert, t):
    """Mean-square error bound at ``t``, a finite time ``>= cert.T`` or an array of them."""
    return _decay(cert, cert.e_T_sq, t)


def continuous_concentration_threshold(cert, t, delta):
    """Squared-error threshold at ``t >= cert.T`` exceeded with probability ``<= exp(-delta)``, ``delta > 0``."""
    return _decay(cert, cert.C_T, t) * _beta(delta, positive=True)


def inflation_mineig_bound(model, config):
    """Limiting lower bound on the smallest covariance eigenvalue.

    For fully observed models, inflating the tuned noise floor pushes the
    smallest eigenvalue of the filter covariance up towards

        (q/d) / (sqrt(q s/d + N(f)^2) - N(f)) = (sqrt(q s/d + N(f)^2) + N(f)) / s,

    ``q = lambda_min(Q~)`` of ``config.Q_tuned``, ``s = lambda_max(S)``,
    ``N(f)`` the model's ``known_N_f``; the second form is used
    when ``N(f) > 0``, where the first cancels. If ``s = 0`` and
    ``N(f) >= 0`` the floor is unbounded and :class:`ValueError` is raised.
    This is the long-run limit; transient terms with model-dependent
    prefactors are dropped, so treat the value as asymptotic.
    """
    d = model.dim_x
    config.check_dim(d)
    n_f = _drift_constant(model, "known_N_f")
    q_min = float(np.linalg.eigvalsh(config.Q_tuned)[0])
    s_max = float(np.linalg.eigvalsh(model.S)[-1])
    if s_max <= 0 and n_f >= 0:
        raise ValueError("the eigenvalue floor is unbounded: S = 0 (no observation) and N(f) >= 0")
    root = math.sqrt(q_min * s_max / d + n_f**2)
    if n_f > 0:
        return (root + n_f) / s_max
    return (q_min / d) / (root - n_f)


def required_inflation(model, target_lambda):
    """Smallest isotropic tuned noise ``q I`` inducing the contraction target.

    With ``Q~ = q I`` and ``S = s I``, :func:`inflation_mineig_bound`
    simplifies to ``(sqrt(q s / d + N(f)^2) + N(f)) / s``, which increases
    with ``q``. It reaches ``t = (M(f) + target_lambda) / s`` exactly when
    ``q >= d t (s t - 2 N(f))``, so the least such ``q`` is
    ``d t max(0, s t - 2 N(f))``; returns the matrix ``q I``. When the drift
    is already contractive enough the requirement is vacuous and ``q = 0``.
    ``M(f)`` and ``N(f)`` are the model's ``known_M_f`` and ``known_N_f``.
    """
    m_f = _drift_constant(model, "known_M_f")
    s = model.s_scalar()
    if s is None or s <= 0:
        raise NotFullyObservedError("required_inflation needs S = s I with s > 0")
    d = model.dim_x
    target = (m_f + float(target_lambda)) / s
    if target <= 0:
        return np.zeros((d, d))
    n_f = _drift_constant(model, "known_N_f")
    return d * target * max(0.0, s * target - 2.0 * n_f) * np.eye(d)


def _velocity_box_sup_mu(a1, a2, s, p11_lo, c12, g_lo):
    """sup of mu(J - P S) over the admissible (P11, P12, g') box.

    The largest eigenvalue of the symmetrized matrix ``[[A, B], [B, C]]``
    with ``A = a1 - s P11``, ``B = (a2 - s P12)/2``, ``C = -g'`` is
    ``(A + C)/2 + sqrt(((A - C)/2)^2 + B^2)``: nondecreasing in ``A`` and in
    ``C``, and a function of ``B^2``. So the supremum takes ``P11 = p11_lo``,
    ``g' = g_lo`` and the end of ``P12 in [0, c12]`` farther from
    ``a2 / s``, whatever the upper ends of the other two intervals are.
    """
    a = a1 - s * p11_lo
    b = 0.5 * max(a2, s * c12 - a2)
    c = -g_lo
    return 0.5 * (a + c) + math.sqrt((0.5 * (a - c)) ** 2 + b * b)


# States at which the velocity certificate checks its drift's Jacobian: both
# coordinates over [-10, 10] in steps of 0.5, the origin included.
_VELOCITY_GRID = np.stack(np.meshgrid(*2 * [np.linspace(-10.0, 10.0, 41)]), axis=-1).reshape(-1, 2)


def integrated_velocity_certificate(model, config):
    """Certificate for the integrated-velocity model via element-wise bounds.

    The filter, the tuned noise ``diag(q1, q2)`` and ``P0`` come from
    ``config``. The model's own fields give the rest: ``h`` and ``r`` are
    ``H[0, 0]`` and ``R[0, 0]``, ``a1`` and ``a2`` the first row of the
    drift's Jacobian, which is constant, and ``S`` enters ``u`` and ``rho``.
    The slope bound is ``lg = inf g' = VELOCITY_G_PRIME_MIN``. So a model
    changed with ``dataclasses.replace`` gets the certificate of the model
    built with the same arguments. A model whose ``R`` is not 1x1, or whose
    ``H`` is not ``[[h, 0]]`` with ``h != 0``, measures something other
    than the position, and gets a ``ValueError`` naming that field. The
    drift must be the velocity drift: on the states of ``_VELOCITY_GRID``
    its Jacobian must be ``[[a1, a2], [0, -g']]`` with the first row equal
    to the one at the origin and ``g'`` in ``[VELOCITY_G_PRIME_MIN,
    VELOCITY_G_PRIME_MAX]``, else a :class:`CertificateError` names the
    hypothesis "velocity drift structure". A grid is a sample, not a proof,
    but it turns away a drift whose velocity does not relax, such as
    ``x2' = 5 x2``, which the first row alone would certify.

    Derivation: the hidden-component variance satisfies a linear comparison
    inequality giving the limit ``C22 = q2 / (2 lg)``. With ``s = h^2 / r``
    and ``sigma = sqrt(s q1 + a1^2)``, the measured-component variance is at
    least ``p11_lo = (a1 + sigma) / s``, so the cross covariance decays at
    rate at least ``lam12_hi = lg + sigma``. For a cross-term rate
    ``lambda_12`` strictly below that, in ``(0, lam12_hi)``, it is bounded
    by ``C12 = a2 C22 / lambda_12``, and ``P11`` by
    ``p11_up = (a1 + sqrt(s (q1 + 2 a2 C12) + a1^2)) / s``. The rate is
    minus the supremum of ``mu(J - P S)`` over that box, a corner value in
    closed form (:func:`_velocity_box_sup_mu`). It never exceeds
    ``inf g' = lg``, since ``-g'`` is on the diagonal of the symmetric part.

    Choice of ``lambda_12``: the supremum depends on it only through
    ``b = max(a2, s C12 - a2) / 2``, which falls as ``lambda_12`` grows
    until ``s C12 = 2 a2``, that is ``lambda_12 = s C22 / 2``, and stays at
    ``a2 / 2`` from there. So the rate is nondecreasing in ``lambda_12`` and
    flat from ``s C22 / 2`` on. A larger ``lambda_12`` asks more of the
    cross term, so the certificate takes the least one that does best:

    * if ``s C22 / 2 < lam12_hi``, ``lambda_12 = s C22 / 2`` and
      ``C12 = 2 a2 / s``, formed directly so that ``b = a2 / 2`` is not left
      to rounding. The supremum is then at ``P11 = p11_lo``, ``P12 = 0``,
      ``g' = lg``: the rate is
      ``(sigma + lg)/2 - sqrt(((sigma - lg)/2)^2 + a2^2/4)``.
    * otherwise the rate rises up to the open end, where its supremum is
      not attained, and ``lambda_12 = (200/201) lam12_hi``. The corner
      value's slope in ``b`` lies in ``[0, 1)``, so this gives up at most
      ``s a2 C22 / (400 lam12_hi)`` of the rate the open end approaches.

    All constants are limiting values: the certificate is flagged
    asymptotic, with settle time set by the rates ``2 lg`` and ``lambda_12``
    decaying to 1% of their initial size.
    """
    if model.name != "integrated_velocity":
        raise ValueError("this certificate is specific to the integrated-velocity model")
    if model.R.shape != (1, 1):
        raise ValueError(f"R must be 1x1 for this certificate, got shape {model.R.shape}")
    if model.H.shape != (1, 2) or model.H[0, 1] != 0 or model.H[0, 0] == 0:
        raise ValueError(f"H must be [[h, 0]] with h != 0 for this certificate, got {model.H.tolist()}")
    h, r = float(model.H[0, 0]), float(model.R[0, 0])
    a1, a2 = (float(v) for v in model.jac_f(np.zeros(2))[0])
    J = model.jac_f(_VELOCITY_GRID)
    slope = -J[:, 1, 1]
    first_row_ok = np.all(J[:, 0] == (a1, a2))
    second_row_ok = np.all(J[:, 1, 0] == 0) and np.all(
        (slope >= VELOCITY_G_PRIME_MIN) & (slope <= VELOCITY_G_PRIME_MAX))
    if not (first_row_ok and second_row_ok):
        raise CertificateError(
            "the drift's Jacobian is not [[a1, a2], [0, -g'(x2)]] with a constant first row and "
            f"g' in [{VELOCITY_G_PRIME_MIN:.4f}, {VELOCITY_G_PRIME_MAX:.4f}] on the check grid",
            hypothesis="velocity drift structure",
        )
    lg = VELOCITY_G_PRIME_MIN
    s = h * h / r
    kind = _kind(model, config)
    Qt, P0 = config.Q_tuned, config.P0
    q1_t, q2_t = float(Qt[0, 0]), float(Qt[1, 1])
    if np.abs(Qt - np.diag([q1_t, q2_t])).max() > 1e-12:
        raise ValueError("the tuned noise must be diagonal for this certificate")
    if P0[0, 1] < 0:
        raise ValueError("the initial cross covariance must be nonnegative")

    c22 = q2_t / (2.0 * lg)
    sigma = math.sqrt(s * q1_t + a1 * a1)
    p11_lo = (a1 + sigma) / s
    lam12_hi = lg + sigma
    if 0.5 * s * c22 < lam12_hi:
        lam12, c12 = 0.5 * s * c22, 2.0 * a2 / s
    else:
        lam12 = lam12_hi * 200.0 / 201.0
        c12 = a2 * c22 / lam12
    lam = -_velocity_box_sup_mu(a1, a2, s, p11_lo, c12, lg)
    if lam <= 0:
        raise NoCertificateError(
            "no positive contraction rate over the covariance box; "
            "consider inflating the measured-component noise",
            hypothesis="contraction rate",
        )
    p11_up = (a1 + math.sqrt(s * (q1_t + 2.0 * a2 * c12) + a1 * a1)) / s
    lambda_P = p11_up + c22

    C_lambda, u, rho = _consistency_tail(model, kind, lam, lambda_P)
    settle = math.log(100.0) / min(2.0 * lg, lam12)
    return ContinuousCertificate(
        lam=lam,
        lambda_P=lambda_P,
        T=settle,
        C_lambda=C_lambda,
        u=u,
        rho=rho,
        C_T=0.0,
        e_T_sq=0.0,
        provenance="analytic",
        asymptotic=True,
        details={
            "kind": kind,
            "lambda_12": lam12,
            "C22": c22,
            "C12": c12,
            "P11_interval": (p11_lo, p11_up),
            "s": s,
            "M_f": model.known_M_f,
            "N_f": model.known_N_f,
        },
    )


# ---------------------------------------------------------------------------
# Discrete-time certificates and bounds


def discrete_certificate(model, config):
    """Certificate for the discrete predict/update filter of ``config`` on ``model``.

    Hypotheses: ``S = H^T R^-1 H = s I`` with ``s >= 0`` (else
    :class:`NotFullyObservedError`), ``R`` positive definite, and the
    model's ``known_jf_norm`` ``||J_f|| < 1`` (else
    :class:`NoCertificateError`). ``config`` must have the model's size.
    Every constant is then derived, with ``d = dim_x`` and ``Q~``, ``P0``
    the config's:

    * ``I - K H = (I + s P_pred)^-1`` is symmetric with eigenvalues in
      ``(0, 1]``, so ``lambda_d = 1`` and ``lambda_df = ||J_f||``.
    * The update gives ``P_upd = (P_pred^-1 + s I)^-1 <= P_pred``, and
      ``P_upd <= I / s`` when ``s > 0``.
    * ``ekf`` predicts ``J P J^T + Q~``, with ``tr(J P J^T) <= ||J_f||^2 tr P``.
      A rule (positive weights, degree-two exact) predicts the weighted
      covariance of the propagated points plus ``Q~``; its trace is at most
      the weighted mean of ``||f(x_i) - f(x)||^2 <= ||J_f||^2 ||x_i - x||^2``,
      which is ``||J_f||^2 tr P``. So ``tr P_pred <= ||J_f||^2 tr P_upd + tr Q~``.
    * From ``P_upd = P0``, induction on both gives
      ``lambda_P_upd = max(tr P0, min(d / s, tr Q~ / (1 - ||J_f||^2)))``,
      where the ``min`` drops ``d / s`` when ``s = 0``, and
      ``lambda_P_pred = ||J_f||^2 lambda_P_upd + tr Q~``.

    ``kappa = lambda_P_pred ||H|| ||R^-1||`` bounds the gain. ``C_f`` is zero
    for the point-evaluation filter and ``||J_f||`` for the quadrature-based
    ones, read from ``config.functional``. ``e0_sq`` and ``e0_root`` bind
    the model's ``mu0`` and ``Sigma0`` and the config's ``x0_hat``.
    """
    kind = _kind(model, config)
    s = model.s_scalar()
    if s is None or s < 0:
        raise NotFullyObservedError("S = H^T R^-1 H is not a nonnegative multiple of the identity")
    jf_norm = _drift_constant(model, "known_jf_norm")
    if jf_norm >= 1.0:
        raise NoCertificateError(
            f"lambda_df = ||J_f|| lambda_d = {jf_norm:.6g} >= 1: error recursion is not a contraction",
            hypothesis="lambda_df < 1",
        )
    lambda_d, lambda_df = 1.0, jf_norm
    tr_Qt = float(np.trace(config.Q_tuned))
    cap = tr_Qt / (1.0 - jf_norm**2)
    if s > 0:
        cap = min(model.dim_x / s, cap)
    lambda_P_upd = max(float(np.trace(config.P0)), cap)
    lambda_P_pred = jf_norm**2 * lambda_P_upd + tr_Qt
    # s_scalar has checked R through HtRinv
    R_inv_norm = float(np.linalg.norm(np.linalg.inv(model.R), 2))
    kappa = lambda_P_pred * float(np.linalg.norm(model.H, 2)) * R_inv_norm
    c_f = 0.0 if kind == "ekf" else jf_norm
    eta = lambda_d * math.sqrt(c_f * lambda_P_upd)
    u_d = lambda_d**2 * float(np.trace(model.Q)) + kappa**2 * float(np.trace(model.R))
    gap, e0_sq = _initial_error(model, config)
    e0_root = float(np.linalg.norm(gap)) + math.sqrt(float(np.linalg.norm(model.Sigma0, 2)))
    return DiscreteCertificate(
        lambda_d=lambda_d,
        lambda_df=lambda_df,
        kappa=kappa,
        lambda_P_pred=lambda_P_pred,
        lambda_P_upd=lambda_P_upd,
        C_f=c_f,
        eta=eta,
        u_d=u_d,
        e0_sq=e0_sq,
        e0_root=e0_root,
        provenance="analytic",
        details={"kind": kind, "jf_norm": jf_norm},
    )


def discrete_mse_bound(cert, k):
    """Mean-square error bound after ``k`` discrete steps, an integer of at least 0."""
    k = check_integer("k", k, low=0)
    return cert.lambda_df ** (2 * k) * cert.e0_sq + cert.mse_asymptote


def discrete_concentration_threshold(cert, k, delta):
    """Squared-error threshold after ``k`` steps, exceeded with probability ``<= exp(-delta)``, ``delta > 0``."""
    k = check_integer("k", k, low=0)
    shape = _beta(delta, positive=True)
    tail = (math.sqrt(cert.u_d) + cert.eta) / (1.0 - cert.lambda_df)
    return 4.0 * shape * (cert.lambda_df**k * cert.e0_root + tail) ** 2


@dataclass(frozen=True)
class NaiveComparison:
    """Outcome of comparing the filter bound with raw-measurement estimation."""

    naive_mse: float
    filter_bound: float
    filter_wins: bool
    certificate: DiscreteCertificate


def naive_vs_filter(model):
    """Compare the ``ekf``'s asymptotic bound with using scaled measurements directly.

    Requires ``H = h I`` and ``R = r I``; then rescaled measurements are
    unbiased state estimates with mean-square error ``d_y r / h^2``. The
    filter's bound is the ``mse_asymptote`` of :func:`discrete_certificate`
    for the ``ekf`` at the model's own tuning, so ``||J_f|| < 1`` is needed.
    """
    d = model.dim_x
    H, R = model.H, model.R
    h, r = float(H[0, 0]), float(R[0, 0])
    if model.dim_y != d or np.abs(H - h * np.eye(d)).max() > 1e-12 or h == 0:
        raise ValueError("naive comparison needs H = h I with h nonzero")
    if np.abs(R - r * np.eye(d)).max() > 1e-12 or r <= 0:
        raise ValueError("naive comparison needs R = r I with r positive")
    cert = discrete_certificate(model, make_filter_config("ekf", model))
    naive = d * r / (h * h)
    bound = cert.mse_asymptote
    return NaiveComparison(naive_mse=naive, filter_bound=bound, filter_wins=bool(bound < naive), certificate=cert)


# ---------------------------------------------------------------------------
# Inequality utilities: no builder calls them; the validate suite checks them


def gronwall_continuous(x0, alpha, beta_const, t):
    """Envelope for ``x' <= alpha x + beta``: ``x0 e^{at} + (e^{at} - 1) b/a``.

    At ``alpha = 0`` the limit ``x0 + beta t`` is returned. The arguments
    broadcast against each other and the limit is taken cell by cell; the
    result is a float when every argument is a scalar or 0-d, else an array.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be nonnegative")
    x0, alpha, beta_const, t = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                     for v in (x0, alpha, beta_const, t)))
    eat = np.exp(alpha * t)
    # asarray: a product of 0-d arrays is a numpy scalar, which cannot be an out argument
    ramp = np.divide((eat - 1.0) * beta_const, alpha, out=np.asarray(beta_const * t), where=alpha != 0.0)
    env = x0 * eat + ramp
    return float(env) if env.ndim == 0 else env


def _gaussian_law(m, P):
    """Mean vector and covariance matrix of ``N(m, P)``; ``m = 0`` means the zero vector."""
    P = _check_psd("P", np.atleast_2d(P))
    m = np.zeros(P.shape[0]) if np.isscalar(m) and m == 0 else np.asarray(m, dtype=float).ravel()
    if m.size != P.shape[0]:
        raise ValueError(f"m must have size {P.shape[0]} like P, got {m.size}")
    return m, P


def gaussian_norm_moment(m, P, n):
    """Exact ``E[||X||^{2n}]`` for Gaussian ``X ~ N(m, P)`` and integer ``n >= 1``.

    ``||X||^2`` has cumulants ``kappa_j = 2^{j-1} (j-1)! (tr P^j + j m^T P^{j-1} m)``
    (Mathai & Provost, *Quadratic Forms in Random Variables*, 1992), and the
    moments follow from ``mu_k = sum_{i<k} C(k-1, i) kappa_{i+1} mu_{k-1-i}``
    with ``mu_0 = 1``: ``mu_1 = kappa_1``, ``mu_2 = kappa_2 + kappa_1^2``,
    ``mu_3 = kappa_3 + 3 kappa_2 kappa_1 + kappa_1^3``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m, P = _gaussian_law(m, P)
    kappa, Pj = [], np.eye(P.shape[0])
    for j in range(1, n + 1):
        m_quad = float(m @ Pj @ m)
        Pj = Pj @ P
        kappa.append(2 ** (j - 1) * math.factorial(j - 1) * (float(np.trace(Pj)) + j * m_quad))
    mu = [1.0]
    for k in range(1, n + 1):
        mu.append(sum(math.comb(k - 1, i) * kappa[i] * mu[k - 1 - i] for i in range(k)))
    return mu[n]


def chi_square_moment_bound(m, P, n):
    """Upper bound on ``E[||X||^{2n}]^{1/n}`` for Gaussian ``X ~ N(m, P)``.

    ``||P|| (d+2) n`` when the mean is zero, otherwise
    ``4 (||m||^2 + ||P|| (d+2) n)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m, P = _gaussian_law(m, P)
    d = P.shape[0]
    p_norm = float(np.linalg.norm(P, 2))
    if float(m @ m) == 0.0:
        return p_norm * (d + 2) * n
    return 4.0 * (float(m @ m) + p_norm * (d + 2) * n)
