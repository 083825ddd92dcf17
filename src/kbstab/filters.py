"""Generalized Kalman-Bucy filtering and its discrete predict/update analogue.

The continuous filter co-integrates the estimate and covariance with the
same explicit Euler step as the simulated paths,

    x' = x + L(f) dt + P H^T R^{-1} (dY - H x dt)
    P' = P + [Lam(f) + Lam(f)^T + Q_tuned - P S P] dt,

where the mean functional ``L`` and Riccati functional ``Lam`` select the
filter variant: both ``ekf``, or both on one sigma-point rule (unscented
for ``ukf``, Gauss-Hermite for ``gh``, the reference rule for ``adf``). A
rule-based step takes both terms from one square root of ``P`` and one
field evaluation at the shared points, with no Jacobian (Stein's identity).

After every step the covariance is symmetrized and checked with a batched
Cholesky factorization. Only a path whose symmetrized matrix is not
numerically positive definite, so that its factorization fails, has its
eigenvalues clamped at zero. The guard is a floating-point safeguard the
exact-arithmetic theory does not need; on well-posed runs it never fires,
and the step then makes no eigendecomposition for it.

All stepping code is written over a leading batch axis; single-path entry
points wrap a batch of one, so ensemble runs are arithmetically identical
to path-by-path runs regardless of how paths are grouped.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError, DivergenceError
from .models import DiscreteModel
from .functionals import (
    MeanFunctional,
    RiccatiFunctional,
    eval_drift_batch,
    eval_mean_batch,
    eval_riccati_cont_batch,
    eval_riccati_disc_batch,
    mean_functional,
    reference_rule,
    riccati_functional,
    shares_sigma_points,
)
from .quadrature import _clamp_psd, default_unscented_kappa, gauss_hermite_rule, unscented_rule

FILTER_KINDS = ("ekf", "ukf", "adf", "gh")

_DEGENERATE_TRACE = 1e-14


@dataclass(frozen=True)
class FilterConfig:
    """Filter variant plus tuning: functionals (both ``ekf`` or on one rule), tuned noise, initial pair."""

    mean_fn: MeanFunctional
    riccati_fn: RiccatiFunctional
    Q_tuned: np.ndarray
    x0_hat: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q_tuned, dtype=float)
        P0 = np.asarray(self.P0, dtype=float)
        x0 = np.asarray(self.x0_hat, dtype=float).ravel()
        for name, M in (("Q_tuned", Q), ("P0", P0)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.linalg.eigvalsh(0.5 * (M + M.T))[0] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        both_ekf = self.mean_fn.kind == self.riccati_fn.kind == "ekf"
        if not (both_ekf or shares_sigma_points(self.mean_fn, self.riccati_fn)):
            raise ValueError("mean and riccati functionals must both be ekf or share one sigma-point rule")
        object.__setattr__(self, "Q_tuned", 0.5 * (Q + Q.T))
        object.__setattr__(self, "P0", 0.5 * (P0 + P0.T))
        object.__setattr__(self, "x0_hat", x0)


def make_filter_config(kind, model, Q_tuned=None, x0_hat=None, P0=None, kappa=None, gh_order=3):
    """Build the standard configs: ``ekf``, ``ukf``, ``adf`` or ``gh``.

    Defaults tie the filter to the model's own noise level and initial law:
    ``Q_tuned = Q``, ``x0_hat = mu0``, ``P0 = Sigma0``.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r} (choose from {FILTER_KINDS})")
    d = model.dim_x
    time = "disc" if isinstance(model, DiscreteModel) else "cont"
    if kind == "ekf":
        rule = None
    elif kind == "ukf":
        rule = unscented_rule(d, default_unscented_kappa(d) if kappa is None else kappa)
    elif kind == "gh":
        rule = gauss_hermite_rule(d, gh_order)
    else:
        rule = reference_rule(d)
    functional = "ekf" if rule is None else "sigma"
    mean = mean_functional(functional, rule=rule)
    ric = riccati_functional(functional, time, rule=rule)
    return FilterConfig(
        mean_fn=mean,
        riccati_fn=ric,
        Q_tuned=model.Q if Q_tuned is None else Q_tuned,
        x0_hat=model.mu0 if x0_hat is None else x0_hat,
        P0=model.Sigma0 if P0 is None else P0,
    )


@dataclass
class FilterTrajectory:
    """Recorded output of a single-path filter run."""

    times: np.ndarray
    estimates: np.ndarray
    covariances: np.ndarray
    gains: np.ndarray
    trace_P: np.ndarray


def _is_pd(M):
    """Whether a Cholesky factorization of ``M`` (or of every matrix in a stack) succeeds."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _clamp_psd_batch(P):
    """Symmetrize a stack of matrices, clamping only the paths that need it.

    One batched Cholesky factorization usually accepts the whole stack, and
    the symmetrized stack is returned as it is. Otherwise each matrix is
    factored on its own, and those that fail are eigen-clamped together in
    one call. Whether a path is clamped thus depends on its own matrix
    alone, never on the batch it was grouped with.
    """
    sym = 0.5 * (P + np.swapaxes(P, -1, -2))
    if _is_pd(sym):
        return sym
    failing = [b for b, M in enumerate(sym) if not _is_pd(M)]
    sym[failing] = _clamp_psd(sym[failing])
    return sym


def _kb_step_batch(model, config, HtRinv, x, P, dY, dt):
    """One Euler step of the estimate/covariance pair over a batch.

    Returns ``(x_new, P_new, K, bad)`` where ``bad`` flags paths whose step
    produced non-finite values; their outputs are placeholders that callers
    must discard (the PSD guard cannot digest NaNs). ``P_new`` is the
    symmetrized raw update, eigen-clamped at zero only on paths whose
    Cholesky factorization fails (see :func:`_clamp_psd_batch`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if config.mean_fn.kind == "ekf":
            mean = eval_mean_batch(config.mean_fn, model.f, x, P)
            lam = eval_riccati_cont_batch(config.riccati_fn, model.f, x, P, jac=model.jac_f)
        else:
            mean, lam = eval_drift_batch(config.mean_fn, config.riccati_fn, model.f, x, P)
        K = P @ HtRinv
        innov = dY - (x @ model.H.T) * dt
        x_new = x + mean * dt + np.einsum("bij,bj->bi", K, innov)
        Pdot = lam + np.swapaxes(lam, -1, -2) + config.Q_tuned - P @ model.S @ P
        P_raw = P + Pdot * dt
    bad = ~(np.all(np.isfinite(x_new), axis=1) & np.all(np.isfinite(P_raw), axis=(1, 2)))
    if bad.any():
        eye = np.eye(P.shape[-1])
        P_raw = np.where(bad[:, None, None], eye, P_raw)
        x_new = np.where(bad[:, None], 0.0, x_new)
    P_new = _clamp_psd_batch(P_raw)
    return x_new, P_new, K, bad


def kalman_bucy_step(state, dY, dt, model, config):
    """Advance one continuous filter step from ``state = (x_hat, P)``.

    Returns the updated pair. Raises :class:`DivergenceError` if the step
    produces non-finite values and :class:`DegenerateCovarianceError` if the
    covariance loses rank entirely.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, P = state
    x = np.asarray(x, dtype=float)[None, :]
    P = np.asarray(P, dtype=float)[None, :, :]
    HtRinv = np.linalg.solve(model.R, model.H).T
    dY = np.asarray(dY, dtype=float)[None, :]
    x_new, P_new, _, bad = _kb_step_batch(model, config, HtRinv, x, P, dY, dt)
    if bad[0]:
        raise DivergenceError("filter state became non-finite")
    if float(np.trace(P_new[0])) < _DEGENERATE_TRACE:
        raise DegenerateCovarianceError("covariance trace collapsed below threshold")
    return x_new[0], P_new[0]


@dataclass
class EnsembleRun:
    """Batched filter output kept by the Monte Carlo harness.

    ``err_sq`` holds squared estimation errors per path and time point,
    ``checkpoint_err_sq`` the same restricted to checkpoint indices;
    ``diverged[p]`` is the first bad step of path ``p`` or -1.
    """

    err_sq: np.ndarray
    trace_max: np.ndarray
    checkpoint_err_sq: np.ndarray
    diverged: np.ndarray


def run_continuous_ensemble(model, config, states, increments, dt, checkpoint_idx=None):
    """Run the filter over a batch of simulated paths.

    ``states`` (B, n+1, d) are the true states used only to record errors;
    ``increments`` row ``k >= 1`` is consumed to advance from ``k-1`` to
    ``k``. Paths that turn non-finite are frozen and reported, not raised.
    """
    B, n_plus_1, d = states.shape
    n = n_plus_1 - 1
    if d != model.dim_x:
        raise ValueError("path dimension does not match the model")
    checkpoint_idx = np.asarray([] if checkpoint_idx is None else checkpoint_idx, dtype=int)
    HtRinv = np.linalg.solve(model.R, model.H).T
    x = np.tile(config.x0_hat, (B, 1))
    P = np.tile(config.P0, (B, 1, 1))
    err_sq = np.full((B, n + 1), np.nan)
    err_sq[:, 0] = np.sum((states[:, 0] - x) ** 2, axis=1)
    trace_max = np.einsum("bii->b", P).copy()
    diverged = np.full(B, -1, dtype=int)
    alive = np.all(np.isfinite(states[:, 0]), axis=1)
    diverged[~alive] = 0
    for k in range(1, n + 1):
        x_new, P_new, _, bad = _kb_step_batch(model, config, HtRinv, x, P, increments[:, k], dt)
        finite = ~bad & np.all(np.isfinite(states[:, k]), axis=1)
        tr = np.einsum("bii->b", P_new)
        ok = alive & finite & (tr >= _DEGENERATE_TRACE)
        diverged[alive & ~ok] = k
        alive = ok
        x = np.where(alive[:, None], x_new, x)
        P = np.where(alive[:, None, None], P_new, P)
        err_sq[alive, k] = np.sum((states[alive, k] - x[alive]) ** 2, axis=1)
        trace_max[alive] = np.maximum(trace_max[alive], tr[alive])
    cp = err_sq[:, checkpoint_idx] if checkpoint_idx.size else np.empty((B, 0))
    return EnsembleRun(err_sq=err_sq, trace_max=trace_max, checkpoint_err_sq=cp, diverged=diverged)


def run_continuous_filter(path, model, config):
    """Filter a single simulated path, recording the full trajectory."""
    states = path.states[None, :, :]
    incr = path.measurement_increments[None, :, :]
    n = path.states.shape[0] - 1
    HtRinv = np.linalg.solve(model.R, model.H).T
    x = config.x0_hat[None, :].copy()
    P = config.P0[None, :, :].copy()
    d = model.dim_x
    est = np.empty((n + 1, d))
    cov = np.empty((n + 1, d, d))
    gains = np.empty((n + 1, d, model.dim_y))
    est[0], cov[0] = x[0], P[0]
    gains[0] = P[0] @ HtRinv
    for k in range(1, n + 1):
        x, P, K, bad = _kb_step_batch(model, config, HtRinv, x, P, incr[:, k], path.dt)
        if bad[0]:
            raise DivergenceError(f"filter diverged at step {k}", step=k)
        if float(np.trace(P[0])) < _DEGENERATE_TRACE:
            raise DegenerateCovarianceError(f"covariance collapsed at step {k}", step=k)
        est[k], cov[k] = x[0], P[0]
        gains[k] = P[0] @ HtRinv
    return FilterTrajectory(
        times=path.times.copy(),
        estimates=est,
        covariances=cov,
        gains=gains,
        trace_P=np.trace(cov, axis1=1, axis2=2),
    )


# ---------------------------------------------------------------------------
# Discrete-time filter


def discrete_predict(state, model, config):
    """Prediction step: propagate the mean and covariance one model step.

    Returns ``(x_pred, P_pred)`` with ``P_pred = Lam(f) + Q_tuned``, which is
    positive definite because ``Q_tuned`` is.
    """
    x, P = state
    x = np.asarray(x, dtype=float)[None, :]
    P = np.asarray(P, dtype=float)[None, :, :]
    if config.riccati_fn.time != "disc":
        raise ValueError("config holds a continuous-time riccati functional")
    mean = eval_mean_batch(config.mean_fn, model.f, x, P)
    lam = eval_riccati_disc_batch(config.riccati_fn, model.f, x, P, jac=model.jac_f)
    P_pred = lam[0] + config.Q_tuned
    return mean[0], 0.5 * (P_pred + P_pred.T)


def discrete_update(pred, y, model):
    """Measurement update from the predictive pair ``pred = (x_pred, P_pred)``.

    Returns ``(x, P, K)``. The gain solves the symmetric innovation system
    ``(H P H^T + R) K^T = H P`` instead of forming an explicit inverse.
    """
    x_pred, P_pred = pred
    x_pred = np.asarray(x_pred, dtype=float).ravel()
    P_pred = np.asarray(P_pred, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    H, R = model.H, model.R
    innov_cov = H @ P_pred @ H.T + R
    try:
        K = np.linalg.solve(innov_cov, H @ P_pred).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance (is R positive definite?)") from exc
    x = x_pred + K @ (y - H @ x_pred)
    P = (np.eye(model.dim_x) - K @ H) @ P_pred
    return x, 0.5 * (P + P.T), K


def run_discrete_filter(path, model, config):
    """Iterate predict/update over a discrete path (measurement rows 1..n)."""
    n = path.states.shape[0] - 1
    d, dy = model.dim_x, model.dim_y
    est = np.empty((n + 1, d))
    cov = np.empty((n + 1, d, d))
    gains = np.zeros((n + 1, d, dy))
    x, P = config.x0_hat.copy(), config.P0.copy()
    est[0], cov[0] = x, P
    for k in range(1, n + 1):
        pred = discrete_predict((x, P), model, config)
        x, P, K = discrete_update(pred, path.measurement_increments[k], model)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(P))):
            raise DivergenceError(f"filter diverged at step {k}", step=k)
        est[k], cov[k], gains[k] = x, P, K
    return FilterTrajectory(
        times=path.times.copy(),
        estimates=est,
        covariances=cov,
        gains=gains,
        trace_P=np.trace(cov, axis1=1, axis2=2),
    )
