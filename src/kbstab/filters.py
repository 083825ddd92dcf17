"""Generalized Kalman-Bucy filtering and its discrete predict/update analogue.

The continuous filter co-integrates the estimate and covariance with the
same explicit Euler step as the simulated paths,

    x' = x + L(f) dt + P H^T R^{-1} (dY - H x dt)
    P' = P + [Lam(f) + Lam(f)^T + Q_tuned - P S P] dt,

where the mean term ``L`` and the Riccati term ``Lam`` come from the
filter's one functional: ``ekf`` point evaluation, or one sigma-point rule
(unscented for ``ukf``, Gauss-Hermite for ``gh``, the reference rule for
``adf``). The discrete filter predicts ``(L(f), Lam(f) + Q_tuned)`` and
then updates. The model alone says which time model runs. A rule-based
step takes both terms from one field evaluation at the points
``x + L xi``, with no Jacobian, where ``L L^T = P`` is any root.

``Q_tuned``, ``P0`` and ``R`` (through the model's cached ``H^T R^{-1}``)
must pass the one covariance check as positive definite. After every step
the covariance is symmetrized and checked with a batched Cholesky
factorization; a path whose factorization fails has its eigenvalues clamped
at zero. This guard is a floating-point safeguard the exact-arithmetic
theory does not need; on well-posed runs it never fires. Its factor, or the
clamp's eigen-root, is the next step's sigma-point root, so a well-posed
step makes one Cholesky factorization and no eigendecomposition.

One batched step serves both time models and one loop runs it. The
ensemble calls :func:`run_continuous_ensemble` and
:func:`run_discrete_ensemble` are the only entry points; one path is a
batch of one, and results do not depend on how paths are grouped. The
loop reads paths time-major, as the simulators store them, and writes the
squared errors time-major before handing them back as ``(paths, steps + 1)``.
The step checks finiteness on the whole batch first and looks at single
paths only when that check fails.
"""

from dataclasses import dataclass

import numpy as np

from .functionals import (
    Functional,
    eval_drift_batch,
    eval_mean_batch,
    eval_riccati_cont_batch,
    eval_riccati_disc_batch,
    reference_rule,
)
from .quadrature import _check_psd, _psd_root, default_unscented_kappa, gauss_hermite_rule, unscented_rule

FILTER_KINDS = ("ekf", "ukf", "adf", "gh")

_DEGENERATE_TRACE = 1e-14


@dataclass(frozen=True)
class FilterConfig:
    """Filter variant plus tuning of one size: the functional, finite ``x0_hat``, positive definite ``Q_tuned``, ``P0``."""

    functional: Functional
    Q_tuned: np.ndarray
    x0_hat: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q_tuned, dtype=float)
        P0 = np.asarray(self.P0, dtype=float)
        x0 = np.asarray(self.x0_hat, dtype=float).ravel()
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0_hat must be finite")
        for name, M in (("Q_tuned", Q), ("P0", P0)):
            if M.shape != (x0.size, x0.size):
                raise ValueError(f"{name} must have shape {(x0.size, x0.size)} like x0_hat, got {M.shape}")
            object.__setattr__(self, name, _check_psd(name, M, definite=True))
        object.__setattr__(self, "x0_hat", x0)

    def check_dim(self, dim):
        """Raise a ``ValueError`` naming the fields unless the tuning has the model size ``dim``."""
        if self.x0_hat.size != dim:
            raise ValueError(f"x0_hat, Q_tuned and P0 have size {self.x0_hat.size}, not dim_x = {dim}")


def make_filter_config(kind, model, Q_tuned=None, x0_hat=None, P0=None, kappa=None, gh_order=3):
    """Build the standard configs: ``ekf``, ``ukf``, ``adf`` or ``gh``.

    Defaults tie the filter to the model's own noise level and initial law:
    ``Q_tuned = Q``, ``x0_hat = mu0``, ``P0 = Sigma0``.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r} (choose from {FILTER_KINDS})")
    d = model.dim_x
    if kind == "ekf":
        rule = None
    elif kind == "ukf":
        rule = unscented_rule(d, default_unscented_kappa(d) if kappa is None else kappa)
    elif kind == "gh":
        rule = gauss_hermite_rule(d, gh_order)
    else:
        rule = reference_rule(d)
    config = FilterConfig(
        functional=Functional("ekf" if rule is None else "sigma", rule),
        Q_tuned=model.Q if Q_tuned is None else Q_tuned,
        x0_hat=model.mu0 if x0_hat is None else x0_hat,
        P0=model.Sigma0 if P0 is None else P0,
    )
    config.check_dim(d)
    return config


def _drift(model, config, x, P, L=None):
    """Mean and Riccati terms of one step in the model's time: ``ekf`` point terms, or one rule evaluation."""
    F = config.functional
    if F.kind != "ekf":
        return eval_drift_batch(F, model.time, model.f, x, P, root=L)
    riccati = eval_riccati_cont_batch if model.time == "cont" else eval_riccati_disc_batch
    return eval_mean_batch(F, model.f, x, P), riccati(F, model.f, x, P, jac=model.jac_f)


def _update_batch(model, x_pred, P_pred, y):
    """Batched update ``(x, P, K)``; ``K`` solves ``(H P H^T + R) K^T = H P``, ``P`` is unsymmetrized."""
    H = model.H
    HP = H @ P_pred
    try:
        K = np.swapaxes(np.linalg.solve(HP @ H.T + model.R, HP), -1, -2)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular innovation covariance (is R positive definite?)") from exc
    x = x_pred + np.einsum("bij,bj->bi", K, y - x_pred @ H.T)
    return x, (np.eye(model.dim_x) - K @ H) @ P_pred, K


def _kb_step_batch(model, config, HtRinv, x, P, L, obs, dt):
    """One filter step over a batch, for either time model.

    A continuous model takes the Euler step on the increments ``obs``; a
    discrete model predicts and updates on the measurements ``obs`` and
    ignores ``HtRinv`` and ``dt``; ``L`` roots the sigma points (``None``:
    root ``P`` here). Returns ``(x_new, P_new, L_new, K, bad)`` where ``K``
    is the gain applied and ``bad`` flags paths whose step produced
    non-finite values; their outputs are placeholders that callers must
    discard (the PSD guard cannot digest NaNs). ``P_new`` is the symmetrized
    raw update, eigen-clamped at zero only on paths whose Cholesky
    factorization fails, and ``L_new`` the guard's root of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean, lam = _drift(model, config, x, P, L)
        if model.time == "cont":
            K = P @ HtRinv
            innov = obs - (x @ model.H.T) * dt
            x_new = x + mean * dt + np.einsum("bij,bj->bi", K, innov)
            Pdot = lam + np.swapaxes(lam, -1, -2) + config.Q_tuned - P @ model.S @ P
            P_raw = P + Pdot * dt
        else:
            x_new, P_raw, K = _update_batch(model, mean, lam + config.Q_tuned, obs)
    if np.isfinite(x_new).all() and np.isfinite(P_raw).all():
        bad = np.zeros(len(x_new), dtype=bool)
    else:
        bad = ~(np.isfinite(x_new).all(axis=1) & np.isfinite(P_raw).all(axis=(1, 2)))
        P_raw = np.where(bad[:, None, None], np.eye(P.shape[-1]), P_raw)
        x_new = np.where(bad[:, None], 0.0, x_new)
    P_new, L_new = _psd_root(P_raw)
    return x_new, P_new, L_new, K, bad


@dataclass
class EnsembleRun:
    """Batched filter output kept by the Monte Carlo harness.

    ``err_sq`` holds squared estimation errors per path and time point;
    ``diverged[p]`` is the first bad step of path ``p`` or -1.
    """

    err_sq: np.ndarray
    trace_max: np.ndarray
    diverged: np.ndarray


def _run(time, model, config, states, obs, dt, record=None):
    """The time-step loop of both time models (see :func:`run_continuous_ensemble`).

    A path is also frozen when its covariance trace collapses or its true
    state turns non-finite. While every path is alive the step's outputs
    are taken as they are, with no masked copies. ``L``, the guard's root
    of ``P``, is carried with it. ``record(k, x, P, K)``, if given, sees
    the raw outputs of every step. The loop runs time-major: ``states`` and
    ``obs`` are read as ``(n+1, B, d)``, which is free for the views the
    simulators return and one copy otherwise.
    """
    if model.time != time:
        raise ValueError(f"need a {time!r} model, got a {model.time!r} one")
    B, n_plus_1, d = states.shape
    if d != model.dim_x:
        raise ValueError("path dimension does not match the model")
    if obs.shape != (B, n_plus_1, model.dim_y):
        name = "increments" if time == "cont" else "measurements"
        raise ValueError(f"{name} must have shape {(B, n_plus_1, model.dim_y)} to match states, got {obs.shape}")
    states = np.ascontiguousarray(states.transpose(1, 0, 2))
    obs = np.ascontiguousarray(obs.transpose(1, 0, 2))
    HtRinv = model.HtRinv if time == "cont" else None
    x = np.tile(config.x0_hat, (B, 1))
    P, L = _psd_root(np.tile(config.P0, (B, 1, 1)))
    err_sq = np.full((n_plus_1, B), np.nan)
    err_sq[0] = np.sum((states[0] - x) ** 2, axis=1)
    trace_max = np.einsum("bii->b", P).copy()
    truth_ok = np.isfinite(states).all(axis=2)
    alive = truth_ok[0]
    diverged = np.where(alive, -1, 0)
    # a finite estimate far from the truth has a squared error of inf, not a warning
    with np.errstate(over="ignore"):
        for k in range(1, n_plus_1):
            if not alive.any():
                break
            x_new, P_new, L_new, K, bad = _kb_step_batch(model, config, HtRinv, x, P, L, obs[k], dt)
            if record is not None:
                record(k, x_new, P_new, K)
            tr = np.einsum("bii->b", P_new)
            ok = alive & ~bad & truth_ok[k] & (tr >= _DEGENERATE_TRACE)
            if ok.all():
                x, P, L = x_new, P_new, L_new
                err_sq[k] = np.sum((states[k] - x) ** 2, axis=1)
                np.maximum(trace_max, tr, out=trace_max)
                continue
            diverged[alive & ~ok] = k
            alive = ok
            x = np.where(alive[:, None], x_new, x)
            P = np.where(alive[:, None, None], P_new, P)
            L = np.where(alive[:, None, None], L_new, L)
            err_sq[k, alive] = np.sum((states[k, alive] - x[alive]) ** 2, axis=1)
            trace_max[alive] = np.maximum(trace_max[alive], tr[alive])
    return EnsembleRun(err_sq=np.ascontiguousarray(err_sq.T), trace_max=trace_max, diverged=diverged)


def run_continuous_ensemble(model, config, states, increments, dt):
    """Run the continuous filter over a batch of simulated paths.

    ``states`` (B, n+1, d) are the true states used only to record errors;
    ``increments`` row ``k >= 1`` is consumed to advance from ``k-1`` to
    ``k``. Paths that turn non-finite are frozen and reported, not raised.
    ``dt`` must be positive and finite.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return _run("cont", model, config, states, increments, dt)


def run_discrete_ensemble(model, config, states, measurements):
    """Discrete analogue of :func:`run_continuous_ensemble`; ``measurements`` row ``k`` is ``Y_k``."""
    return _run("disc", model, config, states, measurements, 1.0)
