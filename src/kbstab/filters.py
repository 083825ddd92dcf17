"""Generalized Kalman-Bucy filtering and its discrete predict/update analogue.

The continuous filter co-integrates the estimate and covariance with the
same explicit Euler step as the simulated paths,

    x' = x + L(f) dt + P H^T R^{-1} (dY - H x dt)
    P' = P + [Lam(f) + Lam(f)^T + Q_tuned - P S P] dt,

where the mean term ``L`` and the Riccati term ``Lam`` come from the
filter's one functional: ``ekf`` point evaluation, or one sigma-point rule
(unscented for ``ukf``, Gauss-Hermite for ``gh``, the reference rule for
``adf``). On a continuous model with a ``gaussian_drift``, ``adf`` takes
the exact terms from it instead, with no field evaluation; both are
checked to have the batch's shapes. The discrete
filter predicts ``(L(f), Lam(f) + Q_tuned)`` and then updates. The model
alone says which time model runs. A rule-based step takes both terms from
the field values at the points ``x + L xi``, with no Jacobian, where
``L L^T = P`` is any root: one field evaluation per fixed path block of
:mod:`kbstab.functionals`. A block holds at most
``functionals.BLOCK_COORDS`` point coordinates, so a step makes one
evaluation for a narrow rule on a narrow batch and several for a wide rule
(``adf``'s rule in 3-d: five paths a block) or a wide batch.

``Q_tuned``, ``P0`` and ``R`` (through the model's cached ``H^T R^{-1}``)
must pass the one covariance check as positive definite. After every step
the covariance is symmetrized and checked with a Cholesky factorization,
one batch-last column recurrence for every state size; a path whose
factorization fails has its eigenvalues clamped at zero. This guard is a
floating-point safeguard the exact-arithmetic theory does not need; on
well-posed runs it never fires. Its factor, or the clamp's eigen-root, is
the next step's sigma-point root, so a well-posed step makes one Cholesky
factorization and no eigendecomposition, and a continuous one no LAPACK
call at all.

One batched step serves both time models and one loop runs it. The
ensemble calls :func:`run_continuous_ensemble` and
:func:`run_discrete_ensemble` are the only entry points; one path is a
batch of one, and results do not depend on how paths are grouped. The
loop reads paths time-major, as the simulators store them, and writes the
squared errors one column per step straight into the ``(paths, steps + 1)``
array it returns, with no transposed copy.
It stores the covariances, their roots and the gains batch-last,
``(d, d, paths)``, so the small products of a step run as vector
operations over a contiguous batch; the states stay ``(paths, d)``, as
fields index ``x[..., i]``. The step checks finiteness on the whole batch
first and looks at single paths only when that check fails. The loop
likewise makes one whole-batch test per step, on one flag per row of the
truth, and builds per-path masks only once a path dies. It enters one
error state for all its steps, in which overflow and invalid operations
only flag a path as diverged, with no warning; the step enters none of its
own and runs under its caller's. Division by zero keeps numpy's setting,
so a field that divides by zero still warns. A squared error
adds its ``d`` coordinates in order, so a path's bits never depend on its
batch; for ``d <= 7`` that is what ``np.sum`` does.
"""

from dataclasses import dataclass

import numpy as np

from .checks import check_field, check_finite, check_number, check_shape, read_only
from .functionals import (
    Functional,
    eval_drift_batch,
    eval_mean_batch,
    eval_riccati_cont_batch,
    eval_riccati_disc_batch,
    reference_rule,
)
from .quadrature import (
    _batch_first,
    _batch_last,
    _check_psd,
    _matmul_last,
    _psd_root,
    gauss_hermite_rule,
    unscented_rule,
)

FILTER_KINDS = ("ekf", "ukf", "adf", "gh")

_DEGENERATE_TRACE = 1e-14


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """Filter variant plus tuning of one size, kept as read-only copies: finite ``x0_hat``, positive definite ``Q_tuned``, ``P0``."""

    functional: Functional
    Q_tuned: np.ndarray
    x0_hat: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        x0 = read_only(check_finite("x0_hat", self.x0_hat).ravel())
        for name in ("Q_tuned", "P0"):
            M = _check_psd(name, getattr(self, name), definite=True)
            object.__setattr__(self, name, read_only(check_shape(name, M, (x0.size, x0.size))))
        object.__setattr__(self, "x0_hat", x0)


def make_filter_config(kind, model, Q_tuned=None, x0_hat=None, P0=None):
    """Build the standard configs: ``ekf``, ``ukf``, ``adf`` or ``gh``.

    Defaults tie the filter to the model's own noise level and initial law:
    ``Q_tuned = Q``, ``x0_hat = mu0``, ``P0 = Sigma0``. The ``ukf`` rule takes
    the default ``kappa``, the ``gh`` rule three Gauss-Hermite nodes per axis.
    """
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r} (choose from {FILTER_KINDS})")
    d = model.dim_x
    if kind == "ekf":
        rule = None
    elif kind == "ukf":
        rule = unscented_rule(d)
    elif kind == "gh":
        rule = gauss_hermite_rule(d, 3)
    else:
        rule = reference_rule(d)
    if x0_hat is not None:
        # x0_hat sizes the config, so it is the one held to the model's size
        x0_hat = check_shape("x0_hat", check_finite("x0_hat", x0_hat).ravel(), (d,))
    return FilterConfig(
        functional=Functional("sigma" if kind in ("ukf", "gh") else kind, rule),
        Q_tuned=model.Q if Q_tuned is None else Q_tuned,
        x0_hat=model.mu0 if x0_hat is None else x0_hat,
        P0=model.Sigma0 if P0 is None else P0,
    )


def _drift(model, config, x, P, L=None):
    """Mean and Riccati terms of one step in the model's time: ``ekf`` point terms, or one rule evaluation.

    The ``adf`` functional takes the exact terms of a continuous model's
    ``gaussian_drift`` where it has one, and its rule otherwise; its mean
    must be ``(B, d)`` and its Riccati term ``(d, d, B)``, else a
    ``ValueError`` names ``gaussian_drift``. ``P``, ``L`` and the Riccati
    term returned are batch-last ``(d, d, B)``.
    """
    F = config.functional
    if F.kind == "adf" and getattr(model, "gaussian_drift", None) is not None:
        mean, lam = model.gaussian_drift(x, P)
        return check_field("gaussian_drift", mean, x.shape), check_field("gaussian_drift", lam, P.shape)
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


def _gain_times_innovation(model, K, x, obs, dt):
    """``K (dY - H x dt)`` of the continuous step, ``(d, B)``: the gain's columns times the innovation's, summed in order.

    The innovation is built in one buffer, and it and the partial sums are
    gone when the step goes on to the covariance and its guard.
    """
    innov = x @ model.H.T
    innov *= dt
    np.subtract(obs, innov, out=innov)
    innov = innov.T
    gain = K[:, 0] * innov[0]
    for m in range(1, len(innov)):
        gain += K[:, m] * innov[m]
    return gain


def _kb_step_batch(model, config, x, P, L, obs, dt):
    """One filter step over a batch, for either time model.

    ``x`` is ``(B, d)``, since fields index ``x[..., i]``; ``P`` and ``L``
    are batch-last ``(d, d, B)``. A continuous model takes the Euler step
    on the increments ``obs``; a discrete model predicts and updates on the
    measurements ``obs`` and ignores ``dt``. ``L`` roots the sigma points
    (``None``: root ``P`` here). Returns ``(x_new, P_new,
    L_new, K, bad)`` where ``K`` is the gain applied, batch-last
    ``(d, dim_y, B)``, and ``bad`` flags paths whose step produced
    non-finite values; their outputs are placeholders that callers must
    discard (the PSD guard cannot digest NaNs). ``P_new`` is the symmetrized
    raw update, eigen-clamped at zero only on paths whose Cholesky
    factorization fails, and ``L_new`` the guard's root of it.

    In the continuous step every product runs over the contiguous batch
    axis: ``P`` times the model's cached ``HtRinv`` is one GEMM per row of
    ``P``, ``S P`` one GEMM over all its columns, ``P (S P)`` (like ``J P``
    in the functional) one einsum, and the gain times the innovation a sum
    over its columns in order. Each member's result is the same whatever
    the batch holds. The step reads ``H``, ``R`` and ``S`` from the model
    alone.

    The step runs under its caller's error state and sets none of its own:
    the ensemble loop ignores overflow and invalid operations, which the
    finiteness check turns into ``bad`` paths, while a direct caller sees
    numpy's warnings as it has set them.
    """
    d, _, B = P.shape
    mean, lam = _drift(model, config, x, P, L)
    if model.time == "cont":
        K = np.matmul(model.HtRinv.T, P)
        x_new = mean * dt
        x_new += x
        x_new += _gain_times_innovation(model, K, x, obs, dt).T
        P_raw = lam + lam.transpose(1, 0, 2)
        P_raw += config.Q_tuned[:, :, None]
        P_raw -= _matmul_last(P, (model.S @ P.reshape(d, d * B)).reshape(d, d, B))
        P_raw *= dt
        P_raw += P
    else:
        P_pred = np.ascontiguousarray(_batch_first(lam)) + config.Q_tuned
        x_new, P_raw, K = _update_batch(model, mean, P_pred, obs)
        P_raw, K = _batch_last(P_raw), _batch_last(K)
    if np.isfinite(x_new).all() and np.isfinite(P_raw).all():
        bad = np.zeros(B, dtype=bool)
    else:
        bad = ~(np.isfinite(x_new).all(axis=1) & np.isfinite(P_raw).all(axis=(0, 1)))
        P_raw = np.where(bad, np.eye(d)[:, :, None], P_raw)
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


def _err_sq(truth, x):
    """Squared errors of the rows of ``x`` against ``truth``, ``(B, d)`` each, summed over coordinates in order.

    One path's sum never depends on the batch. For ``d <= 7`` its bits are
    those of ``np.sum(..., axis=-1)``, which sums pairwise from 8 terms on.
    """
    sq = truth - x
    sq *= sq
    # the sum builds in the first column of the temporary
    out = sq[:, 0]
    for i in range(1, sq.shape[1]):
        out += sq[:, i]
    return out


def _run(time, model, config, states, obs, dt, record=None):
    """The time-step loop of both time models (see :func:`run_continuous_ensemble`).

    A path is also frozen when its covariance trace collapses or its true
    state turns non-finite. While every path is alive the step's outputs
    are taken as they are, with no masked copies, and the loop does not
    test whether any path is left. ``P`` and ``L``, the
    guard's root of it, are stored batch-last, ``(d, d, B)``.
    ``record(k, x, P, K)``, if given, sees the raw outputs of every step,
    with ``P`` and ``K`` as batch-first views. The loop runs time-major:
    ``states`` and ``obs`` are read as ``(n+1, B, d)``, which is free for
    the views the simulators return and one copy otherwise. The squared
    errors are written one column per step straight into the C-contiguous
    ``(B, n+1)`` array that is returned; the harness's reductions rely on
    that layout for their bits.
    """
    if model.time != time:
        raise ValueError(f"need a {time!r} model, got a {model.time!r} one")
    d = model.dim_x
    check_shape("x0_hat", config.x0_hat, (d,))
    states = check_shape("states", states, (None, None, d))
    B, n_plus_1, _ = states.shape
    obs = check_shape("increments" if time == "cont" else "measurements", obs, (B, n_plus_1, model.dim_y))
    states = np.ascontiguousarray(states.transpose(1, 0, 2))
    obs = np.ascontiguousarray(obs.transpose(1, 0, 2))
    x = np.tile(config.x0_hat, (B, 1))
    P, L = _psd_root(np.broadcast_to(config.P0[:, :, None], (d, d, B)))
    # one flag per row first, so the full-size temporary of the check is gone before err_sq
    # exists; a row's per-path mask is built only where a truth in it is non-finite
    row_ok = np.isfinite(states).all(axis=(1, 2))
    err_sq = np.full((B, n_plus_1), np.nan)
    err_sq[:, 0] = _err_sq(states[0], x)
    trace_max = np.einsum("iib->b", P)
    alive = np.isfinite(states[0]).all(axis=1)
    every = bool(alive.all())
    diverged = np.where(alive, -1, 0)
    # one error state for the whole loop: a step that overflows, or a finite estimate far from
    # the truth, flags its path (or gives a squared error of inf) with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_plus_1):
            if not every and not alive.any():
                break
            x_new, P_new, L_new, K, bad = _kb_step_batch(model, config, x, P, L, obs[k], dt)
            if record is not None:
                record(k, x_new, _batch_first(P_new), _batch_first(K))
            tr = np.einsum("iib->b", P_new)
            # one whole-batch test: every path alive, every truth finite, no path flagged
            if every and row_ok[k] and not bad.any() and tr.min() >= _DEGENERATE_TRACE:
                x, P, L = x_new, P_new, L_new
                err_sq[:, k] = _err_sq(states[k], x)
                np.maximum(trace_max, tr, out=trace_max)
                continue
            truth_ok = row_ok[k] or np.isfinite(states[k]).all(axis=1)
            ok = alive & ~bad & truth_ok & (tr >= _DEGENERATE_TRACE)
            diverged[alive & ~ok] = k
            alive = ok
            every = False
            x = np.where(alive[:, None], x_new, x)
            P = np.where(alive, P_new, P)
            L = np.where(alive, L_new, L)
            err_sq[alive, k] = _err_sq(states[k, alive], x[alive])
            trace_max[alive] = np.maximum(trace_max[alive], tr[alive])
    return EnsembleRun(err_sq=err_sq, trace_max=trace_max, diverged=diverged)


def run_continuous_ensemble(model, config, states, increments, dt):
    """Run the continuous filter over a batch of simulated paths.

    ``states`` (B, n+1, d) are the true states used only to record errors;
    ``increments`` row ``k >= 1`` is consumed to advance from ``k-1`` to
    ``k``. Paths that turn non-finite are frozen and reported, not raised.
    ``dt`` must be a finite number greater than 0, ``states`` have
    ``d = dim_x`` and ``increments`` be ``(B, n+1, dim_y)``, and the
    config the model's size, else a ``ValueError`` names the argument.
    """
    check_number("dt", dt, low=0, strict=True)
    return _run("cont", model, config, states, increments, dt)


def run_discrete_ensemble(model, config, states, measurements):
    """Discrete analogue of :func:`run_continuous_ensemble`; ``measurements`` row ``k`` is ``Y_k``."""
    return _run("disc", model, config, states, measurements, 1.0)
