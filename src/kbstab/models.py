"""State-space models, built-in benchmark systems, and seeded path simulation.

Continuous models are Ito diffusions with nonlinear drift and linear
measurements,

    dX = f(X) dt + Q^{1/2} dW,      dY = H X dt + R^{1/2} dV,

simulated by Euler-Maruyama. Discrete models follow the analogous recursion
``X_k = f(X_{k-1}) + Q^{1/2} W_k``, ``Y_k = H X_k + R^{1/2} V_k``. Both
are keyword-only dataclasses on one base, told apart by their class
attribute ``time`` (``"cont"`` or ``"disc"``), and both are simulated by
one loop that branches on it only for the state and measurement lines.

``Q``, ``R`` and ``Sigma0`` must pass :func:`~kbstab.quadrature._check_psd`
(so ``R = 0`` simulates noiseless measurements); ``R`` must also be positive
definite where the cached ``HtRinv = H^T R^{-1}``, used by ``S`` and every gain, is formed.

All drift and Jacobian callables must be vectorized over leading batch
dimensions. Randomness comes from counter-based Philox streams keyed by
``(seed, path index, role)`` so that any subset of paths can be generated in
any order, or in parallel, with bit-identical results. :func:`philox` builds
every seeded generator of the package; a simulation builds one and re-keys
it for each stream, which gives the same numbers as a fresh generator.

The loop keeps its paths time-major, ``(steps + 1, paths, dim)``, so each
step reads and writes contiguous rows, and checks a step's finiteness on the
whole batch first, looking at single paths only when that check fails. The
batch simulators :func:`simulate_paths` and :func:`simulate_discrete_paths`
are the only entry points; they return the usual ``(paths, steps + 1, dim)``
shape, as transposed views of that storage. One path ``p`` is the batch of
one with ``first_path=p``, bit for bit the row of any batch that holds it.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .checks import check_integer, is_finite_real
from .quadrature import _check_psd, matrix_sqrt

_ROLE_INIT, _ROLE_STATE, _ROLE_MEAS = 0, 1, 2


def _philox_key(*words):
    """The Philox key of the integers ``words``, each taken mod ``2**64``.

    The key is a ``uint64`` array: numpy turns a list holding an int at or
    above ``2**63`` into float64, which would merge neighbouring seeds.
    """
    return np.array([int(w) % 2**64 for w in words], dtype=np.uint64)


def philox(*words):
    """A generator on the Philox stream keyed by the integers ``words`` (see :func:`_philox_key`)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(*words)))


def _rekey(gen, seed, stream):
    """Move the Philox generator ``gen`` to the start of the stream of ``philox(seed, stream)``.

    A Philox stream is a pure function of its key and counter, so setting
    the key, a zero counter and an empty buffer yields the numbers a fresh
    generator would, without building one.
    """
    gen.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": [0, 0, 0, 0], "key": _philox_key(seed, stream)},
                               "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


@dataclass(kw_only=True)
class _Model:
    """Fields and checks shared by both time models; ``time`` names the kind.

    ``known_jf_norm`` holds an externally supplied Lipschitz constant of the
    drift; certificates use it with analytic provenance when present.
    """

    dim_x: int
    dim_y: int
    f: Callable
    jac_f: Callable
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray
    known_jf_norm: Optional[float] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, dim in (("Q", self.dim_x), ("R", self.dim_y), ("Sigma0", self.dim_x)):
            M = np.asarray(getattr(self, name), dtype=float)
            if M.shape != (dim, dim):
                raise ValueError(f"{name} must have shape {(dim, dim)}")
            setattr(self, name, _check_psd(name, M))
        self.H = np.asarray(self.H, dtype=float)
        if self.H.shape != (self.dim_y, self.dim_x):
            raise ValueError(f"H must have shape {(self.dim_y, self.dim_x)}")
        self.mu0 = np.asarray(self.mu0, dtype=float).reshape(self.dim_x)
        if not np.all(np.isfinite(self.mu0)):
            raise ValueError("mu0 must be finite")

    @cached_property
    def HtRinv(self):
        """``H^T R^{-1}`` (cached), the one place ``R`` is inverted; ``R`` must be positive definite."""
        return np.linalg.solve(_check_psd("R", self.R, definite=True), self.H).T

    @cached_property
    def S(self):
        """Information-rate matrix ``H^T R^{-1} H`` (cached)."""
        S = self.HtRinv @ self.H
        return 0.5 * (S + S.T)

    def s_scalar(self):
        """Return ``s`` if ``S = s I`` to within ``1e-10 max(1, |s|)``, else ``None``."""
        S = self.S
        s = float(np.trace(S)) / self.dim_x
        if np.abs(S - s * np.eye(self.dim_x)).max() <= 1e-10 * max(1.0, abs(s)):
            return s
        return None


@dataclass(kw_only=True)
class ContinuousModel(_Model):
    """Continuous-time diffusion model with linear measurements.

    ``known_M_f`` / ``known_N_f`` hold externally supplied log-Lipschitz
    constants of the drift, used like ``known_jf_norm``.
    """

    time = "cont"
    known_M_f: Optional[float] = None
    known_N_f: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        if self.known_M_f is not None and self.known_N_f is not None:
            if self.known_N_f > self.known_M_f:
                raise ValueError("known_N_f must not exceed known_M_f")


@dataclass(kw_only=True)
class DiscreteModel(_Model):
    """Discrete-time recursion with per-step Gaussian noise."""

    time = "disc"


def _steps_for(dt, horizon):
    if not (is_finite_real(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not is_finite_real(horizon):
        raise ValueError(f"horizon must be finite, got {horizon!r}")
    if horizon < dt:
        raise ValueError("horizon must be at least one step")
    n = int(round(horizon / dt))
    if abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    return n


def _simulate(model, time, n, dt, seed, n_paths, first_path):
    """The simulation loop of both time models: ``(states, measurements, diverged)``.

    A continuous model takes Euler-Maruyama steps of size ``dt`` and records
    measurement increments; a discrete model iterates its recursion and
    records ``Y_k = H X_k + R^{1/2} V_k``. Only the state and measurement
    lines of the loop differ. Arrays are time-major, ``(n+1, B, d)``, so a
    step reads and writes contiguous rows. While every path is alive and
    finite, rows are written whole after one finiteness check of the batch.
    ``seed`` must be an integer, ``n_paths`` one at least 1 and ``first_path``
    one at least 0.
    """
    if model.time != time:
        raise ValueError(f"expected a {time!r} model, got a {model.time!r} one")
    seed = check_integer("seed", seed)
    n_paths = check_integer("n_paths", n_paths, low=1)
    first_path = check_integer("first_path", first_path, low=0)
    B, dx, dy = n_paths, model.dim_x, model.dim_y
    scale = math.sqrt(dt) if time == "cont" else 1.0
    x0 = np.empty((B, dx))
    wq = np.empty((n, B, dx))
    vr = np.empty((n, B, dy))
    # noise roots once per batch; each path draws from its own three streams,
    # all through one generator re-keyed per stream
    sqrt_sigma0, sqrt_q, sqrt_r = matrix_sqrt(model.Sigma0), matrix_sqrt(model.Q), matrix_sqrt(model.R)
    gen = philox(seed, 0)
    for p in range(B):
        stream = (first_path + p) * 4
        x0[p] = model.mu0 + sqrt_sigma0 @ _rekey(gen, seed, stream + _ROLE_INIT).standard_normal(dx)
        wq[:, p] = scale * _rekey(gen, seed, stream + _ROLE_STATE).standard_normal((n, dx)) @ sqrt_q
        vr[:, p] = scale * _rekey(gen, seed, stream + _ROLE_MEAS).standard_normal((n, dy)) @ sqrt_r

    states = np.full((n + 1, B, dx), np.nan)
    meas = np.zeros((n + 1, B, dy))
    diverged = np.full(B, -1, dtype=int)
    states[0] = x0
    alive = np.isfinite(x0).all(axis=1)
    diverged[~alive] = 0
    every = alive.all()
    Ht = model.H.T
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            xk = states[k]
            if time == "cont":
                xn = xk + np.asarray(model.f(xk), dtype=float) * dt + wq[k]
                yn = xk @ Ht * dt + vr[k]
            else:
                xn = np.asarray(model.f(xk), dtype=float) + wq[k]
                yn = xn @ Ht + vr[k]
            if every and np.isfinite(xn).all() and np.isfinite(yn).all():
                states[k + 1] = xn
                meas[k + 1] = yn
                continue
            ok = alive & np.isfinite(xn).all(axis=1) & np.isfinite(yn).all(axis=1)
            diverged[alive & ~ok] = k + 1
            alive = ok
            every = False
            states[k + 1, ok] = xn[ok]
            meas[k + 1, ok] = yn[ok]
    return states.transpose(1, 0, 2), meas.transpose(1, 0, 2), diverged


def simulate_paths(model, dt, horizon, seed, n_paths, first_path=0):
    """Simulate a batch of Euler-Maruyama paths.

    Returns ``(times, states, increments, diverged)`` where ``states`` has
    shape ``(n_paths, n_steps + 1, dim_x)``, ``increments`` the matching
    measurement layout (row 0 zero), and ``diverged[p]`` is the first step
    at which path ``p`` became non-finite, or -1. Diverged paths are frozen
    at NaN from that step on instead of raising, so ensemble callers can
    account for them explicitly.
    """
    n = _steps_for(dt, horizon)
    states, incr, diverged = _simulate(model, "cont", n, dt, seed, n_paths, first_path)
    return np.arange(n + 1) * dt, states, incr, diverged


def simulate_discrete_paths(model, steps, seed, n_paths, first_path=0):
    """Discrete analogue of :func:`simulate_paths` (unit noise scaling); ``steps`` is an integer at least 1."""
    steps = check_integer("steps", steps, low=1)
    states, meas, diverged = _simulate(model, "disc", steps, 1.0, seed, n_paths, first_path)
    return np.arange(steps + 1, dtype=float), states, meas, diverged


# ---------------------------------------------------------------------------
# Built-in models


def _contractive3d_f(x):
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    out = np.empty_like(x)
    out[..., 0] = -x3 * (1.0 + 1.0 / (1.0 + x3**2)) - 3.0 * x1
    out[..., 1] = -x1 - x2 - x3
    out[..., 2] = x1**2 * np.exp(-(x1**2) - x3**2) - x1 - 2.0 * x3
    return out


def _contractive3d_jac(x):
    x1, x3 = x[..., 0], x[..., 2]
    J = np.zeros(x.shape[:-1] + (3, 3))
    J[..., 0, 0] = -3.0
    J[..., 0, 2] = -1.0 - (1.0 - x3**2) / (1.0 + x3**2) ** 2
    J[..., 1, :] = -1.0
    e = np.exp(-(x1**2) - x3**2)
    J[..., 2, 0] = 2.0 * x1 * (1.0 - x1**2) * e - 1.0
    J[..., 2, 2] = -2.0 * x1**2 * x3 * e - 2.0
    return J


def builtin_contractive3d():
    """Three-dimensional fully observed benchmark with a contractive drift.

    Every state component is measured directly with noise covariance ``8 I``,
    the state noise is white with unit covariance, and the drift mixes linear
    damping with saturating nonlinear terms. The attached log-Lipschitz
    constants are sharp to the printed digits.
    """
    return ContinuousModel(
        dim_x=3,
        dim_y=3,
        f=_contractive3d_f,
        jac_f=_contractive3d_jac,
        Q=np.eye(3),
        H=np.eye(3),
        R=8.0 * np.eye(3),
        mu0=np.zeros(3),
        Sigma0=0.01 * np.eye(3),
        known_M_f=-0.5947,
        known_N_f=-4.5046,
        name="contractive3d",
    )


def velocity_g(z):
    """Monotone scalar nonlinearity of the integrated-velocity benchmark."""
    z = np.asarray(z, dtype=float)
    return z * (1.0 + np.sin(z) / (1.0 + z**2))


def velocity_g_prime(z):
    """Derivative of :func:`velocity_g`; bounded in ``[0.4188, 1.5812]``."""
    z = np.asarray(z, dtype=float)
    # z * z * z, not z**3: numpy hands a cube to libm pow, several times slower
    return 1.0 + ((z * z * z + z) * np.cos(z) - (z**2 - 1.0) * np.sin(z)) / (1.0 + z**2) ** 2


# Extremes of velocity_g_prime over the real line (attained near |z| = 0.494).
VELOCITY_G_PRIME_MIN = 0.4187731864747842
VELOCITY_G_PRIME_MAX = 1.5812268135252158


def builtin_integrated_velocity(a1=0.0, a2=1.0, q1=0.05, q2=0.05, h=1.0, r=0.05):
    """Two-dimensional partially observed model: measured position, hidden velocity.

    The first component integrates the second (plus optional feedback
    ``a1 x1``); the hidden component relaxes through the strictly increasing
    nonlinearity :func:`velocity_g`, whose slope bounds are attached for
    certificate construction. Only ``h x1`` is measured.
    """
    if not all(map(is_finite_real, (a1, a2, q1, q2, h, r))):
        raise ValueError("a1, a2, q1, q2, h and r must be finite")
    if a2 <= 0 or q1 <= 0 or q2 <= 0 or r <= 0:
        raise ValueError("a2, q1, q2 and r must be positive")
    if h == 0:
        raise ValueError("h must be nonzero")

    def f(x):
        out = np.empty_like(x)
        out[..., 0] = a1 * x[..., 0] + a2 * x[..., 1]
        out[..., 1] = -velocity_g(x[..., 1])
        return out

    def jac(x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = a1
        J[..., 0, 1] = a2
        J[..., 1, 1] = -velocity_g_prime(x[..., 1])
        return J

    return ContinuousModel(
        dim_x=2,
        dim_y=1,
        f=f,
        jac_f=jac,
        Q=np.diag([q1, q2]),
        H=np.array([[h, 0.0]]),
        R=np.array([[r]]),
        mu0=np.zeros(2),
        Sigma0=0.01 * np.eye(2),
        name="integrated_velocity",
        params={"a1": a1, "a2": a2, "q1": q1, "q2": q2, "h": h, "r": r,
                "lg": VELOCITY_G_PRIME_MIN, "sup_gprime": VELOCITY_G_PRIME_MAX},
    )


def velocity_log_lipschitz(model):
    """Closed-form (M, N) of the integrated-velocity drift from its slope bounds."""
    p = model.params
    a1, a2 = p["a1"], p["a2"]
    lo, hi = p["lg"], p["sup_gprime"]

    def eig(gp, which):
        half = 0.5 * (a1 - gp)
        rad = np.sqrt((0.5 * (a1 + gp)) ** 2 + 0.25 * a2**2)
        return half + rad if which == "max" else half - rad

    M = max(eig(lo, "max"), eig(hi, "max"))
    N = min(eig(lo, "min"), eig(hi, "min"))
    return float(M), float(N)


def _linear_model(cls, A, Q, H, R, mu0, Sigma0, name, **known):
    """A ``cls`` model with drift ``A x``; ``known`` adds exact drift constants."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    d = A.shape[0]
    H = np.asarray(H, dtype=float)

    def f(x):
        return x @ A.T

    def jac(x):
        return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()

    return cls(dim_x=d, dim_y=H.shape[0], f=f, jac_f=jac, Q=Q, H=H, R=R,
               mu0=np.zeros(d) if mu0 is None else mu0, Sigma0=np.eye(d) if Sigma0 is None else Sigma0,
               known_jf_norm=float(np.linalg.norm(A, 2)), name=name, params={"A": A}, **known)


def builtin_linear(A, Q, H, R, mu0=None, Sigma0=None):
    """Linear diffusion ``dX = A X dt + Q^{1/2} dW`` with linear measurements.

    The log-Lipschitz constants are exact for linear drifts and attached
    automatically.
    """
    A = np.asarray(A, dtype=float)
    vals = np.linalg.eigvalsh(0.5 * (A + A.T))
    return _linear_model(ContinuousModel, A, Q, H, R, mu0, Sigma0, "linear",
                         known_M_f=float(vals[-1]), known_N_f=float(vals[0]))


def builtin_discrete_linear(A, Q, H, R, mu0=None, Sigma0=None):
    """Discrete linear recursion ``X_k = A X_{k-1} + Q^{1/2} W_k``."""
    return _linear_model(DiscreteModel, A, Q, H, R, mu0, Sigma0, "discrete_linear")
