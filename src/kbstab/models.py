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
every seeded generator of the package; a simulation builds one, takes the
keys of all its streams from one table, and re-keys the generator for each
stream, which gives the same numbers as a fresh generator.

The loop keeps its paths time-major, ``(steps + 1, paths, dim)``, so each
step reads and writes contiguous rows, and checks a step's finiteness on the
whole batch first, looking at single paths only when that check fails. The
noise is drawn a chunk of paths at a time into two small buffers, scaled and
transformed there with one stacked product, and written into the record
itself: rows ``1..`` hold each step's state and measurement noise until that
step overwrites them, so a simulation allocates no full-size array besides
the one record it returns. The batch simulators :func:`simulate_paths` and
:func:`simulate_discrete_paths` are the only entry points; they return the
usual ``(paths, steps + 1, dim)`` shape, as transposed views of that
storage. One path ``p`` is the batch of one with ``first_path=p``, bit for
bit the row of any batch that holds it.
"""

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .checks import check_integer, is_finite_real
from .quadrature import _check_psd, _matmul_last, matrix_sqrt


def _philox_key(*words):
    """The Philox key of the integers ``words``, each taken mod ``2**64``.

    The key is a ``uint64`` array: numpy turns a list holding an int at or
    above ``2**63`` into float64, which would merge neighbouring seeds.
    """
    return np.array([int(w) % 2**64 for w in words], dtype=np.uint64)


def philox(*words):
    """A generator on the Philox stream keyed by the integers ``words`` (see :func:`_philox_key`)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(*words)))


def _stream_keys(seed, first_path, n_paths):
    """The Philox keys of every stream of a batch, ``(n_paths, 3, 2)`` ``uint64``.

    Row ``[p, role]`` is the key of ``philox(seed, 4 (first_path + p) +
    role)``: role 0 keys path ``p``'s initial state, 1 its state noise and 2
    its measurement noise. The table is one array operation; ``uint64``
    arithmetic wraps, so each word is taken mod ``2**64`` as in
    :func:`_philox_key`.
    """
    keys = np.empty((n_paths, 3, 2), dtype=np.uint64)
    keys[..., 0] = _philox_key(seed)
    base = np.uint64(4 * first_path % 2**64)
    keys[..., 1] = base + (np.arange(n_paths, dtype=np.uint64)[:, None] * np.uint64(4)
                           + np.arange(3, dtype=np.uint64))
    return keys


def _rekeyer(gen):
    """A function ``rekey(key)`` that moves the Philox generator ``gen`` to the start of the stream keyed ``key``.

    A Philox stream is a pure function of its key and counter, so setting
    the key, a zero counter and an empty buffer yields the numbers a fresh
    generator would, without building one. The state dict is built once and
    reused, so a re-key only swaps its key; ``key`` is a pair of words in
    ``[0, 2**64)``, fastest as a list of ints.
    """
    bit_generator = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(key):
        state["state"]["key"] = key
        bit_generator.state = state
        return gen

    return rekey


def _check_constant(name, value):
    """A ``ValueError`` naming ``name`` unless ``value`` is ``None`` or a finite real (a bool is not)."""
    if value is not None and not is_finite_real(value):
        raise ValueError(f"{name} must be None or a finite real number, got {value!r}")


@dataclass(kw_only=True)
class _Model:
    """Fields and checks shared by both time models; ``time`` names the kind.

    ``known_jf_norm`` is a Lipschitz constant ``||J_f|| <= known_jf_norm`` of
    the drift, ``None`` or a finite real at least 0. It is the only source of
    that constant for the discrete certificate; a model without one has none.
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
        _check_constant("known_jf_norm", self.known_jf_norm)
        if self.known_jf_norm is not None and self.known_jf_norm < 0:
            raise ValueError(f"known_jf_norm must be nonnegative, got {self.known_jf_norm!r}")

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

    ``known_M_f`` / ``known_N_f`` are the drift's log-Lipschitz constants
    ``M(f) = sup mu(J_f)`` and ``N(f) = inf nu(J_f)``, each ``None`` or a
    finite real, with ``N(f) <= M(f)``. They are the only source of those
    constants for the continuous certificates; a custom model gets them with
    ``dataclasses.replace``.

    ``gaussian_drift(x, P)``, if given, returns the exact Gaussian moments
    ``(E[f(X)], E[J_f(X)] P)`` for ``X ~ N(x_b, P_b)`` over states ``x``
    ``(B, d)`` and batch-last covariances ``P`` ``(d, d, B)``: the mean
    ``(B, d)``, the Riccati term batch-last ``(d, d, B)``, each path's
    values from its own inputs alone. The assumed-density (``adf``) filter
    takes its terms from it in place of its reference rule.
    """

    time = "cont"
    known_M_f: Optional[float] = None
    known_N_f: Optional[float] = None
    gaussian_drift: Optional[Callable] = None

    def __post_init__(self):
        super().__post_init__()
        _check_constant("known_M_f", self.known_M_f)
        _check_constant("known_N_f", self.known_N_f)
        if self.known_M_f is not None and self.known_N_f is not None:
            if self.known_N_f > self.known_M_f:
                raise ValueError("known_N_f must not exceed known_M_f")


@dataclass(kw_only=True)
class DiscreteModel(_Model):
    """Discrete-time recursion with per-step Gaussian noise."""

    time = "disc"


def _steps_for(dt, span, name):
    """Steps of ``dt`` in ``span``, a whole number of at least 1 up to ``1e-9 max(1, span)``; errors name ``name``."""
    if not (is_finite_real(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not is_finite_real(span):
        raise ValueError(f"{name} must be finite, got {span!r}")
    if span < dt:
        raise ValueError(f"{name} must be at least one step")
    n = int(round(span / dt))
    if abs(n * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{name} must be an integer multiple of dt")
    return n


def _simulate(model, time, n, dt, seed, n_paths, first_path):
    """The simulation loop of both time models: ``(states, measurements, diverged)``.

    A continuous model takes Euler-Maruyama steps of size ``dt`` and records
    measurement increments; a discrete model iterates its recursion and
    records ``Y_k = H X_k + R^{1/2} V_k``. Only the state and measurement
    lines of the loop differ. Arrays are time-major, ``(n+1, B, d)``, so a
    step reads and writes contiguous rows. Row ``k + 1`` of ``states`` and
    of ``meas`` holds step ``k``'s noise until the step reads it and
    overwrites it with the new state and measurement; no other full-size
    array is made.

    The noise comes a chunk of at most ``max(1, B // 64)`` paths at a time,
    so its buffers stay a small share of the record. Each path of a chunk
    takes its three keys from the :func:`_stream_keys` table and draws its
    state and measurement normals into the chunk's two buffers. The chunk
    is scaled in place, multiplied by the noise roots in one stacked
    product, which makes the same BLAS call for each path as a path on its
    own, and written into the record with one slice assignment each. The
    initial states are one stacked product too.

    While every path is alive and finite, rows are written whole after one
    finiteness check of the batch; otherwise a dead path's entries of the
    row are set to NaN (state) and 0 (measurement), so no raw noise is left
    behind. ``seed`` must be an integer, ``n_paths`` one at least 1 and
    ``first_path`` one at least 0.
    """
    if model.time != time:
        raise ValueError(f"expected a {time!r} model, got a {model.time!r} one")
    seed = check_integer("seed", seed)
    n_paths = check_integer("n_paths", n_paths, low=1)
    first_path = check_integer("first_path", first_path, low=0)
    B, dx, dy = n_paths, model.dim_x, model.dim_y
    scale = math.sqrt(dt) if time == "cont" else 1.0
    states = np.empty((n + 1, B, dx))
    meas = np.empty((n + 1, B, dy))
    # noise roots once per batch; each path draws from its own three streams, all through
    # one generator re-keyed per stream, into the buffers of its chunk
    sqrt_sigma0, sqrt_q, sqrt_r = matrix_sqrt(model.Sigma0), matrix_sqrt(model.Q), matrix_sqrt(model.R)
    keys = _stream_keys(seed, first_path, B)
    rekey = _rekeyer(philox(seed, 0))
    step = max(1, B // 64)
    z0, zx, zy = np.empty((B, dx)), np.empty((step, n, dx)), np.empty((step, n, dy))
    for start in range(0, B, step):
        m = min(step, B - start)
        # Python ints re-key fastest; a list of the whole table would outgrow the chunk buffers
        for j, (key_init, key_state, key_meas) in enumerate(keys[start:start + m].tolist()):
            rekey(key_init).standard_normal(out=z0[start + j])
            rekey(key_state).standard_normal(out=zx[j])
            rekey(key_meas).standard_normal(out=zy[j])
        # the scaling and the product of a path on its own, then into the rows its steps overwrite
        wx, wy = zx[:m], zy[:m]
        wx *= scale
        wy *= scale
        states[1:, start:start + m] = (wx @ sqrt_q).transpose(1, 0, 2)
        meas[1:, start:start + m] = (wy @ sqrt_r).transpose(1, 0, 2)
    states[0] = model.mu0 + (sqrt_sigma0 @ z0[:, :, None])[:, :, 0]
    meas[0] = 0.0

    diverged = np.full(B, -1, dtype=int)
    alive = np.isfinite(states[0]).all(axis=1)
    diverged[~alive] = 0
    every = alive.all()
    Ht = model.H.T
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            xk = states[k]
            if time == "cont":
                xn = xk + np.asarray(model.f(xk), dtype=float) * dt + states[k + 1]
                yn = xk @ Ht * dt + meas[k + 1]
            else:
                xn = np.asarray(model.f(xk), dtype=float) + states[k + 1]
                yn = xn @ Ht + meas[k + 1]
            if every and np.isfinite(xn).all() and np.isfinite(yn).all():
                states[k + 1] = xn
                meas[k + 1] = yn
                continue
            ok = alive & np.isfinite(xn).all(axis=1) & np.isfinite(yn).all(axis=1)
            diverged[alive & ~ok] = k + 1
            alive = ok
            every = False
            states[k + 1] = np.where(ok[:, None], xn, np.nan)
            meas[k + 1] = np.where(ok[:, None], yn, 0.0)
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
    n = _steps_for(dt, horizon, "horizon")
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


# Terms of Weideman's rational approximation of the Faddeeva function.
_WEIDEMAN_N = 40
_SQRT_PI = math.sqrt(math.pi)


@cache
def _weideman_coefficients():
    """``(L, a)`` of :func:`_faddeeva`: the scale ``L`` and the ``_WEIDEMAN_N`` coefficients ``a``, lowest degree first."""
    n = _WEIDEMAN_N
    L = math.sqrt(n / math.sqrt(2.0))
    t = L * np.tan(np.arange(1 - 2 * n, 2 * n) * (math.pi / (4 * n)))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    return L, np.fft.fft(np.fft.fftshift(f)).real[1:n + 1] / (4 * n)


def _faddeeva(z):
    """The Faddeeva function ``w(z) = exp(-z^2) erfc(-i z)`` over a 1-D array ``z`` with ``Im z > 0``.

    Weideman's rational approximation ("Computation of the complex error
    function", SIAM J. Numer. Anal. 31, 1994) with 40 terms: within 1.3e-14
    relative of ``scipy.special.wofz``. The polynomial is summed per row of
    a Vandermonde matrix, so each value depends on its own argument alone.
    """
    L, a = _weideman_coefficients()
    u = 1.0 / (L - 1j * z)
    p = (np.vander((L + 1j * z) * u, len(a), increasing=True) * a).sum(axis=1)
    return u * (2.0 * p * u + 1.0 / _SQRT_PI)


def _rational_moments(m, s):
    """``(E[1/(i - Z)], E[1/(i - Z)^2])`` for ``Z ~ N(m, s^2)``, over 1-D arrays ``m`` and ``s >= 0``.

    Their real parts are ``-E[Z / (1 + Z^2)]`` and ``-E[(1 - Z^2) / (1 + Z^2)^2]``.
    With ``zeta = (i - m) / (s sqrt 2)``, the first is ``-i sqrt(pi/2) / s
    w(zeta)`` and the second its derivative in ``m``, through ``w'(zeta) =
    -2 zeta w(zeta) + 2i / sqrt(pi)``. That difference cancels as ``s``
    shrinks, so where ``s^2 <= 1e-3 |i - m|^2`` (``s = 0`` included) the
    moment series ``sum_k (2k-1)!! s^2k (i - m)^-(2k+1)`` takes over, with
    eight terms, and its derivative.
    """
    c = 1j - m
    far = s * s <= 1e-3 * (1.0 + m * m)
    first = np.empty(len(m), dtype=complex)
    second = np.empty(len(m), dtype=complex)
    near = ~far
    if near.any():
        sn = s[near]
        zeta = c[near] / (sn * math.sqrt(2.0))
        wz = _faddeeva(zeta)
        first[near] = (-1j * math.sqrt(math.pi / 2.0)) * wz / sn
        second[near] = (0.5j * _SQRT_PI) * (-2.0 * zeta * wz + 2j / _SQRT_PI) / (sn * sn)
    if far.any():
        cf = c[far]
        t = s[far] ** 2 / (cf * cf)
        term = np.ones_like(cf)
        series, slope = term, term
        for k in range(1, 8):
            term = term * ((2 * k - 1) * t)
            series = series + term
            slope = slope + (2 * k + 1) * term
        first[far] = series / cf
        second[far] = slope / (cf * cf)
    return first, second


_CONTRACTIVE3D_LINEAR = np.array([[-3.0, 0.0, -1.0], [-1.0, -1.0, -1.0], [-1.0, 0.0, -2.0]])


def _contractive3d_gaussian_drift(x, P):
    """Exact ``(E[f(X)], E[J_f(X)] P)`` of the contractive3d drift; see ``ContinuousModel.gaussian_drift``.

    The drift is linear but for ``-r(x3)``, ``r(z) = z / (1 + z^2)``, whose
    moments :func:`_rational_moments` gives, and ``h = x1^2 exp(-x1^2 -
    x3^2)``. For ``y = (x1, x3) ~ N(mu, C)`` and ``G = I + 2 C``,
    ``exp(-|y|^2)`` times the density of ``y`` is ``k`` times that of
    ``N(G^-1 mu, C G^-1)``, ``k = det(G)^-1/2 exp(-mu^T G^-1 mu)``; so the
    expectations of ``h`` and of its partial derivatives are ``k`` times
    moments of degree at most three under that law. No inverse of ``C`` is
    needed, so a singular ``P`` is fine. Every operation is elementwise over
    the batch, and ``E[J_f] P`` one batch-last product.
    """
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    c11, c13, c33 = P[0, 0], P[0, 2], P[2, 2]
    first, second = _rational_moments(x3, np.sqrt(c33))
    g11, g13, g33 = 1.0 + 2.0 * c11, 2.0 * c13, 1.0 + 2.0 * c33
    det = g11 * g33 - g13 * g13
    n1, n3 = (g33 * x1 - g13 * x3) / det, (g11 * x3 - g13 * x1) / det
    v11, v13 = (c11 * g33 - c13 * g13) / det, (c13 * g11 - c11 * g13) / det
    k = np.exp(-(x1 * n1 + x3 * n3)) / np.sqrt(det)
    mean = np.empty_like(x)
    mean[:, 0] = first.real - x3 - 3.0 * x1
    mean[:, 1] = -x1 - x2 - x3
    mean[:, 2] = k * (n1 * n1 + v11) - x1 - 2.0 * x3
    J = np.repeat(_CONTRACTIVE3D_LINEAR[:, :, None], len(x), axis=2)
    J[0, 2] += second.real
    J[2, 0] += 2.0 * k * (n1 - n1 * n1 * n1 - 3.0 * n1 * v11)
    J[2, 2] -= 2.0 * k * (n1 * n1 * n3 + v11 * n3 + 2.0 * v13 * n1)
    return mean, _matmul_last(J, P)


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
        gaussian_drift=_contractive3d_gaussian_drift,
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
# g' - 1 is odd, so the maximum mirrors the minimum about 1.
VELOCITY_G_PRIME_MAX = 2.0 - VELOCITY_G_PRIME_MIN


def _velocity_log_lipschitz(a1, a2):
    """Closed-form (M, N) of the integrated-velocity drift: its symmetric Jacobian's extreme eigenvalues over ``g'``."""
    lo, hi = VELOCITY_G_PRIME_MIN, VELOCITY_G_PRIME_MAX

    def eig(gp, which):
        half = 0.5 * (a1 - gp)
        rad = np.sqrt((0.5 * (a1 + gp)) ** 2 + 0.25 * a2**2)
        return half + rad if which == "max" else half - rad

    M = max(eig(lo, "max"), eig(hi, "max"))
    N = min(eig(lo, "min"), eig(hi, "min"))
    return float(M), float(N)


def builtin_integrated_velocity(a1=0.0, a2=1.0, q1=0.05, q2=0.05, h=1.0, r=0.05):
    """Two-dimensional partially observed model: measured position, hidden velocity.

    The first component integrates the second (plus optional feedback
    ``a1 x1``); the hidden component relaxes through the strictly increasing
    nonlinearity :func:`velocity_g`. Its slope bounds and the drift's
    closed-form ``M(f)``, ``N(f)`` are attached for certificate
    construction. Only ``h x1`` is measured.
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

    M_f, N_f = _velocity_log_lipschitz(a1, a2)
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
        known_M_f=M_f,
        known_N_f=N_f,
        name="integrated_velocity",
        params={"a1": a1, "a2": a2, "q1": q1, "q2": q2, "h": h, "r": r,
                "lg": VELOCITY_G_PRIME_MIN, "sup_gprime": VELOCITY_G_PRIME_MAX},
    )


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
