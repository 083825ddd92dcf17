"""The simulators against a reference: per-path streams and the out-of-place Euler loop.

The reference draws every path from its own fresh generators (the stream
contract of :mod:`kbstab.models`), transforms each path's noise on its own,
and steps the batch out of place: each step builds its new rows apart and
then stores them, with dead paths masked through ``np.where``. The
simulators write their record in place through raw-row views; the two must
agree bit for bit in both time models, for every state and measurement size
up to 4 and for batch sizes that leave chunk remainders (chunks hold
``max(1, B // 64)`` paths), and on paths that overflow in the state or in
the measurement alone.
"""

import math

import numpy as np
import pytest

from kbstab import ContinuousModel, DiscreteModel, simulate_discrete_paths, simulate_paths
from kbstab.models import philox
from kbstab.quadrature import matrix_sqrt

DT = 0.1


def reference(model, n, dt, seed, B, first_path=0):
    """``(states, meas, diverged)`` of ``B`` paths, drawn path by path and stepped out of place."""
    cont = model.time == "cont"
    dx, dy = model.dim_x, model.dim_y
    scale = math.sqrt(dt) if cont else 1.0
    sqrt_s0, sqrt_q, sqrt_r = matrix_sqrt(model.Sigma0), matrix_sqrt(model.Q), matrix_sqrt(model.R)
    states, meas, z0 = np.empty((n + 1, B, dx)), np.empty((n + 1, B, dy)), np.empty((B, dx))
    for p in range(B):
        g_init, g_state, g_meas = (philox(seed, 4 * (first_path + p) + role) for role in range(3))
        z0[p] = g_init.standard_normal(dx)
        states[1:, p] = (scale * g_state.standard_normal((n, dx))) @ sqrt_q
        meas[1:, p] = (scale * g_meas.standard_normal((n, dy))) @ sqrt_r
    states[0] = model.mu0 + (sqrt_s0 @ z0[:, :, None])[:, :, 0]
    meas[0] = 0.0
    alive = np.isfinite(states[0]).all(axis=1)
    diverged = np.where(alive, -1, 0)
    Ht = model.H.T
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            xk = states[k]
            if cont:
                xn = xk + np.asarray(model.f(xk), dtype=float) * dt + states[k + 1]
                yn = xk @ Ht * dt + meas[k + 1]
            else:
                xn = np.asarray(model.f(xk), dtype=float) + states[k + 1]
                yn = xn @ Ht + meas[k + 1]
            ok = alive & np.isfinite(xn).all(axis=1) & np.isfinite(yn).all(axis=1)
            diverged[alive & ~ok] = k + 1
            alive = ok
            states[k + 1] = np.where(ok[:, None], xn, np.nan)
            meas[k + 1] = np.where(ok[:, None], yn, 0.0)
    return states.transpose(1, 0, 2), meas.transpose(1, 0, 2), diverged


def simulate(model, n, seed, B, first_path=0):
    if model.time == "cont":
        _, states, meas, diverged = simulate_paths(model, DT, n * DT, seed, B, first_path=first_path)
    else:
        _, states, meas, diverged = simulate_discrete_paths(model, n, seed, B, first_path=first_path)
    return states, meas, diverged


def assert_same_bits(got, want):
    assert got.shape == want.shape
    # the bits, so NaN rows, zero signs and every rounding must agree
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_matches_reference(model, n, seed, B, first_path=0):
    states, meas, diverged = simulate(model, n, seed, B, first_path)
    ref_states, ref_meas, ref_diverged = reference(model, n, 1.0 if model.time == "disc" else DT, seed, B,
                                                  first_path)
    assert_same_bits(states, ref_states)
    assert_same_bits(meas, ref_meas)
    assert np.array_equal(diverged, ref_diverged)
    return diverged


def spd(rng, d, floor):
    G = rng.standard_normal((d, d))
    M = G @ G.T / d + floor * np.eye(d)
    return 0.5 * (M + M.T)


def random_model(time, dx, dy, f=None, H_scale=1.0, Q_scale=1.0, Sigma0=None, seed=0):
    """A model of sizes ``dx``, ``dy`` with full noise roots and a nonlinear drift (``f`` overrides it).

    ``H`` is ``H_scale`` times a matrix whose largest entry is 1 in size.
    """
    rng = np.random.default_rng([seed, dx, dy])
    H = rng.standard_normal((dy, dx))
    A = 0.3 * rng.standard_normal((dx, dx)) - (1.0 if time == "cont" else 0.2) * np.eye(dx)
    if f is None:
        def f(x):
            return x @ A.T + 0.4 * np.sin(x)
    cls = ContinuousModel if time == "cont" else DiscreteModel
    return cls(f=f, jac_f=lambda x: np.broadcast_to(A, x.shape + (dx,)).copy(),
               Q=Q_scale * spd(rng, dx, 0.05), H=H / np.abs(H).max() * H_scale, R=spd(rng, dy, 0.1),
               mu0=rng.standard_normal(dx), Sigma0=spd(rng, dx, 0.0) if Sigma0 is None else Sigma0)


@pytest.mark.parametrize("B", [1, 7, 64, 130, 1000])
@pytest.mark.parametrize("dy", [1, 2, 3, 4])
@pytest.mark.parametrize("dx", [1, 2, 3, 4])
@pytest.mark.parametrize("time", ["cont", "disc"])
def test_record_matches_the_out_of_place_loop(time, dx, dy, B):
    diverged = assert_matches_reference(random_model(time, dx, dy), n=5, seed=11, B=B, first_path=dx + dy)
    assert np.all(diverged == -1)


def cubic(x):
    return x - x**3


def square(x):
    return x * x


@pytest.mark.parametrize("dx, dy", [(1, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("B", [7, 130])
@pytest.mark.parametrize("time", ["cont", "disc"])
def test_state_overflow_freezes_the_same_paths(time, dx, dy, B):
    # wide initial states and little noise: x - x^3 under steps of 0.1, or x^2, overflows
    # on the paths started far out, each at its own step
    model = random_model(time, dx, dy, f=cubic if time == "cont" else square, Q_scale=1e-4,
                         Sigma0=(25.0 if time == "cont" else 1.0) * np.eye(dx))
    diverged = assert_matches_reference(model, n=20, seed=3, B=B)
    assert len(set(diverged[diverged > 0].tolist())) >= 2
    assert np.any(diverged == -1)


@pytest.mark.parametrize("dx, dy", [(1, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("B", [7, 130])
@pytest.mark.parametrize("time", ["cont", "disc"])
def test_measurement_overflow_freezes_the_same_paths(time, dx, dy, B):
    # H near the largest double: H x overflows once |x| passes a few units, while the states,
    # which H does not touch, stay finite
    H_scale = 8e307 if time == "cont" else 6e307
    diverged = assert_matches_reference(random_model(time, dx, dy, H_scale=H_scale, seed=5), n=12, seed=9, B=B)
    assert np.any(diverged > 0) and np.any(diverged == -1)
    states, _, _ = simulate(random_model(time, dx, dy, seed=5), n=12, seed=9, B=B)
    assert np.isfinite(states).all()
