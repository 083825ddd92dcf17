"""Shared fixtures. The benchmark Monte Carlo runs are expensive, so they are
session-scoped and reused by every test that needs them."""

import math

import numpy as np
import pytest
from hypothesis import settings

from kbstab import DiscreteModel, export_result, preset_spec, run_experiment

# Every property test draws the same examples on every run.
settings.register_profile("kbstab", derandomize=True, deadline=None)
settings.load_profile("kbstab")


@pytest.fixture(scope="session")
def fig1_result():
    return run_experiment(preset_spec("fig1", workers=1))


@pytest.fixture(scope="session")
def fig1_export(fig1_result, tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1_w1")
    export_result(fig1_result, out)
    return out


@pytest.fixture(scope="session")
def fig2_result():
    return run_experiment(preset_spec("fig2", workers=1))


@pytest.fixture(scope="session")
def discrete_sine():
    """Builds the fully observed 2-d recursion ``f(x) = 0.5 x + 0.2 sin x``.

    ``H = I``, ``R = 0.5 I``, ``Q = 0.1 I``, ``Sigma0 = I``; the Jacobian is
    diagonal with entries in ``[0.3, 0.7]``, so ``||J_f|| <= 0.7``.
    """
    def build():
        def f(x):
            return 0.5 * x + 0.2 * np.sin(x)

        def jac(x):
            return (0.5 + 0.2 * np.cos(x))[..., :, None] * np.eye(2)

        return DiscreteModel(dim_x=2, dim_y=2, f=f, jac_f=jac, Q=0.1 * np.eye(2), H=np.eye(2),
                             R=0.5 * np.eye(2), mu0=np.zeros(2), Sigma0=np.eye(2),
                             known_jf_norm=0.7, name="discrete_sine")

    return build


@pytest.fixture
def rng():
    # fresh generator per test: draws never depend on test ordering
    return np.random.default_rng(20240817)


@pytest.fixture
def velocity_corner_rate():
    """Closed-form rate of the integrated-velocity certificate at its worst corner.

    The largest eigenvalue of a symmetric ``[[A, B], [B, C]]`` grows with
    ``A``, with ``C`` and with ``|B|``, so when ``s C12 <= 2 a2`` the
    supremum of ``mu(J - P S)`` over the certificate's box sits at
    ``P11 = p11_lo``, ``P12 = 0``, ``g' = lg`` (see
    ``integrated_velocity_certificate``). Computed here from the model's
    parameters alone, so both tests of the rate check one formula.
    """
    def rate(params):
        s = params["h"] ** 2 / params["r"]
        sigma = math.sqrt(s * params["q1"] + params["a1"] ** 2)
        lg = params["lg"]
        return 0.5 * (sigma + lg) - math.sqrt((0.5 * (sigma - lg)) ** 2 + 0.25 * params["a2"] ** 2)

    return rate
