import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbstab
from kbstab import log_lipschitz_estimate, log_norm_mu, log_norm_nu, spectral_norm
from kbstab.matrix_measures import log_norm_range
from kbstab.models import builtin_contractive3d, velocity_g_prime


class TestLogNorms:
    def test_mu_identity(self):
        assert log_norm_mu(np.eye(2)) == pytest.approx(1.0)

    def test_mu_negative_identity(self):
        assert log_norm_mu(-np.eye(3)) == pytest.approx(-1.0)

    def test_mu_nilpotent(self):
        # independent oracle: eigenvalues of the symmetrized matrix
        expected = np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]]))[-1]
        assert log_norm_mu([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(expected)
        assert expected == pytest.approx(1.0)

    def test_nu_identity(self):
        assert log_norm_nu(np.eye(2)) == pytest.approx(1.0)

    def test_nu_diag(self):
        assert log_norm_nu(np.diag([1.0, 3.0])) == pytest.approx(1.0)

    def test_nu_nilpotent(self):
        expected = np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]]))[0]
        assert log_norm_nu([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(expected)

    def test_nu_is_negated_mu(self, rng):
        A = rng.standard_normal((200, 5, 5))
        assert np.allclose(log_norm_nu(A), -log_norm_mu(-A), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            log_norm_mu([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            log_norm_nu([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            log_norm_mu(np.ones((2, 3)))

    def test_range_reads_both_ends_of_one_spectrum(self, rng, monkeypatch):
        A = rng.standard_normal((300, 4, 4))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
        nu, mu = log_norm_range(A)
        assert calls == [A.shape]
        assert np.array_equal(nu, log_norm_nu(A)) and np.array_equal(mu, log_norm_mu(A))
        assert log_norm_range(np.diag([1.0, 3.0])) == (1.0, 3.0)


class TestInequalities:
    """Bulk randomized identities behind the stability arguments."""

    def test_subadditivity(self, rng):
        A = rng.standard_normal((10000, 4, 4))
        B = rng.standard_normal((10000, 4, 4))
        assert np.all(log_norm_mu(A + B) <= log_norm_mu(A) + log_norm_mu(B) + 1e-9)
        assert np.all(log_norm_nu(A + B) >= log_norm_nu(A) + log_norm_nu(B) - 1e-9)

    def test_quadratic_form_sandwich(self, rng):
        A = rng.standard_normal((10000, 4, 4))
        x = rng.standard_normal((10000, 4))
        quad = np.einsum("bi,bij,bj->b", x, A, x)
        nrm2 = np.einsum("bi,bi->b", x, x)
        assert np.all(quad <= log_norm_mu(A) * nrm2 + 1e-8 * np.maximum(1, nrm2))
        assert np.all(quad >= log_norm_nu(A) * nrm2 - 1e-8 * np.maximum(1, nrm2))

    def test_trace_inequality(self, rng):
        A = rng.standard_normal((10000, 4, 4))
        G = rng.standard_normal((10000, 4, 4))
        B = G @ np.swapaxes(G, 1, 2)
        trB = np.einsum("bii->b", B)
        trAB = np.einsum("bij,bji->b", A, B)
        hi = log_norm_mu(A) * trB
        lo = log_norm_nu(A) * trB
        slack = 1e-7 * np.maximum(1.0, np.maximum(np.abs(hi), np.abs(lo)))
        assert np.all(trAB <= hi + slack)
        assert np.all(trAB >= lo - slack)

    def test_mu_below_spectral_norm(self, rng):
        A = rng.standard_normal((5000, 4, 4))
        assert np.all(log_norm_mu(A) <= spectral_norm(A) + 1e-9)


class TestLogLipschitzEstimate:
    def test_linear_field_is_exact(self):
        A = np.array([[-1.0, 2.0], [0.5, -3.0]])

        def jac(x):
            return np.broadcast_to(A, x.shape[:-1] + (2, 2))

        est = log_lipschitz_estimate(jac, [[-1, 1], [-1, 1]], budget=64)
        assert est.m_hat == pytest.approx(log_norm_mu(A), abs=1e-12)
        assert est.n_hat == pytest.approx(log_norm_nu(A), abs=1e-12)

    def test_contractive3d_constants(self):
        model = builtin_contractive3d()
        est = log_lipschitz_estimate(model.jac_f, [[-6, 6]] * 3, budget=4096)
        assert est.m_hat == pytest.approx(-0.5947, abs=0.02)
        assert est.n_hat == pytest.approx(-4.5046, abs=0.02)

    def test_velocity_slope_extremes(self):
        def jac(x):
            return velocity_g_prime(x[..., 0])[..., None, None]

        est = log_lipschitz_estimate(jac, [[-20, 20]], budget=4096)
        assert est.m_hat == pytest.approx(1.581, abs=0.01)
        assert est.n_hat == pytest.approx(0.419, abs=0.01)

    def test_refinement_monotone_in_budget(self):
        model = builtin_contractive3d()
        small = log_lipschitz_estimate(model.jac_f, [[-6, 6]] * 3, budget=256)
        large = log_lipschitz_estimate(model.jac_f, [[-6, 6]] * 3, budget=4096)
        assert large.m_hat >= small.m_hat - 1e-9
        assert large.n_hat <= small.n_hat + 1e-9
        assert small.n_hat <= small.m_hat

    def test_empty_box_rejected(self):
        model = builtin_contractive3d()
        with pytest.raises(ValueError):
            log_lipschitz_estimate(model.jac_f, [[1, 1], [0, 1], [0, 1]], budget=16)

    def test_nonfinite_jacobian_rejected(self):
        def jac(x):
            J = np.zeros(x.shape[:-1] + (1, 1))
            with np.errstate(divide="ignore"):
                J[..., 0, 0] = 1.0 / x[..., 0]
            return J

        with pytest.raises(Exception):
            log_lipschitz_estimate(jac, [[-1, 1]], budget=16)


def test_import_loads_no_scipy():
    # scipy.stats costs about a second to import and scipy.special 0.2 s;
    # only log_lipschitz_estimate needs scipy, for its quasi-random points
    # (no certificate calls it, and the Faddeeva function of contractive3d's
    # closed form is computed in numpy), so importing the package must not
    # load it
    src = str(Path(kbstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, kbstab, kbstab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
