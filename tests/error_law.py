"""The exact mean-square error of the discrete filter on a linear-Gaussian model, with no sampling.

Take ``X_k = A X_{k-1} + Q^{1/2} W_k``, ``Y_k = H X_k + R^{1/2} V_k`` and a
Gaussian start ``X_0 ~ N(mu0, Sigma0)``. The filter with any tuning
``(Q_tuned, P0, x0_hat)``, the model's or not, runs its gains off its own
tuned recursion,

    P_pred = A P A^T + Q_tuned,   K = P_pred H^T (H P_pred H^T + R)^{-1},   P = (I - K H) P_pred,

from ``P = P0``, so they do not depend on the data. Its error ``E_k = X_k -
x_k`` then obeys ``E_k = (I - K_k H)(A E_{k-1} + Q^{1/2} W_k) - K_k R^{1/2}
V_k`` and is Gaussian, ``N(m_k, Sigma_k)``, with

    m_k = (I - K_k H) A m_{k-1},
    Sigma_k = (I - K_k H)(A Sigma_{k-1} A^T + Q)(I - K_k H)^T + K_k R K_k^T,

from ``m_0 = mu0 - x0_hat`` and ``Sigma_0 = Sigma0``. So ``E||E_k||^2 =
||m_k||^2 + tr Sigma_k`` exactly; the recursion adds only roundoff. This
is the law of the filter in exact arithmetic: ``ekf`` computes the same
``P_pred``, and a degree-two exact rule computes it to roundoff.

Plain numpy, and nothing from the package, so that it can judge it.
"""

import numpy as np


def discrete_error_mse(A, Q, H, R, Sigma0, gap, Q_tuned, P0, steps):
    """``E||E_k||^2`` for ``k = 0 .. steps``, from the law above; ``gap`` is ``mu0 - x0_hat``."""
    eye = np.eye(len(A))
    m, Sigma, P = np.asarray(gap, dtype=float), np.asarray(Sigma0, dtype=float), np.asarray(P0, dtype=float)
    out = [m @ m + np.trace(Sigma)]
    for _ in range(steps):
        P_pred = A @ P @ A.T + Q_tuned
        # K^T solves the symmetric (H P_pred H^T + R) K^T = H P_pred
        K = np.linalg.solve(H @ P_pred @ H.T + R, H @ P_pred).T
        F = eye - K @ H
        P = F @ P_pred
        m = F @ (A @ m)
        Sigma = F @ (A @ Sigma @ A.T + Q) @ F.T + K @ R @ K.T
        out.append(m @ m + np.trace(Sigma))
    return np.array(out)
