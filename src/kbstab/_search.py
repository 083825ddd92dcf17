"""Deterministic coordinate pattern search used for bound sharpening."""

import numpy as np


def pattern_search(objective, x0, lo, hi):
    """Maximize ``objective`` over the box [lo, hi] by coordinate moves.

    Starts from ``x0`` with a per-coordinate step of an eighth of the box's
    width, which halves whenever no axis move improves the value, for at
    most 50 rounds. Fully deterministic; ``objective`` must accept a 1-d
    point and return a scalar.

    Returns ``(best_value, best_point)``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float).copy(), lo, hi)
    width = hi - lo
    step = width / 8.0
    best = float(objective(x))
    for _ in range(50):
        improved = False
        for k in range(x.size):
            if width[k] == 0.0:
                continue
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[k] = min(max(trial[k] + sign * step[k], lo[k]), hi[k])
                if trial[k] == x[k]:
                    continue
                value = float(objective(trial))
                if value > best:
                    best, x, improved = value, trial, True
        if not improved:
            step = step / 2.0
            if np.all(step < 1e-14 * np.maximum(width, 1.0)):
                break
    return best, x
