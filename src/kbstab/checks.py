"""Checks of arguments and field outputs, one rule each for every layer that takes them."""

import math
import numbers

import numpy as np


def check_integer(name, value, low=None):
    """``value`` as an int; a bool, a non-integral number or one below ``low`` is a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


def is_finite_real(value):
    """Whether ``value`` is a finite real number (a bool is not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def check_finite(name, value):
    """``value`` as an array; a ``ValueError`` naming ``name`` unless each entry is a finite real (no bool)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return arr


def read_only(values):
    """A read-only float64 copy of ``values``, in the same memory order."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def check_field(name, values, shape):
    """``values`` as a float array; a ``ValueError`` naming the field ``name`` unless it has ``shape``."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape} where {shape} was expected (fields must be vectorized)")
    return values
