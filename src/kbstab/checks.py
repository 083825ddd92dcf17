"""Checks of arguments and field outputs, one rule each for every layer that takes them.

Every number, size, array shape and matrix the API takes goes through one
of the rules here, so a bad one raises ``ValueError("<name> must ...")``
naming its argument: a number that is no finite real (NaN, an infinity, a
bool, text, ``None``) reads ``<name> must be a finite number, got ...``, an
integer that is none ``<name> must be an integer, got ...``, a value out of
range ``<name> must be at least ...`` or ``greater than ...``, and an array
of another shape ``<name> must have shape ..., got ...``.
"""

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


def check_number(name, value, low=None, strict=False):
    """``value`` as a float; a ``ValueError`` naming ``name`` unless it is one finite real at least ``low``.

    A bool, an array, text and ``None`` are no number. With ``strict`` the
    value must lie above ``low``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if low is not None and (value <= low if strict else value < low):
        raise ValueError(f"{name} must be {'greater than' if strict else 'at least'} {low}, got {value!r}")
    return float(value)


def check_finite(name, value):
    """``value`` as an array, not copied; a ``ValueError`` naming ``name`` unless each entry is a finite real (no bool)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return arr


def check_square(name, value):
    """``value`` as a float array, a float64 one not copied: a square matrix or a stack, entries as :func:`check_finite` allows."""
    arr = np.asarray(check_finite(name, value), dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {arr.shape}")
    return arr


def check_shape(name, value, shape):
    """``value`` as an array, not copied; a ``ValueError`` naming ``name`` unless it has ``shape``, where ``None`` matches any length."""
    arr = np.asarray(value)
    if arr.shape != shape and (arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        want = ", ".join("any" if n is None else str(n) for n in shape)
        raise ValueError(f"{name} must have shape ({want}{',' * (len(shape) == 1)}), got {arr.shape}")
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
