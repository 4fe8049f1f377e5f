"""Shared argument checking for the public API, and the one rule that
freezes the package's value types."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

#: Default tolerance for every gate in the package.  The membership test
#: (``automorphism._check``) and each orthogonal factor's gate
#: (``kernels._require_orthogonal``) compare a scaled residual with it;
#: ``spin.cone_classify`` and ``automorphism._verify`` state their own scaling.
DEFAULT_TOL = 1e-9


def as_vector(v, name: str = "v", min_len: int = 0) -> np.ndarray:
    """Return ``v`` as a finite 1-d float array, copying only if needed."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} must have at least {min_len} entries, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_square_matrix(M, name: str = "M", min_n: int = 1) -> np.ndarray:
    """Return ``M`` as a finite square 2-d float array."""
    arr = np.asarray(M, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < min_n:
        raise ValueError(
            f"{name} must be at least {min_n}x{min_n}, got {arr.shape[0]}x{arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_float(x) -> float:
    """Return ``float(x)``, or NaN when ``x`` does not convert, so that the
    callers' finiteness check rejects it with their own message."""
    try:
        return float(x)
    except (OverflowError, TypeError, ValueError):  # huge ints, None, non-numeric strings
        return math.nan


def as_positive_float(x, name: str = "x") -> float:
    """Return ``x`` as a finite float, requiring ``x > 0``."""
    val = as_float(x)
    if not math.isfinite(val) or val <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {x!r}")
    return val


def as_nonnegative_float(x, name: str = "x", finite_square: bool = False) -> float:
    """Return ``x`` as a finite float ``>= 0``, with a finite square if ``finite_square``."""
    val = as_float(x)
    if not math.isfinite(val) or val < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {x!r}")
    if finite_square and math.isinf(val * val):
        raise ValueError(
            f"{name} must be a finite non-negative number whose square is finite, got {x!r}"
        )
    return val


def as_index(x, name: str = "n", minimum: int = 0) -> int:
    """Return ``x`` as an int, requiring ``x >= minimum``."""
    try:
        val = int(x)
    except (OverflowError, ValueError):  # +-inf, NaN, non-numeric strings
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if val != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if val < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {val}")
    return val


def frozen(A) -> np.ndarray:
    """``A`` as a float array over an immutable ``bytes`` buffer, which no
    caller can make writeable again; an array already frozen is kept as is."""
    A = np.asarray(A, dtype=float)
    base = A
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes):
        return A
    return np.ndarray(A.shape, float, A.tobytes())


class FrozenValue:
    """Base of the package's immutable value types (frozen dataclasses).  Each
    constructor takes exactly the fields it stores, derives the rest, and
    freezes its array fields with ``frozen``.  Copies and pickles go through
    the constructor, so they are frozen too, and keep what was measured on
    the frozen fields (attributes that are not fields) as their state."""

    def __reduce__(self):
        names = {field.name for field in fields(self)}
        kept = {k: v for k, v in vars(self).items() if k not in names}
        args = tuple(getattr(self, field.name) for field in fields(self) if field.init)
        return type(self), args, kept or None

    def _set(self, **values) -> None:
        """Store validated field values on the frozen instance."""
        for name, value in values.items():
            object.__setattr__(self, name, value)
