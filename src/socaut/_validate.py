"""Shared argument checking for the public API."""

from __future__ import annotations

import numpy as np

#: Default tolerance for every gate in the package.  Only some gates scale
#: it: the congruence residual and the cone-classification slack pass when
#: r <= tol * max(1, scale); the congruence scale mu must exceed tol (an
#: absolute gate); an m x m orthogonal factor passes when its residual
#: ||M^T M - I||_F <= tol * m.
DEFAULT_TOL = 1e-9


def as_vector(v, name: str = "v", min_len: int = 0) -> np.ndarray:
    """Return ``v`` as a finite 1-d float array, copying only if needed."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_len:
        raise ValueError(f"{name} must have at least {min_len} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_positive_float(x, name: str = "x") -> float:
    """Return ``x`` as a finite float, requiring ``x > 0``."""
    val = float(x)
    if not np.isfinite(val) or val <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {x!r}")
    return val


def as_nonnegative_float(x, name: str = "x") -> float:
    """Return ``x`` as a finite float, requiring ``x >= 0``."""
    val = float(x)
    if not np.isfinite(val) or val < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {x!r}")
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
