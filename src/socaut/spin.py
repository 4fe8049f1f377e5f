"""The spin algebra on R^n and its cone of squares, the second-order cone.

Vectors are split into a scalar head and a tail, ``x = (x0, xbar)`` with
``xbar`` in R^(n-1).  The bilinear product

    x * y = (<x, y>, x0 * ybar + y0 * xbar)

is commutative, has unit ``e = (1, 0, ..., 0)``, and its cone of squares is
the second-order cone ``{x : ||xbar|| <= x0}``.  The indefinite form behind
the cone is carried by the signature matrix ``J = diag(1, -1, ..., -1)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._validate import DEFAULT_TOL, as_float, as_index, as_nonnegative_float, as_vector

__all__ = [
    "ConeRegion",
    "SpinVector",
    "jordan_product",
    "unit",
    "cone_classify",
    "signature_matrix",
]


class ConeRegion(enum.Enum):
    """Location of a point relative to the second-order cone."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True, eq=False)
class SpinVector:
    """Element of the spin algebra: scalar head ``x0`` plus tail ``xbar``.

    The ambient dimension ``n = 1 + len(xbar)`` must be at least 2.
    Instances are immutable; the tail is copied and write-protected on
    construction.
    """

    x0: float
    xbar: np.ndarray

    def __post_init__(self) -> None:
        x0 = as_float(self.x0)
        if not math.isfinite(x0):
            raise ValueError("x0 must be finite")
        xbar = as_vector(self.xbar, "xbar", min_len=1).copy()
        xbar.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xbar", xbar)

    @property
    def n(self) -> int:
        """Ambient dimension ``1 + len(xbar)``."""
        return 1 + self.xbar.size

    def to_array(self) -> np.ndarray:
        """Return the flat coordinate vector ``[x0, xbar...]``."""
        return np.concatenate(([self.x0], self.xbar))

    @classmethod
    def from_array(cls, arr) -> "SpinVector":
        """Build a SpinVector from a flat coordinate vector of length >= 2."""
        arr = as_vector(arr, "arr", min_len=2)
        return cls(float(arr[0]), arr[1:])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpinVector(x0={self.x0!r}, xbar={self.xbar!r})"


def jordan_product(x: SpinVector, y: SpinVector) -> SpinVector:
    """Product of the spin algebra: ``(<x, y>, x0*ybar + y0*xbar)``.

    Raises ValueError when the two operands have different dimension.
    """
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    head = x.x0 * y.x0 + float(x.xbar @ y.xbar)
    tail = x.x0 * y.xbar + y.x0 * x.xbar
    return SpinVector(head, tail)


def unit(n: int) -> SpinVector:
    """Multiplicative unit ``e = (1, 0, ..., 0)`` in dimension ``n >= 2``."""
    n = as_index(n, "n", minimum=2)
    return SpinVector(1.0, np.zeros(n - 1))


def cone_classify(x: SpinVector, tol: float = DEFAULT_TOL) -> ConeRegion:
    """Classify ``x`` against the second-order cone with a scaled margin.

    With slack ``s = x0 - ||xbar||`` and scale ``m = max(1, ||x||)``:
    interior when ``s > tol*m``, boundary when ``|s| <= tol*m``, outside
    otherwise.
    """
    tol = as_nonnegative_float(tol, "tol")
    tail_norm = float(np.linalg.norm(x.xbar))
    slack = x.x0 - tail_norm
    scale = max(1.0, float(np.hypot(x.x0, tail_norm)))
    if slack > tol * scale:
        return ConeRegion.INTERIOR
    if abs(slack) <= tol * scale:
        return ConeRegion.BOUNDARY
    return ConeRegion.OUTSIDE


def signature_matrix(n: int) -> np.ndarray:
    """Return ``J = diag(1, -1, ..., -1)`` of size ``n >= 2``."""
    n = as_index(n, "n", minimum=2)
    d = -np.ones(n)
    d[0] = 1.0
    return np.diag(d)
