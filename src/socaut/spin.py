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

from ._validate import (
    DEFAULT_TOL,
    FrozenValue,
    as_float,
    as_index,
    as_nonnegative_float,
    as_vector,
    frozen,
)
from .kernels import _norm

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
class SpinVector(FrozenValue):
    """Element of the spin algebra: scalar head ``x0`` plus tail ``xbar``.

    The ambient dimension ``n = 1 + len(xbar)`` must be at least 2.
    Instances are immutable; the tail is frozen on construction.
    """

    x0: float
    xbar: np.ndarray

    def __post_init__(self) -> None:
        x0 = as_float(self.x0)
        if not math.isfinite(x0):
            raise ValueError("x0 must be finite")
        self._set(x0=x0, xbar=frozen(as_vector(self.xbar, "xbar", min_len=1)))

    @property
    def n(self) -> int:
        """Ambient dimension ``1 + len(xbar)``."""
        return 1 + self.xbar.size

    def to_array(self) -> np.ndarray:
        """Return the flat coordinate vector ``[x0, xbar...]``."""
        return np.concatenate(([self.x0], self.xbar))

    @classmethod
    def from_array(cls, arr) -> "SpinVector":
        """Build a SpinVector from a flat coordinate vector of length >= 2,
        checked once: its head and tail are not checked again."""
        arr = as_vector(arr, "arr", min_len=2)
        x = object.__new__(cls)
        x._set(x0=float(arr[0]), xbar=frozen(arr[1:]))
        return x


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

    With slack ``s = x0 - ||xbar||``: interior when ``s > tol*||x||``,
    boundary when ``|s| <= tol*||x||``, outside otherwise; the margin has
    no absolute term.  Both sides are compared on ``x / 2^e``, with ``2^e``
    the power of two just above ``max|x_i|``: no square in ``||xbar||^2``
    then overflows, and the largest does not underflow.  The scaling is
    exact, so the verdict is the unscaled one wherever ``||xbar||^2`` is
    representable, and scaling x by a power of two does not change it.
    """
    tol = as_nonnegative_float(tol, "tol")
    e = math.frexp(max(abs(x.x0), float(np.abs(x.xbar).max())))[1]
    x0 = math.ldexp(x.x0, -e)
    tail_norm = _norm(np.ldexp(x.xbar, -e))
    slack = x0 - tail_norm
    scale = float(np.hypot(x0, tail_norm))
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
