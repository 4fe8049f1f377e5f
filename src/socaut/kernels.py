"""Dense matrix kernels used by the factorization routines.

Everything here is closed-form or a thin, documented wrapper over numpy:
rank-one-update square roots ``sqrt(I + c c^T)``, Householder reflectors
aligned with a direction, an orthogonality residual and the one gate built
on it (``residual <= tol * m``), Haar-distributed orthogonal samples, and
the hyperbolic boost block.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._validate import as_index, as_nonnegative_float, as_vector

__all__ = [
    "RankOneSqrt",
    "sqrt_rank_one",
    "inv_sqrt_rank_one",
    "householder_to_direction",
    "orthogonality_residual",
    "sample_haar_orthogonal",
    "boost_matrix",
]

#: Below this distance between c/||c|| and e1, the reflector degenerates and
#: the identity is returned instead.
PARALLEL_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class RankOneSqrt:
    """Closed form of ``sqrt(I + c c^T)`` as ``I + beta c c^T``.

    Attributes
    ----------
    c : ndarray
        The update vector, copied and write-protected.
    a : float
        ``sqrt(1 + ||c||^2)``, the largest eigenvalue of the square root.
    beta : float
        ``(a - 1) / ||c||^2``, evaluated in the cancellation-free form
        ``1 / (a + 1)``; exactly ``0.0`` when ``c = 0``.
    """

    c: np.ndarray
    a: float
    beta: float

    @classmethod
    def from_vector(cls, c) -> "RankOneSqrt":
        """Build the square-root representation for a given ``c``."""
        c = as_vector(c, "c", min_len=1).copy()
        c.flags.writeable = False
        s = float(c @ c)
        a = math.sqrt(1.0 + s)
        beta = 0.0 if s == 0.0 else 1.0 / (a + 1.0)
        return cls(c=c, a=a, beta=beta)

    @property
    def gamma(self) -> float:
        """Coefficient of the inverse: ``P^{-1} = I + gamma c c^T``.

        From ``(I + beta cc^T)(I + gamma cc^T) = I`` and
        ``1 + beta ||c||^2 = a`` one gets ``gamma = -beta / a``.
        """
        return -self.beta / self.a

    def matrix(self) -> np.ndarray:
        """Materialize ``P = I + beta c c^T``."""
        P = np.eye(self.c.size)
        P += self.beta * np.outer(self.c, self.c)
        return P

    def inverse_matrix(self) -> np.ndarray:
        """Materialize ``P^{-1} = I + gamma c c^T``."""
        Q = np.eye(self.c.size)
        Q += self.gamma * np.outer(self.c, self.c)
        return Q


def sqrt_rank_one(c) -> np.ndarray:
    """Return ``sqrt(I + c c^T)`` as a dense matrix.

    The result is ``I + beta c c^T`` with ``beta = 1/(sqrt(1+||c||^2)+1)``,
    exact to rounding for every magnitude of ``||c||`` (no subtraction of
    nearby quantities is involved).
    """
    return RankOneSqrt.from_vector(c).matrix()


def inv_sqrt_rank_one(c) -> np.ndarray:
    """Return ``sqrt(I + c c^T)^{-1}`` as a dense matrix."""
    return RankOneSqrt.from_vector(c).inverse_matrix()


def householder_to_direction(c) -> np.ndarray:
    """Orthogonal (reflector) ``V`` with ``V e1 = c / ||c||``.

    For ``c = 0``, or when ``c/||c||`` is within ``PARALLEL_TOL`` of ``e1``,
    returns the identity.  No sign flip is applied, so ``c = ||c|| * V e1``
    holds with a non-negative coefficient.
    """
    c = as_vector(c, "c", min_len=1)
    m = c.size
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        return np.eye(m)
    w = c / norm
    u0 = float(w[0])
    # w = u - e1.  For u0 > 0 the head u0 - 1 cancels; use the equal
    # -||u[1:]||^2 / (1 + u0), exact to rounding even when u is near e1.
    w[0] = -float(w[1:] @ w[1:]) / (1.0 + u0) if u0 > 0.0 else u0 - 1.0
    wnorm2 = float(w @ w)
    if math.sqrt(wnorm2) <= PARALLEL_TOL:
        return np.eye(m)
    V = np.eye(m)
    V -= (2.0 / wnorm2) * np.outer(w, w)
    return V


def orthogonality_residual(M) -> float:
    """Frobenius norm of ``M^T M - I`` (raw, unscaled)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square matrix, got shape {M.shape}")
    G = M.T @ M
    G[np.diag_indices(M.shape[0])] -= 1.0
    return float(np.linalg.norm(G))


def _require_orthogonal(
    M: np.ndarray, name: str, tol: float, error: Callable[[str], Exception] = ValueError
) -> None:
    """Raise ``error(message)`` unless ``orthogonality_residual(M) <= tol * m``."""
    res = orthogonality_residual(M)
    bound = tol * M.shape[0]
    if res > bound:
        raise error(
            f"{name} is not orthogonal within tolerance: residual {res:.3e} "
            f"> {bound:.3e}"
        )


def haar_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw an ``m x m`` Haar-distributed orthogonal matrix from ``rng``.

    Standard-normal fill, QR factorization, then column signs fixed so the
    R factor has a positive diagonal, which makes the Q factor Haar.
    """
    m = as_index(m, "m", minimum=1)
    G = rng.standard_normal((m, m))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R))
    d[d == 0.0] = 1.0
    return Q * d[np.newaxis, :]


def sample_haar_orthogonal(m: int, seed: int = 0) -> np.ndarray:
    """Deterministic Haar orthogonal sample for a given ``seed``.

    Uses ``np.random.default_rng(seed)`` (PCG64); identical seeds give
    bit-identical matrices on a fixed numpy/BLAS build.
    """
    seed = as_index(seed, "seed", minimum=0)
    return haar_orthogonal(np.random.default_rng(seed), m)


def boost_matrix(alpha: float, n: int) -> np.ndarray:
    """Hyperbolic boost of strength ``alpha >= 0`` in dimension ``n >= 2``.

    The top-left 2x2 block is ``[[sqrt(1+alpha^2), alpha], [alpha,
    sqrt(1+alpha^2)]]`` and the rest is the identity.  The boost satisfies
    ``T^T J T = J`` exactly in real arithmetic.
    """
    alpha = as_nonnegative_float(alpha, "alpha")
    n = as_index(n, "n", minimum=2)
    T = np.eye(n)
    h = math.sqrt(1.0 + alpha * alpha)
    T[0, 0] = h
    T[0, 1] = alpha
    T[1, 0] = alpha
    T[1, 1] = h
    return T
