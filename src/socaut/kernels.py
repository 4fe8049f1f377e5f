"""Dense matrix kernels used by the factorization routines.

Everything here is closed-form or a thin, documented wrapper over numpy:
rank-one-update square roots ``sqrt(I + c c^T)``, Householder reflectors
aligned with a direction, an orthogonality residual and the one gate built
on it (``residual / m <= tol``), Haar-distributed orthogonal samples, and
the hyperbolic boost block.  The Haar sampler draws Householder vectors
directly (Stewart's method), so it runs no QR.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._validate import FrozenValue, as_index, as_nonnegative_float, as_vector, frozen

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

#: Reflectors per compact-WY block in ``haar_orthogonal``.  At m = 999 on a
#: 2-vCPU host (OpenBLAS), blocks of 64, 96, 128 and 192 draw in medians of
#: about 48, 44, 40 and 40 ms; the mean ||Q^T Q - I||_F at m = 300 is 1.33,
#: 1.45, 1.53 and 1.68 times LAPACK QR's.  128 is the narrowest at the plateau.
_HAAR_BLOCK = 128

#: Widest diagonal block that ``_invert_upper`` hands to ``np.linalg.inv``.
_INVERSE_LEAF = 16


@dataclass(frozen=True, eq=False)
class RankOneSqrt(FrozenValue):
    """Closed form of ``sqrt(I + c c^T)`` as ``I + beta c c^T``, built from c.

    Attributes
    ----------
    c : ndarray
        The update vector, validated once and frozen on construction.
        Raises ValueError when ``1 + ||c||^2`` overflows; every composition
        builds one.
    a : float
        ``sqrt(1 + ||c||^2)``, the largest eigenvalue of the square root.
    beta : float
        ``(a - 1) / ||c||^2``, evaluated in the cancellation-free form
        ``1 / (a + 1)``; exactly ``0.0`` when ``c = 0``.
    """

    c: np.ndarray
    a: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self) -> None:
        c = as_vector(self.c, "c", min_len=1)
        a, beta = _finite_sqrt_coefficients(c)
        self._set(c=frozen(c), a=a, beta=beta)

    @classmethod
    def from_vector(cls, c) -> "RankOneSqrt":
        """``RankOneSqrt(c)``."""
        return cls(c)

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
        P += self.beta * np.multiply.outer(self.c, self.c)
        return P

    def inverse_matrix(self) -> np.ndarray:
        """Materialize ``P^{-1} = I + gamma c c^T``."""
        Q = np.eye(self.c.size)
        Q += self.gamma * np.multiply.outer(self.c, self.c)
        return Q


def _sqrt_coefficients(c: np.ndarray) -> tuple[float, float]:
    """``(a, beta)`` of ``sqrt(I + c c^T) = I + beta c c^T`` for a finite c,
    unvalidated; ``a`` is inf when ``||c||^2`` overflows, which warns unless
    the caller ignores overflow."""
    s = float(c @ c)
    a = math.sqrt(1.0 + s)
    return a, 0.0 if s == 0.0 else 1.0 / (a + 1.0)


def _finite_sqrt_coefficients(c: np.ndarray) -> tuple[float, float]:
    """``_sqrt_coefficients(c)``, raising ValueError, without a warning, when
    ``1 + ||c||^2`` overflows."""
    with np.errstate(over="ignore"):
        a, beta = _sqrt_coefficients(c)
    if math.isinf(a):
        raise ValueError("c must have a finite squared norm, got ||c||^2 = inf")
    return a, beta


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` of a float array, bit for bit and with the
    same overflow warning: the same arithmetic without its Python dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


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
    top = float(np.abs(c).max())
    if top == 0.0:
        return np.eye(m)
    # Scaled by the power of two nearest 1 / max|c| first, so ||c|| neither
    # overflows nor underflows; the scaling is exact, so w gets the bits it had
    # unscaled wherever ||c||^2 is representable.
    w = np.ldexp(c, -math.frexp(top)[1])
    w /= _norm(w)
    u0 = float(w[0])
    # w = u - e1.  For u0 > 0 the head u0 - 1 cancels; use the equal
    # -||u[1:]||^2 / (1 + u0), exact to rounding even when u is near e1.
    w[0] = -float(w[1:] @ w[1:]) / (1.0 + u0) if u0 > 0.0 else u0 - 1.0
    wnorm2 = float(w @ w)
    if math.sqrt(wnorm2) <= PARALLEL_TOL:
        return np.eye(m)
    V = np.eye(m)
    V -= (2.0 / wnorm2) * np.multiply.outer(w, w)
    return V


def orthogonality_residual(M) -> float:
    """Frobenius norm of ``M^T M - I`` (raw, unscaled); inf, without a
    warning, when ``M^T M`` overflows or M holds a NaN."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be a square matrix, got shape {M.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _norm(_gram_defect(M))
    # Overflowing products of both signs can sum to inf - inf = nan, which no gate refuses.
    return math.inf if math.isnan(residual) else residual


def _gram_defect(M: np.ndarray) -> np.ndarray:
    """``M^T M - I`` of a square float array, unvalidated: the Gram matrix
    behind every orthogonality residual."""
    G = M.T @ M
    G.reshape(-1)[:: len(G) + 1] -= 1.0  # the diagonal, as a view
    return G


def _require_orthogonal(
    residual: float, m: int, name: str, tol: float, error: Callable[[str], Exception] = ValueError
) -> None:
    """The gate of an m x m orthogonal factor: raise ``error(message)`` unless
    its measured ``orthogonality_residual`` scaled by m is ``<= tol``; an
    infinite residual fails at every tol."""
    if not residual / m <= tol:
        raise error(_not_orthogonal(name, residual, m, tol))


def _not_orthogonal(name: str, residual: float, m: int, tol: float) -> str:
    """The refusal of an m x m factor whose residual fails the gate."""
    return f"{name} is not orthogonal within tolerance: residual {residual:.3e} > {tol * m:.3e}"


def haar_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw an ``m x m`` Haar-distributed orthogonal matrix from ``rng``.

    Stewart's method (G. W. Stewart, "The efficient generation of random
    orthogonal matrices with an application to condition estimators", SIAM
    J. Numer. Anal. 17, 1980): the Householder vectors of a Gaussian's QR
    are themselves independent Gaussian vectors, so they are drawn directly
    and no QR is run.  One ``standard_normal`` call fills the lower triangle
    of an m x m array X row by row, ``m(m+1)/2`` normals; column k, rows
    ``k..m-1``, is reflector k's Gaussian vector x.  Its reflector vector is
    ``v = x + sign(x0) ||x|| e1``, with ``||v||^2 / 2 = ||x|| (||x|| +
    |x0|)``, free of cancellation; a zero x gives the identity.  The result
    is ``H_0 H_1 ... H_{m-1} D`` with ``D = diag(-sign(x0_k))``, the column
    signs that give the implied R factor a positive diagonal, which makes
    the product Haar (F. Mezzadri, "How to generate random matrices from the
    classical compact groups", Notices AMS 54, 2007).  ``H_{m-1}`` acts on
    one coordinate, where it is -1, so D absorbs it exactly.  The reflectors
    are applied right to left in compact-WY blocks ``I - V T V^T`` of
    ``_HAAR_BLOCK`` (128) reflectors (R. Schreiber and C. Van Loan, SIAM J.
    Sci. Stat. Comput. 10, 1989), each touching only the trailing r x r
    block of Q.  A block forms T from ``T^-1 = triu(V^T V, 1) + diag(||v_k||^2
    / 2)`` by products alone (``_invert_upper``), so its update ``Q += V (-T
    W)``, ``W = V^T Q``, runs no solve.  Until a block is applied, Q's rows
    and columns ``k0..k1-1`` still hold ``diag(-s)`` and zeros.  So W is
    ``V1^T diag(-s)`` beside the one product ``V2^T Q22`` (V1 and V2: V's top
    b and bottom r - b rows; ``Q22 = Q[k1:, k1:]``), and the update writes
    those strips of Q outright and adds only to Q22.  Two scratch buffers,
    allocated per call, hold W (then ``V2 (-T W)``) and ``-T W``.
    """
    m = as_index(m, "m", minimum=1)
    lower = np.tri(m, dtype=bool)
    X = np.zeros((m, m))  # column k: reflector k's x, then v, in rows k..m-1
    X[lower] = rng.standard_normal(m * (m + 1) // 2)
    x0 = X.diagonal().copy()
    s = np.copysign(1.0, x0)
    X[-1, -1] = 0.0  # H_{m-1} = -1 moves into D
    s[-1] = -s[-1]
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    X.reshape(-1)[:: m + 1] += s * norms
    half = norms * (norms + np.abs(x0))
    half[half == 0.0] = 1.0  # x = 0: v = 0, and T^-1 keeps a unit diagonal
    Q = np.zeros((m, m))
    Q.reshape(-1)[:: m + 1] = -s
    work = np.empty(m * m)  # each block's W, then its V2 Y2
    Y_work = np.empty(min(m, _HAAR_BLOCK) * m)
    for k0 in reversed(range(0, m, _HAAR_BLOCK)):
        k1 = min(k0 + _HAAR_BLOCK, m)
        b, r = k1 - k0, m - k0
        V = X[k0:, k0:k1]  # [V1; V2], V1 = V[:b] lower triangular
        T = V.T @ V  # T^-1 once its lower triangle is set, then -T in place
        T[lower[:b, :b]] = 0.0
        T.reshape(-1)[:: b + 1] = half[k0:k1]
        np.negative(_invert_upper(T), out=T)
        # W = V^T Q[k0:, k0:] = [V1^T diag(-s), V2^T Q22]: the strips are still diag(-s) and zeros.
        W = work[: b * r].reshape(b, r)
        np.multiply(V[:b].T, -s[k0:k1], out=W[:, :b])
        if k1 < m:  # the first block applied has no Q22
            np.matmul(V[b:].T, Q[k1:, k1:], out=W[:, b:])
        Y = np.matmul(T, W, out=Y_work[: b * r].reshape(b, r))  # -T W
        # Q[k0:, k0:] += V Y: the strips are written outright, Q22 is added to.
        np.matmul(V, Y[:, :b], out=Q[k0:, k0:k1])
        Q.reshape(-1)[k0 * (m + 1) : k1 * (m + 1) : m + 1] -= s[k0:k1]
        if k1 < m:
            np.matmul(V[:b], Y[:, b:], out=Q[k0:k1, k1:])
            Q[k1:, k1:] += np.matmul(V[b:], Y[:, b:], out=work[: (r - b) ** 2].reshape(r - b, r - b))
    return Q


def _invert_upper(R: np.ndarray) -> np.ndarray:
    """Invert an upper triangular R with a nonzero diagonal in place and
    return it, by the 2 x 2 block recursion ``[[A, B], [0, C]]^-1 =
    [[A^-1, -A^-1 B C^-1], [0, C^-1]]`` (E. Elmroth and F. Gustavson, IBM J.
    Res. Dev. 44, 2000): products only, and ``np.linalg.inv`` on diagonal
    blocks of at most ``_INVERSE_LEAF`` rows."""
    b = len(R)
    if b <= _INVERSE_LEAF:
        R[...] = np.linalg.inv(R)
        return R
    h = b // 2
    A_inv = _invert_upper(R[:h, :h])
    C_inv = _invert_upper(R[h:, h:])
    R[:h, h:] = -A_inv @ R[:h, h:] @ C_inv
    return R


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
    alpha = as_nonnegative_float(alpha, "alpha", finite_square=True)
    n = as_index(n, "n", minimum=2)
    T = np.eye(n)
    h = math.sqrt(1.0 + alpha * alpha)
    T[0, 0] = h
    T[0, 1] = alpha
    T[1, 0] = alpha
    T[1, 1] = h
    return T
