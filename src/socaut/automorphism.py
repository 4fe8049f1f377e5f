"""Membership, factorization, composition, and sampling for cone automorphisms.

An invertible linear map S preserves the second-order cone
``{x : ||xbar|| <= x0}`` exactly when it satisfies the two-sided congruence

    S^T J S = mu J = S J S^T,   mu > 0,   J = diag(1, -1, ..., -1),

and keeps the cone axis forward, ``(S e)_0 > 0``.  Every such S factors as

    S = nu * [[a, c^T], [c, P]] @ diag(1, U)                      (compact)
      = nu * diag(1, V) @ T_alpha @ diag(1, V^T) @ diag(1, U)     (canonical)

with nu > 0, c in R^(n-1), a = sqrt(1 + ||c||^2), P = sqrt(I + c c^T),
alpha = ||c||, c = alpha V e1, V and U orthogonal, and T_alpha the
hyperbolic boost.  This module implements the membership test, both
factorizations, their inverses (composition), a seeded sampler, and a
residual report for the six block identities behind the factorization, with
a sample-free bound on how far any cone point can be pushed out.
Both compositions share one O(n^2) blockwise assembly of the compact form;
the canonical one reads c off its ``c`` property.  Orthogonality is gated
only where a factor enters: factor_compact, file load, the public compose_*.
factor_compact validates S once, in its one check_automorphism call, and
reads c and D off S itself.  check_automorphism and property_report share
one pair of products S^T J S, S J S^T (_congruence), and so one mu.
normalize and split_blocks are conveniences that neither path uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._validate import (
    DEFAULT_TOL,
    as_float,
    as_index,
    as_nonnegative_float,
    as_positive_float,
    as_square_matrix,
    as_vector,
)
from .kernels import (
    RankOneSqrt,
    _require_orthogonal,
    haar_orthogonal,
    householder_to_direction,
)
from .spin import SpinVector

__all__ = [
    "NotAutomorphismError",
    "BlockView",
    "AutCheckResult",
    "CompactFactorization",
    "CanonicalFactorization",
    "PropertyReport",
    "split_blocks",
    "check_automorphism",
    "normalize",
    "factor_compact",
    "factor_canonical",
    "compose_compact",
    "compose_canonical",
    "sample_automorphism",
    "property_report",
    "apply",
    "algebra_automorphism",
]


class NotAutomorphismError(ValueError):
    """Raised when an operation needs a cone automorphism and the input fails.

    When available, the failing membership test is attached as ``check``.
    """

    def __init__(self, message: str, check: "AutCheckResult | None" = None):
        super().__init__(message)
        self.check = check


def _frozen(A: np.ndarray) -> np.ndarray:
    out = np.array(A, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class BlockView:
    """The block split S = [[a, b^T], [c, D]] of an n x n matrix, n >= 2."""

    a: float
    b: np.ndarray
    c: np.ndarray
    D: np.ndarray

    def reassemble(self) -> np.ndarray:
        """Rebuild the source matrix exactly from the four blocks."""
        m = self.b.size
        S = np.empty((m + 1, m + 1))
        S[0, 0] = self.a
        S[0, 1:] = self.b
        S[1:, 0] = self.c
        S[1:, 1:] = self.D
        return S


@dataclass(frozen=True)
class AutCheckResult:
    """Outcome of the two-sided congruence membership test.

    Attributes
    ----------
    is_automorphism : bool
        True when ``mu > tol``, ``residual_congruence <= tol``, and
        ``cone_forward`` all hold.
    mu : float
        Congruence scale, read from entry (0,0) of ``S^T J S``.
    residual_congruence : float
        ``max(||S^T J S - mu J||_F, ||S J S^T - mu J||_F) / max(1, ||S||_F^2)``.
    cone_forward : bool
        True when ``(S e)_0 > 0``, i.e. the cone axis is not reversed.
    """

    is_automorphism: bool
    mu: float
    residual_congruence: float
    cone_forward: bool


@dataclass(frozen=True, eq=False)
class CompactFactorization:
    """S = nu * [[a, c^T], [c, P]] @ diag(1, U) with P = sqrt(I + c c^T).

    Only ``nu``, ``c``, and ``U`` are stored; ``a`` and ``P`` are derived.
    Shape and positivity are validated on construction; U's orthogonality is
    gated where U enters: factor_compact, parse_factorization, compose_compact.
    """

    nu: float
    c: np.ndarray
    U: np.ndarray

    def __post_init__(self) -> None:
        nu = as_positive_float(self.nu, "nu")
        c = _frozen(as_vector(self.c, "c", min_len=1))
        U = _frozen(as_square_matrix(self.U, "U"))
        if U.shape != (c.size, c.size):
            raise ValueError(f"U must be {c.size}x{c.size} to match c, got shape {U.shape}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        """Ambient dimension ``1 + len(c)``."""
        return 1 + self.c.size

    @property
    def a(self) -> float:
        """``sqrt(1 + ||c||^2)``."""
        return RankOneSqrt.from_vector(self.c).a

    @property
    def P(self) -> np.ndarray:
        """``sqrt(I + c c^T)`` materialized."""
        return RankOneSqrt.from_vector(self.c).matrix()


@dataclass(frozen=True, eq=False)
class CanonicalFactorization:
    """S = nu * diag(1, V) @ T_alpha @ diag(1, V^T) @ diag(1, U).

    ``V`` and ``U`` are (n-1) x (n-1) orthogonal factors, gated where they
    enter: parse_factorization and compose_canonical; factor_canonical's U is
    gated in factor_compact and its V is a reflector.  Shape and sign here.
    """

    nu: float
    alpha: float
    V: np.ndarray
    U: np.ndarray

    def __post_init__(self) -> None:
        nu = as_positive_float(self.nu, "nu")
        alpha = as_nonnegative_float(self.alpha, "alpha")
        V = _frozen(as_square_matrix(self.V, "V"))
        U = _frozen(as_square_matrix(self.U, "U"))
        if U.shape != V.shape:
            raise ValueError(f"U must match V's shape {V.shape}, got {U.shape}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        """Ambient dimension ``1 + V.shape[0]``."""
        return 1 + self.V.shape[0]

    @property
    def c(self) -> np.ndarray:
        """The compact form's ``c = alpha V e1``."""
        return self.alpha * self.V[:, 0]


@dataclass(frozen=True)
class PropertyReport:
    """Residuals of the six block identities, a cone certificate, and
    optional sampled cone-image statistics.

    The identities, for a normalized S = [[a, b^T], [c, D]]:

        A1: a = sqrt(1 + ||c||^2)     B1: a = sqrt(1 + ||b||^2)
        A2: a b = D^T c               B2: a c = D b
        A3: D^T D = I + b b^T         B3: D D^T = I + c c^T

    The A family are the blocks of E = S^T J S - J, the B family those of
    F = S J S^T - J, both computed on the (internally normalized) matrix:
    A2 and A3 are the norms of E's lower blocks ``E[1:, 0]`` and
    ``E[1:, 1:]``, B2 and B3 those of F's; A1 and B1 are read off the first
    column and the first row.

    ``cone_slack_bound`` is ``2 ||E||_F / (a^2 - ||b||^2)``, or inf when the
    denominator is <= 0; for y = S x every cone point x has a slack
    ``||ybar|| - y0 <= cone_slack_bound * (a + ||b||) * x0``, and boundary
    points have ``| ||ybar|| - y0 |`` within it (proof in property_report).
    The sampled statistics are absolute slacks over images of sampled cone
    points; both read 0 when no points are sampled.
    """

    residual_A1: float
    residual_A2: float
    residual_A3: float
    residual_B1: float
    residual_B2: float
    residual_B3: float
    cone_violation_max: float
    boundary_drift_max: float
    cone_slack_bound: float

    def max_identity_residual(self) -> float:
        """Largest of the six identity residuals."""
        return max(
            self.residual_A1,
            self.residual_A2,
            self.residual_A3,
            self.residual_B1,
            self.residual_B2,
            self.residual_B3,
        )


def split_blocks(S) -> BlockView:
    """Split S into ``a = S[0,0]``, ``b = S[0,1:]``, ``c = S[1:,0]``, ``D``.

    Lossless: ``split_blocks(S).reassemble()`` equals S bit for bit.
    """
    S = as_square_matrix(S, "S", min_n=2)
    return BlockView(
        a=float(S[0, 0]),
        b=_frozen(S[0, 1:]),
        c=_frozen(S[1:, 0]),
        D=_frozen(S[1:, 1:]),
    )


def _congruence(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(S^T J S, S J S^T)`` for a validated n x n S, each a rank-one term
    minus a Gram matrix: ``S[0]^T S[0] - S[1:]^T S[1:]`` and
    ``S[:,0] S[:,0]^T - S[:,1:] S[:,1:]^T``.  NumPy runs ``A.T @ A`` as a
    symmetric rank-k update, about twice as fast as a general product."""
    left = S[0, :, np.newaxis] * S[0]
    left -= S[1:].T @ S[1:]
    right = S[:, 0, np.newaxis] * S[:, 0]
    right -= S[:, 1:] @ S[:, 1:].T
    return left, right


def _subtract_scaled_j(s: float, *products: np.ndarray) -> None:
    """Subtract ``s J`` in place from each n x n product."""
    target = np.full(len(products[0]), -s)
    target[0] = s
    diag = np.diag_indices(target.size)
    for M in products:
        M[diag] -= target


def check_automorphism(S, tol: float = DEFAULT_TOL) -> AutCheckResult:
    """Two-sided congruence membership test for the cone automorphism group.

    Accepts iff ``mu > tol``, ``residual_congruence <= tol`` (both
    ``S^T J S = mu J`` and ``S J S^T = mu J`` enter the residual), and
    ``(S e)_0 = S[0,0] > 0``.  ``mu`` is read from entry (0,0) of
    ``S^T J S``; any inconsistency with the rest of the congruence shows up
    in the residual.  Rejection is a normal result, not an exception.
    """
    S = as_square_matrix(S, "S", min_n=2)
    tol = as_nonnegative_float(tol, "tol")
    left, right = _congruence(S)
    mu = float(left[0, 0])
    _subtract_scaled_j(mu, left, right)
    scale = max(1.0, float(np.vdot(S, S)))
    res = max(float(np.linalg.norm(left)), float(np.linalg.norm(right))) / scale
    cone_forward = bool(S[0, 0] > 0.0)
    return AutCheckResult(
        is_automorphism=(mu > tol) and (res <= tol) and cone_forward,
        mu=mu,
        residual_congruence=res,
        cone_forward=cone_forward,
    )


def normalize(S, check: AutCheckResult) -> tuple[float, np.ndarray]:
    """Strip the homogeneous scale: return ``(nu, S/nu)`` with ``nu = sqrt(mu)``.

    The result satisfies ``S_hat^T J S_hat = J`` within the tolerance that
    accepted ``check``.  Raises NotAutomorphismError when ``check`` is a
    rejection.
    """
    S = as_square_matrix(S, "S", min_n=2)
    if not check.is_automorphism:
        raise NotAutomorphismError(
            "normalize requires an accepted matrix "
            f"(mu={check.mu:.6g}, residual={check.residual_congruence:.3e}, "
            f"cone_forward={check.cone_forward})",
            check,
        )
    nu = math.sqrt(check.mu)
    return nu, S / nu


def _describe_rejection(check: AutCheckResult, tol: float) -> str:
    reasons = []
    if not check.mu > tol:
        reasons.append(f"congruence scale mu={check.mu:.6g} <= tol {tol:.3g}")
    if not check.cone_forward:
        reasons.append("cone-reversing: (S e)_0 <= 0")
    reasons.append(f"congruence residual {check.residual_congruence:.3e}")
    return "; ".join(reasons)


def factor_compact(S, tol: float = DEFAULT_TOL) -> CompactFactorization:
    """Factor an accepted S as ``nu * [[a, c^T], [c, P]] @ diag(1, U)``.

    After normalizing the scale away, ``c`` is the first column tail and
    ``U = P^{-1} D`` is recovered through the closed-form rank-one inverse
    of ``P = sqrt(I + c c^T)`` — an O(n^2) update of the D block.  If the
    recovered U fails ``orthogonality_residual(U) <= tol * (n-1)``, S is
    rejected: the congruence test then passed only within noise.  This is
    U's only gate; the error carries the accepting ``check``.
    """
    S = np.asarray(S, dtype=float)
    check = check_automorphism(S, tol)  # validates S and tol
    tol = float(tol)
    if not check.is_automorphism:
        raise NotAutomorphismError(
            "cannot factor: " + _describe_rejection(check, tol), check
        )
    nu = math.sqrt(check.mu)
    c = S[1:, 0] / nu
    U = S[1:, 1:] / nu  # the D block
    root = RankOneSqrt.from_vector(c)
    # U = P^{-1} D = (I + gamma c c^T) D, applied in place as a rank-one update.
    U += root.gamma * np.outer(c, c @ U)
    _require_orthogonal(U, "recovered U", tol, partial(NotAutomorphismError, check=check))
    return CompactFactorization(nu=nu, c=c, U=U)


def factor_canonical(S, tol: float = DEFAULT_TOL) -> CanonicalFactorization:
    """Factor an accepted S as ``nu * diag(1,V) T_alpha diag(1,V^T) diag(1,U)``.

    Built on factor_compact: ``alpha = ||c||`` and ``V`` is the Householder
    reflector aligning ``e1`` with ``c`` (identity when ``c = 0``), so that
    ``c = alpha V e1`` with ``alpha >= 0``.  (V, U) are not unique; only the
    reconstruction ``compose_canonical(result) ~ S`` is contractual.
    """
    compact = factor_compact(S, tol)
    alpha = float(np.linalg.norm(compact.c))
    V = householder_to_direction(compact.c)
    return CanonicalFactorization(nu=compact.nu, alpha=alpha, V=V, U=compact.U)


def compose_compact(f: CompactFactorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiply a compact factorization back into a dense matrix.

    Assembled blockwise in O(n^2): with ``a = sqrt(1+||c||^2)`` and
    ``P = I + beta c c^T``, the product ``nu * [[a, c^T],[c, P]] diag(1,U)``
    has first row ``nu * [a, (c^T U)]``, first column ``nu * [a; c]``, and
    lower block ``nu * (U + beta c (c^T U))``.  U's orthogonality gate
    (``<= tol * (n-1)``) is enforced here on caller-built factors.
    """
    if not isinstance(f, CompactFactorization):
        raise TypeError(f"expected CompactFactorization, got {type(f).__name__}")
    tol = as_nonnegative_float(tol, "tol")
    _require_orthogonal(f.U, "U", tol)
    return _assemble(f.nu, f.c, f.U)


def _assemble(nu: float, c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``nu * [[a, c^T], [c, P]] @ diag(1, U)``, built blockwise in O(n^2)."""
    root = RankOneSqrt.from_vector(c)
    cU = c @ U
    n = 1 + c.size
    S = np.empty((n, n))
    S[0, 0] = root.a
    S[0, 1:] = cU
    S[1:, 0] = c
    S[1:, 1:] = U + root.beta * np.outer(c, cU)
    S *= nu
    return S


def compose_canonical(f: CanonicalFactorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiply a canonical factorization back into a dense matrix.

    The first three factors multiply out to ``[[a, c^T], [c, P]]`` with
    ``c = alpha V e1``, so the product
    ``nu * diag(1,V) @ T_alpha @ diag(1,V^T) @ diag(1,U)`` is assembled
    blockwise from ``(nu, f.c, U)`` exactly as compose_compact does, in
    O(n^2) and without forming T_alpha.  Both orthogonality gates
    (``<= tol * (n-1)``) are enforced here on caller-built factors.
    """
    if not isinstance(f, CanonicalFactorization):
        raise TypeError(f"expected CanonicalFactorization, got {type(f).__name__}")
    tol = as_nonnegative_float(tol, "tol")
    _require_orthogonal(f.V, "V", tol)
    _require_orthogonal(f.U, "U", tol)
    return _assemble(f.nu, f.c, f.U)


def sample_automorphism(
    n: int,
    alpha_max: float = 10.0,
    nu_range: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
) -> np.ndarray:
    """Draw a random cone automorphism, deterministically per seed.

    ``nu`` is uniform over ``nu_range``, ``alpha`` uniform over
    ``[0, alpha_max]``, and V, U are Haar orthogonal; the result is the
    canonical composition of those factors, assembled without a gate (Haar
    draws are orthogonal).  The draw order (nu, alpha, V, U) from
    ``np.random.default_rng(seed)`` is fixed.
    """
    n = as_index(n, "n", minimum=2)
    alpha_max = as_nonnegative_float(alpha_max, "alpha_max")
    nu_min, nu_max = as_float(nu_range[0]), as_float(nu_range[1])
    if not (math.isfinite(nu_min) and math.isfinite(nu_max)):
        raise ValueError(f"nu_range must hold two finite numbers, got {nu_range!r}")
    if not 0.0 < nu_min <= nu_max:
        raise ValueError(
            f"nu_range must satisfy 0 < nu_min <= nu_max, got ({nu_min!r}, {nu_max!r})"
        )
    seed = as_index(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    nu = float(rng.uniform(nu_min, nu_max))
    alpha = float(rng.uniform(0.0, alpha_max))
    V = haar_orthogonal(rng, n - 1)
    U = haar_orthogonal(rng, n - 1)
    return _assemble(nu, alpha * V[:, 0], U)


def _sample_cone_points(
    rng: np.random.Generator, n: int, count: int, boundary: bool
) -> np.ndarray:
    """Sample cone points as rows: tail uniform on a sphere of radius
    r in (0, 10], head r (boundary) or r*(1+u), u in (0, 1] (interior)."""
    G = rng.standard_normal((count, n - 1))
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0.0] = 1.0
    r = 10.0 - rng.uniform(0.0, 10.0, size=count)  # uniform on (0, 10]
    X = np.empty((count, n))
    X[:, 1:] = G * (r / norms)[:, np.newaxis]
    if boundary:
        X[:, 0] = r
    else:
        u = 1.0 - rng.random(size=count)  # uniform on (0, 1]
        X[:, 0] = r * (1.0 + u)
    return X


def property_report(S, n_samples: int = 0, seed: int = 0) -> PropertyReport:
    """Evaluate the six block identities and the cone certificate for S.

    S must be normalized (mu = 1) or normalizable, with mu the (0,0) entry of
    ``S^T J S`` that check_automorphism reports: when ``|mu - 1| > 0.1`` the
    matrix is rescaled by ``1/sqrt(mu)`` internally; near-normalized input is
    evaluated verbatim, so a single broken entry is never partially
    reabsorbed by the rescale.  The residuals are raw norms of the blocks of
    E = S_hat^T J S_hat - J and F = S_hat J S_hat^T - J for that matrix
    S_hat = [[a, b^T], [c, D]] (see PropertyReport), from the same pair of
    products that check_automorphism forms, divided by mu when rescaled.
    Gross non-automorphisms (``mu <= 0``, cone-reversing) raise
    NotAutomorphismError; tolerance-level failures still produce a report —
    that is the diagnostic purpose of this function.

    ``cone_slack_bound`` is ``2 ||E||_F / (a^2 - ||b||^2)``, with the head
    ``a^2 - ||b||^2`` read off F + J.  Why it bounds the slack of every cone
    point x (x0 >= ||xbar||), with y = S_hat x:

    1. ``y0^2 - ||ybar||^2 = x^T J x + x^T E x >= -||E||_2 ||x||^2
       >= -2 ||E||_F x0^2``, using ``||E||_2 <= ||E||_F`` and
       ``||x||^2 <= 2 x0^2``; on the boundary ``x^T J x = 0``, so
       ``|y0^2 - ||ybar||^2| <= 2 ||E||_F x0^2``.
    2. ``y0 = a x0 + b . xbar >= x0 (a - ||b||)``, which is > 0 whenever the
       bound is finite.
    3. Hence ``||ybar|| - y0 = (||ybar||^2 - y0^2) / (||ybar|| + y0)
       <= 2 ||E||_F x0 / (a - ||b||) = cone_slack_bound * (a + ||b||) x0``,
       and the same for ``| ||ybar|| - y0 |`` on the boundary.

    This is the S-lemma view of cone-preserving maps (Loewy & Schneider,
    "Positive operators on the n-dimensional ice cream cone", J. Math. Anal.
    Appl. 49, 1975).

    Sampling is an opt-in cross-check: with ``n_samples > 0``, ``n_samples``
    interior and ``n_samples`` boundary points (seeded) are mapped through
    S_hat (the cone is scale-invariant, and this keeps the absolute slacks
    meaningful at any mu): ``cone_violation_max`` is the largest positive
    slack ``||ybar|| - y0`` over all images, ``boundary_drift_max`` the
    largest ``| ||ybar|| - y0 |`` over boundary images.  Both are 0 when
    ``n_samples`` is 0, the default.
    """
    S = as_square_matrix(S, "S", min_n=2)
    n_samples = as_index(n_samples, "n_samples", minimum=0)
    seed = as_index(seed, "seed", minimum=0)
    E, F = _congruence(S)  # S^T J S and S J S^T until J is subtracted below
    mu = float(E[0, 0])
    if not math.isfinite(mu) or mu <= 0.0:
        raise NotAutomorphismError(
            f"congruence scale mu={mu:.6g} is not positive; cannot normalize"
        )
    if S[0, 0] <= 0.0:
        raise NotAutomorphismError("cone-reversing input: (S e)_0 <= 0")
    S_hat = S
    if abs(mu - 1.0) > 0.1:
        S_hat = S / math.sqrt(mu)
        E /= mu
        F /= mu
    head = float(F[0, 0])  # a^2 - ||b||^2
    _subtract_scaled_j(1.0, E, F)

    a, b, c = float(S_hat[0, 0]), S_hat[0, 1:], S_hat[1:, 0]
    slack_bound = 2.0 * float(np.linalg.norm(E)) / head if head > 0.0 else math.inf

    cone_violation = boundary_drift = 0.0
    if n_samples > 0:
        rng = np.random.default_rng(seed)
        for boundary in (False, True):  # interior first: the seeded draw order is fixed
            Y = _sample_cone_points(rng, len(S), n_samples, boundary) @ S_hat.T
            slack = np.linalg.norm(Y[:, 1:], axis=1) - Y[:, 0]
            cone_violation = max(cone_violation, float(np.max(slack, initial=0.0)))
            if boundary:
                boundary_drift = float(np.max(np.abs(slack), initial=0.0))

    return PropertyReport(
        residual_A1=abs(a - math.sqrt(1.0 + float(c @ c))),
        residual_A2=float(np.linalg.norm(E[1:, 0])),
        residual_A3=float(np.linalg.norm(E[1:, 1:])),
        residual_B1=abs(a - math.sqrt(1.0 + float(b @ b))),
        residual_B2=float(np.linalg.norm(F[1:, 0])),
        residual_B3=float(np.linalg.norm(F[1:, 1:])),
        cone_violation_max=cone_violation,
        boundary_drift_max=boundary_drift,
        cone_slack_bound=slack_bound,
    )


def apply(S, x: SpinVector) -> SpinVector:
    """Matrix action on a spin vector: ``S @ x``, re-split into head/tail."""
    S = as_square_matrix(S, "S", min_n=2)
    if S.shape[0] != x.n:
        raise ValueError(f"dimension mismatch: matrix is {S.shape[0]}, vector is {x.n}")
    y = S @ x.to_array()
    return SpinVector(float(y[0]), y[1:])


def algebra_automorphism(D, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed an orthogonal D as the algebra automorphism ``diag(1, D)``.

    These are exactly the maps preserving the Jordan product (and the unit
    e) — a subgroup of the cone automorphisms with mu = 1.  Raises
    ValueError when D fails its orthogonality gate ``tol * m``.
    """
    D = as_square_matrix(D, "D", min_n=1)
    tol = as_nonnegative_float(tol, "tol")
    _require_orthogonal(D, "D", tol)
    n = D.shape[0] + 1
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    out[1:, 1:] = D
    return out
