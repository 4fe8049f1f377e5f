"""Membership, factorization, composition, and sampling for cone automorphisms.

An invertible linear map S preserves the second-order cone
``{x : ||xbar|| <= x0}`` exactly when it satisfies the two-sided congruence

    S^T J S = mu J = S J S^T,   mu > 0,   J = diag(1, -1, ..., -1),

and keeps the cone axis forward, ``(S e)_0 > 0``.  Every such S factors as

    S = nu * [[a, c^T], [c, P]] @ diag(1, U)                      (compact)
      = nu * diag(1, V) @ T_alpha @ diag(1, V^T) @ diag(1, U)     (canonical)

with nu > 0, c in R^(n-1), a = sqrt(1 + ||c||^2), P = sqrt(I + c c^T),
alpha = ||c||, c = alpha V e1, V and U orthogonal, and T_alpha the
hyperbolic boost.  This module implements the membership test, the
factorization, its inverse (composition), a seeded sampler, and a
residual report of the congruence defect, with a sample-free bound on how
far any cone point can be pushed out.

The two forms are one value, ``Factorization(nu, c, U)``: only
``V e1 = c / alpha`` enters the canonical product, so both are the same
``(nu, c, U)`` and differ only in what is derived from it (a and P, or
alpha and V); fileio writes that ``(nu, c, U)`` as its one document.
``nu [[a, c^T], [c, P]]`` and ``diag(1, U)`` are the polar factors of S,
so the stored factors are unique; only the canonical V is not (see
factor).  Membership is decided once, in ``_check``, by recovering these
factors (see check_automorphism); factor returns the factors that test
recovered, so the two cannot disagree, and the two share a one-entry memo
of the last decision (``_decide``).
compose runs one O(n^2) blockwise assembly of the compact form.
``_verify`` holds verify's gates and reads the congruence defect of S / nu
off the parts ``_check`` recovered, in O(n^2): U's Gram defect and the
first-row defect; it keeps its own recovery, since it needs the Gram matrix
that the memo does not keep.  U's residual
``||U^T U - I||_F`` is measured at most once and kept by its factorization:
``_check`` measures the U it recovers, and a caller-built or loaded U is
measured where it is first gated (file load or compose).  No operation
forms V; it is built only when a caller reads ``Factorization.V``.
"""

from __future__ import annotations

import math
import mmap
import os
import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._validate import (
    DEFAULT_TOL,
    FrozenValue,
    as_float,
    as_index,
    as_nonnegative_float,
    as_positive_float,
    as_square_matrix,
    as_vector,
    frozen,
)
from .kernels import (
    RankOneSqrt,
    _finite_sqrt_coefficients,
    _norm,
    _gram_defect,
    _not_orthogonal,
    _require_orthogonal,
    _sqrt_coefficients,
    _square_block,
    haar_orthogonal,
    householder_to_direction,
    orthogonality_residual,
)
from .spin import SpinVector

__all__ = [
    "NotAutomorphismError",
    "AutCheckResult",
    "Factorization",
    "PropertyReport",
    "check_automorphism",
    "factor",
    "compose",
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


@dataclass(frozen=True)
class AutCheckResult:
    """Outcome of the membership test.

    Attributes
    ----------
    is_automorphism : bool
        True when ``cone_forward``, ``mu > tol`` and
        ``residual_congruence <= tol`` all hold: the one rule of the test.
    mu : float
        Congruence scale ``S[0,0]^2 - ||S[1:,0]||^2``, read off the first
        column; for a member it is the (0,0) entry of ``S^T J S``.
    residual_congruence : float
        ``max(||U^T U - I||_F / m, ||d|| / a)``, with the U, first-row
        defect d and a that check_automorphism recovers; 0 exactly on
        members, inf (refused at every tol) when no finite factors exist:
        ``mu`` is not positive and finite or the recovery overflows.
    cone_forward : bool
        True when ``(S e)_0 > 0``, i.e. the cone axis is not reversed.
    """

    is_automorphism: bool
    mu: float
    residual_congruence: float
    cone_forward: bool


@dataclass(frozen=True, eq=False)
class Factorization(FrozenValue):
    """The factors of a cone automorphism, in both of its forms:

        S = nu * [[a, c^T], [c, P]] @ diag(1, U)                    (compact)
          = nu * diag(1, V) @ T_alpha @ diag(1, V^T) @ diag(1, U)   (canonical)

    Only nu, c and U are stored, and the document fileio writes holds
    exactly these; a, P, alpha = ||c|| and V, the reflector with
    ``V e1 = c / ||c||``, are derived on access, since only ``V e1`` enters
    the canonical product, so ``alpha`` and ``V`` are the library's view of
    the canonical factors.  Shape
    and positivity are validated here, except for the factors the membership
    test has just recovered and checked (``_decide``); U's orthogonality is
    gated where U enters: factor, parse_factorization, compose.  The frozen
    U keeps its residual ``||U^T U - I||_F`` valid: it is measured once, on
    first use or by the membership test, and copies and pickles keep it.
    """

    nu: float
    c: np.ndarray
    U: np.ndarray

    def __post_init__(self) -> None:
        nu = as_positive_float(self.nu, "nu")
        c = frozen(as_vector(self.c, "c", min_len=1))
        U = frozen(as_square_matrix(self.U, "U"))
        if U.shape != (c.size, c.size):
            raise ValueError(f"U must be {c.size}x{c.size} to match c, got shape {U.shape}")
        self._set(nu=nu, c=c, U=U)

    @property
    def a(self) -> float:
        """``sqrt(1 + ||c||^2)``."""
        return RankOneSqrt.from_vector(self.c).a

    @property
    def P(self) -> np.ndarray:
        """``sqrt(I + c c^T)`` materialized."""
        return RankOneSqrt.from_vector(self.c).matrix()

    @property
    def alpha(self) -> float:
        """The boost strength ``||c||`` (finite whenever c is)."""
        return _norms(self.c)[0]

    @property
    def V(self) -> np.ndarray:
        """The reflector with ``V e1 = c / ||c||`` (the identity when c = 0),
        built on each access and frozen."""
        return frozen(householder_to_direction(self.c))

    @cached_property
    def _residual(self) -> float:
        """U's ``orthogonality_residual``, measured on first use and kept."""
        return orthogonality_residual(self.U)

    def _gate(self, tol: float, error=ValueError) -> None:
        """The gate ``residual / m <= tol`` on U's kept residual."""
        _require_orthogonal(self._residual, len(self.U), "U", tol, error)


@dataclass(frozen=True)
class PropertyReport:
    """Residuals of two block identities, a cone certificate, and optional
    sampled cone-image statistics.

    Membership makes the normalized S_hat = S / nu = [[a, b^T], [c, D]]
    satisfy three identities:

        A1: a = sqrt(1 + ||c||^2)
        A2: a b = D^T c
        A3: D^T D = I + b b^T

    They are the blocks of E = S_hat^T J S_hat - J: A2 and A3 are the norms
    of its lower blocks ``E[1:, 0]`` and ``E[1:, 1:]``.  A1 is not reported:
    nu^2 is read off the first column, so the normalization makes A1 hold by
    construction.  For invertible S, ``S^T J S = mu J`` iff ``S J S^T = mu J``,
    so E alone decides membership.

    ``cone_slack_bound`` is ``2 ||E||_F / (a^2 - ||b||^2)``, or inf when the
    denominator is <= 0; for y = S x every cone point x has a slack
    ``||ybar|| - y0 <= cone_slack_bound * (a + ||b||) * x0``, and boundary
    points have ``| ||ybar|| - y0 |`` within it (proof in property_report).
    The sampled statistics are absolute slacks over images of sampled cone
    points, a library-only cross-check that no verdict reads; both read 0
    when no points are sampled.
    """

    residual_A2: float
    residual_A3: float
    cone_violation_max: float
    boundary_drift_max: float
    cone_slack_bound: float

    def max_identity_residual(self) -> float:
        """Largest of the two identity residuals."""
        return max(self.residual_A2, self.residual_A3)


def check_automorphism(S, tol: float = DEFAULT_TOL) -> AutCheckResult:
    """Membership test for the cone automorphism group.

    With ``mu = S[0,0]^2 - ||S[1:,0]||^2`` and ``nu = sqrt(mu)``, the blocks
    of ``S / nu = [[a', b^T], [c, D]]`` give the compact factors
    ``a = sqrt(1 + ||c||^2)`` and ``U = P^{-1} D``, and
    ``S / nu - [[a, c^T], [c, P]] diag(1, U) = e1 d^T`` with the first-row
    defect ``d = b - D^T c / a``.  So S is a member iff U is orthogonal and
    d = 0.  Accepts iff ``(S e)_0 = S[0,0] > 0``, ``mu > tol`` and
    ``residual_congruence = max(||U^T U - I||_F / m, ||d|| / a) <= tol``.
    factor returns the same recovered factors, so it succeeds exactly when
    this accepts.  Rejection is a normal result, not an exception.  A second
    call, or factor, on the same S and tol reuses this decision (``_decide``).
    """
    return _decide(S, tol)[0]


#: ``(ref, key, tol, check, reasons, f)``, or None: see ``_decide``.
_memo: tuple | None = None

#: Entries compared per step of the byte comparison (a 64 KiB temporary).
_COMPARE_BLOCK = 1 << 16

#: Keys of at least this many bytes (n >= 363) get their own memory map,
#: faulted in as it is made where the system can (Linux: one call, not one
#: fault per page).
_MAPPED_KEY_BYTES = 1 << 20
_MAP_OPTIONS = (
    {}
    if os.name == "nt"
    else {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)}
)


def _forget(ref: weakref.ref) -> None:
    """Empty the memo when the S its entry was made for is collected."""
    global _memo
    entry = _memo
    if entry is not None and entry[0] is ref:
        _memo = None


def _key(S: np.ndarray) -> np.ndarray:
    """A read-only copy of S for the memo, in its own memory map from
    ``_MAPPED_KEY_BYTES`` up (see ``_decide``)."""
    if S.nbytes < _MAPPED_KEY_BYTES:
        return frozen(S)
    key = np.frombuffer(mmap.mmap(-1, S.nbytes, **_MAP_OPTIONS), dtype=np.float64)
    key = key.reshape(S.shape)
    np.copyto(key, S)
    key.flags.writeable = False
    return key


def _same_bytes(S: np.ndarray, key: np.ndarray) -> bool:
    """Whether two C-contiguous float arrays of one shape hold the same bytes,
    compared in full through uint64 views, block by block, so that no
    temporary of S's size is made.  -0.0 and +0.0 differ."""
    s, k = S.view(np.uint64).reshape(-1), key.view(np.uint64).reshape(-1)
    return all(
        np.array_equal(s[i : i + _COMPARE_BLOCK], k[i : i + _COMPARE_BLOCK])
        for i in range(0, s.size, _COMPARE_BLOCK)
    )


def _hit(S: np.ndarray, tol) -> tuple | None:
    """The memo's ``(check, reasons, f)`` when its entry was made for S's
    shape, bytes and tol, else None.  ``as_float(tol)`` equals a stored tol
    only when tol is valid; the sign of a zero tol shows in refusal text."""
    entry = _memo
    if entry is None or S.shape != entry[1].shape:
        return None
    t, kept = as_float(tol), entry[2]
    if t == kept and math.copysign(1.0, t) == math.copysign(1.0, kept):
        if _same_bytes(S, entry[1]):
            return entry[3:]
    return None


def _decide(S, tol) -> tuple[AutCheckResult, str, "Factorization | None"]:
    """check_automorphism and factor through the memo: the check, the
    refusal text ('' on accept) and the frozen factors (None on refusal).

    The memo ``_memo`` holds one entry, ``(ref, key, tol, check, reasons,
    f)``: a weak reference to the caller's S, a read-only copy of its
    bytes, the tol, the three results, with ``f`` the frozen Factorization
    on accept (else None); so it holds two n x n arrays, the key and the
    factors' U.  Only a C-contiguous float64 ndarray S is looked up or
    stored.  A hit (``_hit``) needs S's shape, its bytes compared in full
    (-0.0 and +0.0 differ) and tol to equal the entry's; it returns the
    entry's values, so its bits are those of the call that made it, and S
    is not validated again, since its bytes were.  Anything else runs
    ``_check``.  A miss on such an S first empties the memo, then stores a
    new entry, its key copied after the Gram matrix is freed, so the call
    holds no more at its peak than ``_check``.  An entry lives while the
    caller's S does (``_forget``) or until another S replaces it.  Threads
    need no lock: a reader takes the whole tuple and compares its full key,
    so a race can only drop an entry, which costs a recovery, never a wrong
    answer.

    The layout keeps the heap from fragmenting in a loop of sample, check,
    factor and compose; the README's numerical notes give the measurements.
    From ``_MAPPED_KEY_BYTES`` (n >= 363) the key is held in an anonymous
    memory map (``_key``), which goes back to the system with the entry.
    ``_check`` forms U and its Gram matrix each at the head of a block of
    n^2 floats (``kernels._square_block``) and freezes (copies) U before it
    forms the Gram matrix, so it holds at most two n x n arrays besides S."""
    global _memo
    keyed = type(S) is np.ndarray and S.dtype == np.float64 and S.flags.c_contiguous
    if keyed and (hit := _hit(S, tol)) is not None:
        return hit
    S = as_square_matrix(S, "S", min_n=2)
    tol = as_nonnegative_float(tol, "tol")
    if keyed:
        _memo = None  # the old entry's arrays go before this call's
    check, parts, reasons = _check(S, tol)
    f = None
    if check.is_automorphism:
        nu, c, U, ortho = parts[:4]
        del parts  # check's Gram matrix goes before the key copy
        # Built without __post_init__: the membership gate has just checked
        # these, and _check has frozen U.
        f = object.__new__(Factorization)
        f._set(nu=nu, c=frozen(c), U=U, _residual=ortho)
        del U
    else:
        del parts  # a refusal's recovered parts go before the key copy too
    if keyed:
        _memo = (weakref.ref(S, _forget), _key(S), tol, check, reasons, f)
    return check, reasons, f


def _check(S: np.ndarray, tol: float) -> tuple[AutCheckResult, tuple | None, str]:
    """check_automorphism on validated input.  Returns the result, the
    recovered parts ``(nu, c, U, ortho, a, G, v, d)`` whenever they are
    finite (else None), and a message naming the gates that rejected ('' on
    accept): every membership refusal is worded here.  ``G = U^T U - I`` and
    ``ortho = ||G||_F``; ``v = U^T c``, read as ``D^T c / a``, and
    ``d = b - v`` is the first-row defect.  A failed residual gate is named
    by its larger scaled term, U's or d's.  U comes back frozen; its layout
    is set out in ``_decide``."""
    head = float(S[0, 0])
    cone_forward = head > 0.0
    m = len(S) - 1
    res = ortho = defect = a = math.inf
    parts = None
    # Overflow (mu, or D / nu beside a tiny first column) leaves inf or nan: res is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        mu = head * head - float(S[1:, 0] @ S[1:, 0])
        if 0.0 < mu < math.inf:
            nu = math.sqrt(mu)
            c = S[1:, 0] / nu
            a, beta = _sqrt_coefficients(c)
        if a < math.inf:
            U = np.divide(S[1:, 1:], nu, out=_square_block(m))  # the D block
            cD = c @ U
            v = cD / a
            d = S[0, 1:] / nu - v
            defect = _norm(d)
            # U = P^{-1} D = (I + gamma c c^T) D, gamma = -beta / a.
            U += _scaled_outer(c, cD, -beta / a)
            # Frozen (copied) before G is formed: U's block is free by then.
            U = frozen(U)
            G = _gram_defect(U)
            ortho = _norm(G)
    if math.isfinite(ortho + defect):
        res = max(ortho / m, defect / a)
        parts = (nu, c, U, ortho, a, G, v, d)
    check = AutCheckResult(
        is_automorphism=cone_forward and mu > tol and res <= tol,
        mu=mu,
        residual_congruence=res,
        cone_forward=cone_forward,
    )
    if check.is_automorphism:
        return check, parts, ""
    reasons = []
    if math.isnan(mu):  # inf - inf: S is finite, so both squares overflow
        reasons.append("congruence scale mu=nan: S[0,0]^2 and ||S[1:,0]||^2 both overflow")
    elif not mu > tol:
        reasons.append(f"congruence scale mu={mu:.6g} <= tol {tol:.3g}")
    if not cone_forward:
        reasons.append("cone-reversing: (S e)_0 <= 0")
    if parts is None:  # mu <= 0 or nan is the mu gate's reason alone
        if mu > 0.0:
            reasons.append(f"no finite factors at mu={mu:.6g}")
    elif not res <= tol:
        if ortho / m > defect / a:
            reasons.append("recovered " + _not_orthogonal("U", ortho, m, tol))
        else:
            reasons.append(f"first-row defect ||d|| {defect:.3e} > {tol * a:.3e}")
    return check, parts, "; ".join(reasons)


def factor(S, tol: float = DEFAULT_TOL) -> Factorization:
    """Factor an accepted S as ``nu * [[a, c^T], [c, P]] @ diag(1, U)``.

    The factors are the ones check_automorphism recovers and gates: ``nu``
    from the first column, ``c`` its tail over ``nu``, and ``U = P^{-1} D``
    through the closed-form rank-one inverse of ``P = sqrt(I + c c^T)``, an
    O(n^2) update of the D block.  The result keeps U's measured residual
    and derives the canonical ``alpha = ||c||`` and V, the Householder
    reflector aligning ``e1`` with ``c`` (identity when ``c = 0``), on
    access, so that ``c = alpha V e1`` with ``alpha >= 0``.  The stored
    factors are unique: ``S = (nu [[a, c^T], [c, P]]) diag(1, U)`` is the
    polar decomposition of the invertible S, a symmetric positive definite
    factor times an orthogonal one (the Cartan decomposition: J. Faraut and
    A. Korányi, *Analysis on Symmetric Cones*, 1994), so nu, c and U are
    S's own.  Only the canonical V is not unique: any orthogonal V with
    ``V e1 = c / alpha`` gives the same S.  The factors hold to rounding
    that grows like ``eps a^2``, and ``compose(result) ~ S``.
    Raises NotAutomorphismError, carrying the check, exactly when
    check_automorphism rejects S; the message names the gate that decided.
    After check_automorphism or factor on the same S and tol, this reuses
    that decision (``_decide``).
    """
    check, reasons, f = _decide(S, tol)
    if f is None:
        raise NotAutomorphismError("cannot factor: " + reasons, check)
    return f


def compose(f: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multiply a factorization back into a dense matrix.

    Assembled blockwise in O(n^2), without forming V or T_alpha: with
    ``a = sqrt(1+||c||^2)`` and ``P = I + beta c c^T``, the product
    ``nu * [[a, c^T],[c, P]] diag(1,U)`` has first row ``nu * [a, (c^T U)]``,
    first column ``nu * [a; c]``, and lower block ``nu * (U + beta c (c^T U))``.
    U's gate ``residual / (n-1) <= tol`` is enforced here, on the residual
    that factor or parse_factorization measured, or else on one measured now.
    """
    if not isinstance(f, Factorization):
        raise TypeError(f"expected Factorization, got {type(f).__name__}")
    f._gate(as_nonnegative_float(tol, "tol"))
    return _assemble(f.nu, f.c, f.U)


# perfbench still calls or traces these eight names, outside __all__; ROADMAP item 4 ports
# it off them, to factor, compose and Factorization, and deletes them.  Six distinct
# functions: a tracer counts each call once.
CompactFactorization = CanonicalFactorization = Factorization


def factor_compact(S, tol: float = DEFAULT_TOL) -> Factorization:
    return factor(S, tol)


def factor_canonical(S, tol: float = DEFAULT_TOL) -> Factorization:
    return factor(S, tol)


def compose_compact(f: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    return compose(f, tol)


def compose_canonical(f: Factorization, tol: float = DEFAULT_TOL) -> np.ndarray:
    return compose(f, tol)


def normalize(S, check: AutCheckResult) -> tuple[float, np.ndarray]:
    """``(sqrt(mu), S / sqrt(mu))``; kept for perfbench's tracer until ROADMAP item 4."""
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


def split_blocks(S) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks ``(a, b, c, D)`` of S; kept for perfbench's tracer until ROADMAP item 4."""
    S = as_square_matrix(S, "S", min_n=2)
    return float(S[0, 0]), S[0, 1:], S[1:, 0], S[1:, 1:]


def _scaled_outer(x: np.ndarray, y: np.ndarray, scale: float) -> np.ndarray:
    """``scale * np.outer(x, y)`` bit for bit, scaled in place.  Callers add it
    in place and drop it, so no other temporary of its size is made."""
    out = np.multiply.outer(x, y)
    out *= scale
    return out


def _assemble(nu: float, c: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``nu * [[a, c^T], [c, P]] @ diag(1, U)``, built blockwise in O(n^2) from
    finite factors; raises ValueError when ``||c||^2`` or the product overflows."""
    a, beta = _finite_sqrt_coefficients(c)
    n = 1 + c.size
    S = np.empty((n, n))
    try:
        with np.errstate(over="raise", invalid="raise"):
            cU = c @ U
            S[0, 0] = a
            S[0, 1:] = cU
            S[1:, 0] = c
            D = np.multiply.outer(c, cU, out=S[1:, 1:])
            D *= beta
            D += U  # U + beta c (c^T U), bit for bit: addition commutes
            S *= nu
    except FloatingPointError:
        raise ValueError(f"the product overflows at nu={nu:.6g}, ||c||={_norm(c):.6g}") from None
    return S


def sample_automorphism(
    n: int,
    alpha_max: float = 10.0,
    nu_range: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
) -> np.ndarray:
    """Draw a random cone automorphism, deterministically per seed.

    From ``np.random.default_rng(seed)``, in this fixed order: ``nu``
    uniform over ``nu_range``, ``alpha`` uniform over ``[0, alpha_max]``, an
    (n-1)-vector g of standard normals, then the ``m(m+1)/2`` normals
    (m = n - 1) of the Householder vectors that ``haar_orthogonal`` turns
    into a Haar orthogonal U.  The result is the composition of
    ``(nu, c = alpha g/||g||, U)``, assembled without a gate (U is
    orthogonal).

    V enters the canonical composition only through ``V e1``, and
    ``g/||g||`` is uniform on the sphere, as ``V e1`` is for a Haar V, so
    the result has the distribution of the canonical composition with a Haar
    V.  Only the n - 1 normals of g are drawn for it, not a whole
    (n-1) x (n-1) Gaussian.  Ranges whose largest entry ``nu * sqrt(1 +
    alpha^2)`` could overflow are refused with a ValueError before any draw.
    """
    n = as_index(n, "n", minimum=2)
    alpha_max = as_nonnegative_float(alpha_max, "alpha_max", finite_square=True)
    try:
        nu_min, nu_max = nu_range
    except (TypeError, ValueError):  # not iterable, or not two values
        nu_min = nu_max = math.nan
    nu_min, nu_max = as_float(nu_min), as_float(nu_max)
    if not (math.isfinite(nu_min) and math.isfinite(nu_max)):
        raise ValueError(f"nu_range must hold two finite numbers, got {nu_range!r}")
    if not 0.0 < nu_min <= nu_max:
        raise ValueError(
            f"nu_range must satisfy 0 < nu_min <= nu_max, got ({nu_min!r}, {nu_max!r})"
        )
    # Each entry is at most nu * sqrt(1 + alpha^2) up to rounding; 2 leaves room for it.
    if math.isinf(2.0 * nu_max * math.hypot(1.0, alpha_max)):
        raise ValueError(
            "nu_range and alpha_max must keep the entries finite: 2 * nu_max * "
            f"sqrt(1 + alpha_max^2) overflows, got nu_max={nu_max!r}, alpha_max={alpha_max!r}"
        )
    seed = as_index(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    nu = float(rng.uniform(nu_min, nu_max))
    alpha = float(rng.uniform(0.0, alpha_max))
    g = rng.standard_normal(n - 1)
    U = haar_orthogonal(rng, n - 1)
    return _assemble(nu, alpha * g / _norm(g), U)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X, axis=1)`` of a float matrix bit for bit: the square
    root of each row's sum of squares."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


def _sample_cone_points(
    rng: np.random.Generator, n: int, count: int, boundary: bool
) -> np.ndarray:
    """Sample cone points as rows: tail uniform on a sphere of radius
    r in (0, 10], head r (boundary) or r*(1+u), u in (0, 1] (interior)."""
    G = rng.standard_normal((count, n - 1))
    norms = _row_norms(G)
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
    """Evaluate two block identities and the cone certificate for S.

    The residuals are raw norms of the lower blocks of E = S_hat^T J S_hat - J
    for ``S_hat = S / sqrt(mu) = [[a', b^T], [c, D]]``, with mu the
    congruence scale that check_automorphism reports (see PropertyReport,
    which also says why A1 is not reported).  E is read off the parts the
    membership test recovered, in O(n^2), without forming S_hat: with
    ``U = P^{-1} D``, ``G = U^T U - I``, ``v = U^T c`` and the first-row
    defect ``d = b - v``, the identities ``D^T c = a v`` and
    ``D^T D = U^T U + v v^T`` give

        E[0, 0] = a'^2 - ||c||^2 - 1,   E[1:, 0] = a' b - a v,
        E[1:, 1:] = -G + v d^T + d b^T.

    Inputs with no finite factors (``mu`` not positive or not finite, or
    S_hat overflows) and cone-reversing inputs raise NotAutomorphismError,
    ``cannot certify:`` followed by the membership test's reasons;
    tolerance-level failures still produce a report — that is the
    diagnostic purpose of this function.

    ``cone_slack_bound`` is ``2 ||E||_F / (a'^2 - ||b||^2)``, with the head
    read off row 0.  Why it bounds the slack of every cone point x
    (x0 >= ||xbar||), with y = S_hat x:

    1. ``y0^2 - ||ybar||^2 = x^T J x + x^T E x >= -||E||_2 ||x||^2
       >= -2 ||E||_F x0^2``, using ``||E||_2 <= ||E||_F`` and
       ``||x||^2 <= 2 x0^2``; on the boundary ``x^T J x = 0``, so
       ``|y0^2 - ||ybar||^2| <= 2 ||E||_F x0^2``.
    2. ``y0 = a' x0 + b . xbar >= x0 (a' - ||b||)``, which is > 0 whenever the
       bound is finite.
    3. Hence ``||ybar|| - y0 = (||ybar||^2 - y0^2) / (||ybar|| + y0)
       <= 2 ||E||_F x0 / (a' - ||b||) = cone_slack_bound * (a' + ||b||) x0``,
       and the same for ``| ||ybar|| - y0 |`` on the boundary.

    This is the S-lemma view of cone-preserving maps (Loewy & Schneider,
    "Positive operators on the n-dimensional ice cream cone", J. Math. Anal.
    Appl. 49, 1975).

    Sampling is a library-only cross-check: with ``n_samples > 0``, S_hat is
    formed and ``n_samples`` interior and ``n_samples`` boundary points
    (seeded) are mapped through it (the cone is scale-invariant, and this
    keeps the absolute slacks meaningful at any mu): ``cone_violation_max``
    is the largest positive slack ``||ybar|| - y0`` over all images,
    ``boundary_drift_max`` the largest ``| ||ybar|| - y0 |`` over boundary
    images.  Both are 0 when ``n_samples`` is 0, the default.
    """
    S = as_square_matrix(S, "S", min_n=2)
    n_samples = as_index(n_samples, "n_samples", minimum=0)
    seed = as_index(seed, "seed", minimum=0)
    check, report, _ = _verify(S, DEFAULT_TOL)
    if n_samples == 0:
        return report
    S_hat = S / math.sqrt(check.mu)
    rng = np.random.default_rng(seed)
    cone_violation = 0.0
    for boundary in (False, True):  # interior first: the seeded draw order is fixed
        Y = _sample_cone_points(rng, len(S), n_samples, boundary) @ S_hat.T
        slack = _row_norms(Y[:, 1:]) - Y[:, 0]
        cone_violation = max(cone_violation, float(slack.max(initial=0.0)))
        if boundary:
            boundary_drift = float(np.abs(slack).max(initial=0.0))
    return replace(report, cone_violation_max=cone_violation, boundary_drift_max=boundary_drift)


def _verify(S: np.ndarray, tol: float) -> tuple[AutCheckResult, PropertyReport, bool]:
    """socaut verify on a validated S and tol: check, property_report off the
    parts it recovered, and the verdict: check accepts and A2, A3 and
    cone_slack_bound are all <= tol."""
    check, parts, reasons = _check(S, tol)
    if parts is None or not check.cone_forward:
        raise NotAutomorphismError("cannot certify: " + reasons, check)
    nu, c = parts[:2]
    a, G, v, d = parts[4:]
    del parts  # U: only its Gram matrix G is needed
    a1, b = float(S[0, 0]) / nu, S[0, 1:] / nu  # the first row of S_hat
    # E from the parts (see property_report); G becomes -E[1:, 1:] in place,
    # with v d^T + d b^T formed as one rank-2 product.
    with np.errstate(over="ignore", invalid="ignore"):
        G -= np.array((v, d)).T @ np.array((d, b))
        A2, A3 = _norms(a1 * b - a * v, G)
        norm_E = math.hypot(a1 * a1 - float(c @ c) - 1.0, A2, A2, A3)  # E is symmetric
        head = a1 * a1 - float(b @ b)
    slack_bound = 2.0 * norm_E / head if head > 0.0 else math.inf
    report = PropertyReport(
        residual_A2=A2,
        residual_A3=A3,
        cone_violation_max=0.0,
        boundary_drift_max=0.0,
        cone_slack_bound=slack_bound,
    )
    return check, report, check.is_automorphism and all(x <= tol for x in (A2, A3, slack_bound))


def _norms(*blocks: np.ndarray) -> list[float]:
    """``np.linalg.norm`` of each block, without an overflow warning.  A block
    whose entries are finite can still have squares that overflow: its norm
    is taken again after scaling it by its largest entry."""
    with np.errstate(over="ignore"):
        norms = [_norm(x) for x in blocks]
    for i, x in enumerate(blocks):
        if norms[i] == math.inf and (s := float(np.abs(x).max())) < math.inf:
            norms[i] = s * _norm(x / s)
    return norms


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
    ValueError when D fails its orthogonality gate ``residual / m <= tol``.
    """
    D = as_square_matrix(D, "D", min_n=1)
    tol = as_nonnegative_float(tol, "tol")
    _require_orthogonal(orthogonality_residual(D), len(D), "D", tol)
    n = D.shape[0] + 1
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    out[1:, 1:] = D
    return out
