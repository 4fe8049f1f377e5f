"""Count the membership verdicts that exact symmetries of the cone flip.

    python tools/symmetry_probe.py [--src SRC] [--members N]

socaut is imported from SRC (default: this checkout's ``src``), so the same
script measures another tree.  The members follow one recipe: from
``default_rng(1)``, member i draws n uniform in [2, 12), ``alpha_max =
10^U(0, 6)`` and ``nu = 10^U(-3, 3)``, in that order, and is
``sample_automorphism(n, alpha_max, (nu, nu), seed=i)``, for i < N (default
3,000).  The script prints how many of them ``check_automorphism`` accepts
at ``TOL`` = 1e-9, then how many verdicts each of three transformations
changes.  Each maps a member to a member and a non-member to a non-member,
and each is exact in floating point, so a scale-invariant test would flip
none:

- ``scale``: S times 2^k, k uniform in [-600, 600].  A member whose scaled
  nonzero entries would leave the normal range is skipped, since then the
  scaling rounds; the skipped count is printed beside the flips.
- ``transpose``: S^T.  The cone is self-dual, so S^T is a member iff S is.
- ``signed_permutation``: diag(1, Pi) S diag(1, Pi)^T, with Pi a random
  signed permutation: the entries of S permuted and some negated.

k, Pi and its signs come from ``default_rng(2)``, drawn for every member in
that order whether or not it is skipped, so the counts of a run over the
first N members are those of the first N members of any longer run.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: The tolerance every verdict is taken at.
TOL = 1e-9

#: The exponent range of a normal double x = m * 2^e, m in [0.5, 1).
_E_MIN, _E_MAX = -1021, 1024


def recipe(count: int, sample):
    """Yield the recipe's first ``count`` members, drawn with ``sample``
    (``socaut.sample_automorphism``)."""
    rng = np.random.default_rng(1)
    for i in range(count):
        n = int(rng.integers(2, 12))
        alpha_max = 10.0 ** rng.uniform(0.0, 6.0)
        nu = 10.0 ** rng.uniform(-3.0, 3.0)
        yield sample(n, alpha_max, (nu, nu), seed=i)


def scaled(S: np.ndarray, k: int) -> np.ndarray | None:
    """``2^k S``, or None when a nonzero entry of it would not be a normal
    double (so the product would round, overflow or underflow)."""
    nonzero = np.abs(S[S != 0.0])
    if nonzero.size:
        low, high = math.frexp(nonzero.min())[1], math.frexp(nonzero.max())[1]
        if low + k < _E_MIN or high + k > _E_MAX:
            return None
    return np.ldexp(S, k)


def conjugated(S: np.ndarray, perm: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``diag(1, Pi) S diag(1, Pi)^T`` for ``Pi = diag(signs) @ I[perm]``:
    rows and columns 1: permuted by ``perm`` and negated where ``signs`` is -1."""
    index = np.concatenate(([0], 1 + perm))
    sigma = np.concatenate(([1.0], signs))
    return sigma[:, np.newaxis] * S[np.ix_(index, index)] * sigma


def probe(count: int, check, sample) -> dict[str, int]:
    """The counts the script prints, for the first ``count`` members, with
    ``check`` and ``sample`` the library's check_automorphism and
    sample_automorphism."""
    rng = np.random.default_rng(2)
    counts = dict.fromkeys(
        ("members", "accepted", "scale", "scale_skipped", "transpose", "signed_permutation"), 0
    )
    for S in recipe(count, sample):
        m = len(S) - 1
        k = int(rng.integers(-600, 601))
        perm, signs = rng.permutation(m), rng.choice([-1.0, 1.0], size=m)
        verdict = check(S, TOL).is_automorphism
        counts["members"] += 1
        counts["accepted"] += verdict
        big = scaled(S, k)
        if big is None:
            counts["scale_skipped"] += 1
        else:
            counts["scale"] += check(big, TOL).is_automorphism != verdict
        counts["transpose"] += check(S.T, TOL).is_automorphism != verdict
        twin = conjugated(S, perm, signs)
        counts["signed_permutation"] += check(twin, TOL).is_automorphism != verdict
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory socaut is imported from"
    )
    parser.add_argument("--members", type=int, default=3000, help="recipe members (default 3000)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from socaut import check_automorphism, sample_automorphism

    counts = probe(args.members, check_automorphism, sample_automorphism)
    print(f"members {counts['members']}")
    print(f"accepted {counts['accepted']} at tol {TOL:g}")
    print(f"flips scale {counts['scale']} (skipped {counts['scale_skipped']})")
    print(f"flips transpose {counts['transpose']}")
    print(f"flips signed_permutation {counts['signed_permutation']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
