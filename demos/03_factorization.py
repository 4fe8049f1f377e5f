"""
Membership and factorization
============================

A matrix S preserves the second-order cone exactly when S^T J S = mu J for
some mu > 0 (with J = diag(1, -1, ..., -1)) and S keeps the cone's axis
pointing forward.  Every such S factors as

    compact    S = nu * [[a, c^T], [c, P]] * diag(1, U)
    canonical  S = nu * diag(1, V) * T_alpha * diag(1, V^T) * diag(1, U)

with P = sqrt(I + c c^T), U and V orthogonal, and alpha = ||c||.
"""

import numpy as np

from socaut import (
    NotAutomorphismError,
    check_automorphism,
    compose_canonical,
    compose_compact,
    factor_canonical,
    factor_compact,
    sample_automorphism,
)

# Start from a randomly sampled cone automorphism.
S = sample_automorphism(5, alpha_max=3.0, nu_range=(0.5, 2.0), seed=42)
result = check_automorphism(S)
print("is_automorphism:", result.is_automorphism)
print("mu:", result.mu)
# The test recovers U = P^{-1} D and the first-row defect d; the residual is
# max(||U^T U - I||_F / m, ||d|| / a), at rounding level for a member.
print("residual_congruence:", result.residual_congruence)

# The compact form exposes the scale nu, the boost direction c, and the
# residual orthogonal part U.
compact = factor_compact(S)
print("\ncompact: nu =", compact.nu, " ||c|| =", np.linalg.norm(compact.c))
print("reconstruction error:", np.linalg.norm(compose_compact(compact) - S))

# The canonical form replaces (c, P) by an aligned boost: alpha = ||c|| and
# a reflector V with c = alpha * V e1.  Only V e1 enters the product, so the
# canonical factorization stores the compact c and derives alpha and V when
# they are read; ||c - alpha V e1|| is the reflector's rounding, a few ulps.
canonical = factor_canonical(S)
print("\ncanonical: nu =", canonical.nu, " alpha =", canonical.alpha)
aligned = canonical.alpha * canonical.V[:, 0]
print("||c - alpha V e1|| =", np.linalg.norm(compact.c - aligned))
print("reconstruction error:", np.linalg.norm(compose_canonical(canonical) - S))

# Both reconstructions run on the same (nu, c, U), so they agree bit for bit.
print(
    "\ncompact vs canonical reconstruction:",
    np.linalg.norm(compose_compact(compact) - compose_canonical(canonical)),
)

# A matrix that stretches one tail coordinate is not an automorphism: its
# recovered U = [[2]] is not orthogonal, and ||U^T U - I||_F / m = 3 says how
# far from the group it sits.  factor_compact refuses it with the same gate.
bad = np.diag([1.0, 2.0])
verdict = check_automorphism(bad)
print("\ndiag(1, 2):", verdict.is_automorphism, " residual:", verdict.residual_congruence)
try:
    factor_compact(bad)
except NotAutomorphismError as exc:
    print("factor_compact:", exc)
