"""
Membership and factorization
============================

A matrix S preserves the second-order cone exactly when S^T J S = mu J for
some mu > 0 (with J = diag(1, -1, ..., -1)) and S keeps the cone's axis
pointing forward.  Every such S factors as

    compact    S = nu * [[a, c^T], [c, P]] * diag(1, U)
    canonical  S = nu * diag(1, V) * T_alpha * diag(1, V^T) * diag(1, U)

with P = sqrt(I + c c^T), U and V orthogonal, and alpha = ||c||.  Only
V e1 = c / alpha enters the canonical product, so both lines are one
Factorization(nu, c, U), and its document stores exactly (nu, c, U).
"""

import json

import numpy as np

from socaut import (
    NotAutomorphismError,
    check_automorphism,
    compose,
    factor,
    sample_automorphism,
)
from socaut.fileio import dumps_factorization, parse_factorization

# Start from a randomly sampled cone automorphism.
S = sample_automorphism(5, alpha_max=3.0, nu_range=(0.5, 2.0), seed=42)
result = check_automorphism(S)
print("is_automorphism:", result.is_automorphism)
print("mu:", result.mu)
# The test recovers U = P^{-1} D and the first-row defect d; the residual is
# max(||U^T U - I||_F / m, ||d|| / a), at rounding level for a member.
print("residual_congruence:", result.residual_congruence)

# factor returns the factors the membership test recovered: the scale nu,
# the boost direction c, and the residual orthogonal part U.
f = factor(S)
print("\nnu =", f.nu, " ||c|| =", np.linalg.norm(f.c))
print("reconstruction error:", np.linalg.norm(compose(f) - S))

# The same object derives both forms' blocks on access: a and P for the
# compact line, alpha = ||c|| and the reflector V with c = alpha * V e1 for
# the canonical one; ||c - alpha V e1|| is the reflector's rounding.
print("\ncompact:   a =", f.a, " P is", f.P.shape)
print("canonical: alpha =", f.alpha)
print("||c - alpha V e1|| =", np.linalg.norm(f.c - f.alpha * f.V[:, 0]))

# The document stores nu, c and U themselves, so it reloads bit for bit and
# writes back the same bytes.  (V is not stored: any V with V e1 = c / alpha
# gives the same S, while nu, c and U are S's own polar factors.)
doc = dumps_factorization(f)
g, _ = parse_factorization(doc)
print("\ndocument fields:", ", ".join(json.loads(doc)))
print("reloaded reconstruction vs original:", np.linalg.norm(compose(g) - compose(f)))
print("written back unchanged:", dumps_factorization(g) == doc)

# A matrix that stretches one tail coordinate is not an automorphism: its
# recovered U = [[2]] is not orthogonal, and ||U^T U - I||_F / m = 3 says how
# far from the group it sits.  factor refuses it with the same gate.
bad = np.diag([1.0, 2.0])
verdict = check_automorphism(bad)
print("\ndiag(1, 2):", verdict.is_automorphism, " residual:", verdict.residual_congruence)
try:
    factor(bad)
except NotAutomorphismError as exc:
    print("factor:", exc)
