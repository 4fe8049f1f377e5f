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
Factorization(nu, c, U); "compact" and "canonical" are the two ways to
write it as a document.
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

# Written as a document, the form is chosen by the writer.  The compact
# document stores c itself and reloads bit for bit; the canonical one stores
# alpha and V, and reloads to c = alpha V e1, so within V's rounding.
for form in ("compact", "canonical"):
    doc = dumps_factorization(f, form=form)
    g, _ = parse_factorization(doc)
    print(f"\n{form} document fields:", ", ".join(json.loads(doc)))
    print("reloaded reconstruction vs original:", np.linalg.norm(compose(g) - compose(f)))

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
