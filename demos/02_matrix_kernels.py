"""
Closed-form matrix kernels
==========================

Everything the factorization needs comes from three small kernels: the
rank-one square root  sqrt(I + c c^T) = I + beta c c^T,  a Householder
reflector aligning e1 with a given direction, and Haar-distributed
orthogonal matrices.
"""

import numpy as np

from socaut import (
    RankOneSqrt,
    boost_matrix,
    householder_to_direction,
    sample_haar_orthogonal,
    signature_matrix,
    sqrt_rank_one,
)

rng = np.random.default_rng(2)

# --- rank-one square root ---------------------------------------------------
# With a = sqrt(1 + ||c||^2) the coefficient is beta = 1/(a + 1).  The
# algebraically equal form (a - 1)/||c||^2 cancels catastrophically for
# small c; the stable form does not.
c = rng.standard_normal(4)
P = sqrt_rank_one(c)
print("||P @ P - (I + c c^T)|| =", np.linalg.norm(P @ P - np.eye(4) - np.outer(c, c)))

tiny = 1e-8 * rng.standard_normal(4)
a = np.sqrt(1.0 + tiny @ tiny)
beta_naive = (a - 1.0) / (tiny @ tiny)
beta_stable = 1.0 / (a + 1.0)
print(f"beta for ||c|| ~ 1e-8: naive = {beta_naive:.17g}, stable = {beta_stable:.17g}")

# The inverse square root is the same rank-one shape: P^{-1} = I + gamma c c^T,
# with gamma = -beta / a.
gamma = RankOneSqrt(c).gamma
Q = np.eye(4) + gamma * np.outer(c, c)
print("||P @ Q - I|| =", np.linalg.norm(P @ Q - np.eye(4)))

# --- Householder alignment --------------------------------------------------
# V is symmetric, orthogonal, and sends e1 to c/||c||.
V = householder_to_direction(c)
print("||V e1 - c/||c|| || =", np.linalg.norm(V[:, 0] - c / np.linalg.norm(c)))
print("||V V^T - I|| =", np.linalg.norm(V @ V.T - np.eye(4)))

# --- Haar orthogonal sampling -----------------------------------------------
# Column means over many draws vanish: no direction is preferred.
draws = np.stack([sample_haar_orthogonal(3, seed=s) for s in range(500)])
print("max |mean entry| over 500 Haar draws =", np.abs(draws.mean(axis=0)).max())

# --- the boost --------------------------------------------------------------
# The hyperbolic rotation T_alpha satisfies T^T J T = J exactly in exact
# arithmetic; in floating point the defect stays near machine precision.
J = signature_matrix(3)
for alpha in (0.5, 10.0):
    T = boost_matrix(alpha, 3)
    print(f"alpha = {alpha}: ||T^T J T - J|| =", np.linalg.norm(T.T @ J @ T - J))
