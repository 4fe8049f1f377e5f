"""
Residual diagnostics for the block identities
=============================================

Writing S = nu * [[a, b^T], [c, D]], membership forces the blocks of
E = (S/nu)^T J (S/nu) - J to vanish:

    A2: a b = D^T c
    A3: D^T D = I + b b^T

and A1: a = sqrt(1 + ||c||^2), which needs no check: property_report reads
nu off the first column, so dividing by it makes A1 hold.  It reads E off
the parts the membership test recovered, so a defect in any block of S
shows up in a named residual.  From the same defect it derives
cone_slack_bound, a deterministic cap on how far any cone point can be
pushed out of the cone; sampled cone statistics are an opt-in cross-check.
"""

import numpy as np

from socaut import boost_matrix, property_report, sample_automorphism

S = sample_automorphism(4, alpha_max=2.0, nu_range=(1.0, 1.0), seed=13)

clean = property_report(S, n_samples=2000, seed=0)
print("exact automorphism:")
print("  max identity residual =", clean.max_identity_residual())
# cone_slack_bound is per unit of the largest image head (a + ||b||) * x0;
# the sampled slacks are absolute, over points with x0 up to 20.
print("  cone_slack_bound      =", clean.cone_slack_bound)
print("  cone_violation_max    =", clean.cone_violation_max)
print("  boundary_drift_max    =", clean.boundary_drift_max)

# Perturb one block at a time: each identity touching that block responds
# at first order, and the certificate responds to every block.
targets = {
    "corner a": (0, 0),
    "column c": (2, 0),
    "row b   ": (0, 2),
    "block D ": (2, 3),
}
for label, (i, j) in targets.items():
    perturbed = S.copy()
    perturbed[i, j] += 1e-5
    report = property_report(perturbed, n_samples=0)
    residuals = {"A2": report.residual_A2, "A3": report.residual_A3}
    loudest = max(residuals, key=residuals.get)
    responding = sorted(k for k, v in residuals.items() if v > 1e-7)
    print(f"perturb {label}: loudest = {loudest} at {residuals[loudest]:.3e}, "
          f"responding = {responding}, cone_slack_bound = {report.cone_slack_bound:.3e}")

# A uniformly scaled automorphism is still an automorphism; the report
# normalizes the scale away rather than flagging it.
scaled = 5.0 * boost_matrix(1.0, 4)
report = property_report(scaled, n_samples=500)
print("\n5x boost: max identity residual =", report.max_identity_residual())
