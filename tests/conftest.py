"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socaut import sample_automorphism, signature_matrix

ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra: str) -> dict[str, str]:
    """Environment for a subprocess that imports socaut from this source tree."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **extra)


def run_socaut(*args: str, input: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m socaut ARGS`` as a subprocess against this source tree."""
    return subprocess.run(
        [sys.executable, "-m", "socaut", *args],
        input=input,
        capture_output=True,
        text=True,
        env=src_env(),
    )


def rel_fro(A, B) -> float:
    """Relative Frobenius distance ||A - B||_F / ||B||_F, for a nonzero B."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return float(np.linalg.norm(A - B)) / float(np.linalg.norm(B))


def congruence_defect(S, mu=None) -> float:
    """Raw ||S^T J S - mu J||_F, with mu read from entry (0,0) when absent."""
    S = np.asarray(S, dtype=float)
    J = signature_matrix(S.shape[0])
    G = S.T @ J @ S
    if mu is None:
        mu = G[0, 0]
    return float(np.linalg.norm(G - mu * J))


#: Angles (rad) between c and e1 at which the reflector head u0 - 1 cancels.
THETAS_NEAR_E1 = tuple(10.0**-k for k in range(3, 11))


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


def random_automorphisms(count, n, seed0, alpha_max=10.0, nu_range=(0.1, 10.0)):
    """Yield `count` seeded automorphisms of size n."""
    for i in range(count):
        yield sample_automorphism(n, alpha_max=alpha_max, nu_range=nu_range, seed=seed0 + i)
