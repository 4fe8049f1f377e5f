"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from socaut import (
    Factorization,
    automorphism,
    kernels,
    sample_automorphism,
    sample_haar_orthogonal,
    signature_matrix,
)

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


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts with an empty check/factor memo, so that a call's
    checks, Gram matrices and memory are its own."""
    automorphism._memo = None


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


def random_automorphisms(count, n, seed0, alpha_max=10.0, nu_range=(0.1, 10.0)):
    """Yield `count` seeded automorphisms of size n."""
    for i in range(count):
        yield sample_automorphism(n, alpha_max=alpha_max, nu_range=nu_range, seed=seed0 + i)


def canonical(nu, alpha, V, U) -> Factorization:
    """The factorization ``nu * diag(1, V) T_alpha diag(1, V^T) diag(1, U)``
    in its canonical form: only ``V e1`` enters it, as ``c = alpha V[:, 0]``."""
    return Factorization(nu, alpha * np.asarray(V, dtype=float)[:, 0], U)


def document_field(name: str, value) -> str:
    """One line of a factorization document, written entry by entry: a
    number, a vector on one line, or a matrix with one row per line, each
    number formatted with ``format(x, ".17g")``."""

    def row(values):
        return "[" + ", ".join(format(float(x), ".17g") for x in values) + "]"

    if np.ndim(value) == 0:
        return '  "%s": %s' % (name, format(float(value), ".17g"))
    if np.ndim(value) == 1:
        return '  "%s": %s' % (name, row(value))
    return '  "%s": [\n%s\n  ]' % (name, ",\n".join("    " + row(r) for r in value))


def canonical_document(f: Factorization, tol: float, residual: float) -> str:
    """The canonical document that ``socaut factor`` wrote by default before
    the compact document became the only one: ``form``, ``nu``, the
    canonical ``alpha`` and ``V``, ``U``, ``tol`` and the residual."""
    values = {"nu": f.nu, "alpha": f.alpha, "V": f.V, "U": f.U, "tol": tol}
    lines = ['  "form": "canonical"'] + [document_field(*item) for item in values.items()]
    lines.append(document_field("reconstruction_residual", residual))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def stretched_haar(m: int, seed: int) -> np.ndarray:
    """A Haar orthogonal matrix with its first column stretched by 1e-6."""
    M = sample_haar_orthogonal(m, seed=seed)
    M[:, 0] *= 1.0 + 1e-6
    return M


@pytest.fixture
def measured(monkeypatch):
    """Every array whose Gram matrix ``M^T M - I`` is formed, in call order:
    each orthogonality residual, and nothing else, forms one."""
    arrays = []
    gram = kernels._gram_defect

    def counting(M):
        arrays.append(M)
        return gram(M)

    monkeypatch.setattr(kernels, "_gram_defect", counting)
    monkeypatch.setattr(automorphism, "_gram_defect", counting)
    return arrays
