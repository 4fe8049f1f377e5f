"""End-to-end acceptance suite.

One test per headline guarantee, each with its tolerance pinned inline:

1. round-trip fidelity of the factorization across sizes
2. boost matrices satisfy the J-congruence and map the cone into itself
3. block-identity residuals vanish on automorphisms and detect perturbations
4. the membership classifier accepts all sampled automorphisms and rejects
   a structured suite of non-automorphisms
5. the closed-form rank-one square root matches an eigendecomposition oracle
   across fourteen orders of magnitude
6. group laws: products and congruence-inverses stay in the group with
   multiplicative scale factors
7. orthogonal embeddings preserve the Jordan product and fix the unit
8. factorization at n = 1000 within the time budget
9. CLI exit codes and file round-trip stability

Each test reads as one pass/fail line under ``pytest -v``.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.testing import assert_array_equal

from socaut import (
    algebra_automorphism,
    boost_matrix,
    check_automorphism,
    compose,
    factor,
    property_report,
    sample_automorphism,
    sample_haar_orthogonal,
    signature_matrix,
    sqrt_rank_one,
    unit,
)
from socaut import automorphism
from socaut.cli import main
from socaut.fileio import dumps_matrix, parse_matrix

from conftest import rel_fro, run_socaut


def jordan_product_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise spin Jordan product, written out independently of the library."""
    head = np.sum(X * Y, axis=1, keepdims=True)
    tail = X[:, :1] * Y[:, 1:] + Y[:, :1] * X[:, 1:]
    return np.hstack([head, tail])


def sample_cone_rows(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Half boundary points, half strictly interior, radii in (0, 10]."""
    directions = rng.standard_normal((count, n - 1))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = 10.0 - rng.uniform(0.0, 10.0, size=(count, 1))
    xbar = directions / norms * radii
    x0 = radii.copy()
    lift = 1.0 + (1.0 - rng.random((count // 2, 1)))
    x0[: count // 2] *= lift
    return np.hstack([x0, xbar])


def test_round_trip_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5, 10, 50):
        for i in range(1000):
            S = sample_automorphism(
                n, alpha_max=10.0, nu_range=(0.1, 10.0), seed=1_000_000 * n + i
            )
            worst = max(worst, np.linalg.norm(compose(factor(S)) - S) / np.linalg.norm(S))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_boost_congruence_and_cone_containment():
    rng = np.random.default_rng(41)
    for alpha in (0.0, 0.5, 1.0, 10.0, 1e4):
        for n in (2, 3, 8):
            T = boost_matrix(alpha, n)
            J = signature_matrix(n)
            congruence = np.linalg.norm(T.T @ J @ T - J)
            assert congruence <= 1e-9 * (1.0 + alpha**2)

            X = sample_cone_rows(rng, n, 10_000)
            Y = X @ T.T
            slack = np.linalg.norm(Y[:, 1:], axis=1) - Y[:, 0]
            scale = np.maximum(1.0, np.hypot(Y[:, 0], np.linalg.norm(Y[:, 1:], axis=1)))
            violations = np.count_nonzero(slack / scale > 1e-9)
            assert violations == 0


def test_identity_residuals_and_detection_power():
    rng = np.random.default_rng(52)
    for n in (2, 5, 20):
        for i in range(500):
            S = sample_automorphism(
                n, alpha_max=10.0, nu_range=(1.0, 1.0), seed=2_000_000 * n + i
            )
            clean = property_report(S, n_samples=0)
            assert clean.max_identity_residual() <= 1e-10

            perturbed = S.copy()
            row = int(rng.integers(n))
            col = int(rng.integers(n))
            perturbed[row, col] += float(rng.choice([-1.0, 1.0])) * 1e-4
            noisy = property_report(perturbed, n_samples=0)
            assert noisy.max_identity_residual() > 1e-6


def test_membership_classifier_acceptance_and_rejection():
    false_rejections = 0
    sizes = (2, 3, 5, 10)
    for i in range(10_000):
        n = sizes[i % len(sizes)]
        S = sample_automorphism(
            n, alpha_max=10.0, nu_range=(0.1, 10.0), seed=3_000_000 + i
        )
        if not check_automorphism(S).is_automorphism:
            false_rejections += 1
    assert false_rejections == 0

    rng = np.random.default_rng(64)
    rejected = 0
    cases = 0
    for i in range(250):
        n = sizes[i % len(sizes)]
        reversing = np.diag([-1.0] + [1.0] * (n - 1))
        stretched = np.diag(np.arange(1.0, n + 1.0))
        singular = rng.standard_normal((n, n))
        singular[:, -1] = singular[:, 0]
        gaussian = rng.standard_normal((n, n))
        for M in (reversing, stretched, singular, gaussian):
            cases += 1
            if not check_automorphism(M).is_automorphism:
                rejected += 1
    assert cases == 1000
    assert rejected == cases


def test_rank_one_sqrt_matches_eigh_oracle():
    rng = np.random.default_rng(75)
    for m in (1, 4, 49):
        norms = np.concatenate(
            [[1e-12, 1e6], 10.0 ** rng.uniform(-12.0, 6.0, size=98)]
        )
        for target in norms:
            direction = rng.standard_normal(m)
            direction /= np.linalg.norm(direction)
            c = target * direction
            closed = sqrt_rank_one(c)

            w, Q = np.linalg.eigh(np.eye(m) + np.outer(c, c))
            oracle = (Q * np.sqrt(w)) @ Q.T

            # 1e-11 at unit scale; for large ‖c‖ the comparison inherits the
            # oracle's own eps·‖I+ccᵀ‖ eigenvalue error, so the bound scales
            # with the input norm 1 + ‖c‖².
            bound = 1e-11 * max(1.0, 1.0 + target * target)
            assert np.max(np.abs(closed - oracle)) <= bound


def test_group_laws_products_and_inverses():
    sizes = (2, 3, 5, 8, 21)
    for i in range(1000):
        n = sizes[i % len(sizes)]
        S1 = sample_automorphism(
            n, alpha_max=10.0, nu_range=(0.1, 10.0), seed=4_000_000 + 2 * i
        )
        S2 = sample_automorphism(
            n, alpha_max=10.0, nu_range=(0.1, 10.0), seed=4_000_001 + 2 * i
        )
        r1 = check_automorphism(S1)
        r2 = check_automorphism(S2)
        product = check_automorphism(S1 @ S2)
        assert product.is_automorphism
        assert abs(product.mu - r1.mu * r2.mu) <= 1e-8 * r1.mu * r2.mu

        J = signature_matrix(n)
        inverse = (J @ S1.T @ J) / r1.mu
        r_inv = check_automorphism(inverse)
        assert r_inv.is_automorphism
        assert abs(r_inv.mu * r1.mu - 1.0) <= 1e-8


def test_algebra_automorphisms_preserve_jordan_product():
    for n in (2, 3, 10):
        e_n = unit(n).to_array()
        rng = np.random.default_rng(86 + n)
        for i in range(100):
            D = sample_haar_orthogonal(n - 1, seed=5_000_000 * n + i)
            L = algebra_automorphism(D)
            assert_array_equal(L @ e_n, e_n)

            X = rng.standard_normal((100, n))
            Y = rng.standard_normal((100, n))
            mapped = jordan_product_rows(X @ L.T, Y @ L.T)
            direct = jordan_product_rows(X, Y) @ L.T
            assert np.max(np.abs(mapped - direct)) <= 1e-10


def test_factor_scales_to_n_1000():
    factor(sample_automorphism(100, seed=7))  # warm the kernels
    S = sample_automorphism(1000, alpha_max=10.0, nu_range=(0.5, 2.0), seed=97)
    best = float("inf")
    for _ in range(2):
        automorphism._memo = None  # time a recovery, not a memo hit
        started = time.perf_counter()
        f = factor(S)
        best = min(best, time.perf_counter() - started)
    assert best < 1.0
    assert rel_fro(compose(f), S) <= 1e-8


def test_cli_exit_codes_and_file_round_trip(tmp_path, capsys):
    # Exit-code table: 0 accepted, 1 mathematical rejection, 2 malformed.
    good = tmp_path / "good.json"
    good.write_text(dumps_matrix(boost_matrix(1.0, 3)))
    stretched = tmp_path / "stretched.json"
    stretched.write_text(dumps_matrix(np.diag([1.0, 2.0])))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"n": 2, "data": [[1, 0], [0]]}')
    bad_fact = tmp_path / "bad_fact.json"
    bad_fact.write_text(
        '{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1, 0], [0, 2]]}'
    )
    perturbed = boost_matrix(1.0, 3)
    perturbed[0, 0] += 1e-3
    drifted = tmp_path / "drifted.json"
    drifted.write_text(dumps_matrix(perturbed))

    table = [
        (["check", str(good), "--quiet"], 0),
        (["check", str(stretched), "--quiet"], 1),
        (["check", str(malformed), "--quiet"], 2),
        (["check", str(tmp_path / "missing.json"), "--quiet"], 2),
        (["factor", str(good), "--quiet"], 0),
        (["factor", str(stretched), "--quiet"], 1),
        (["compose", str(bad_fact), "--quiet"], 1),
        (["compose", str(malformed), "--quiet"], 2),
        (["sample", "4", "2", "--quiet"], 0),
        (["sample", "1", "2", "--quiet"], 2),
        (["sample", "4", "2", "--nu-min", "-1", "--quiet"], 2),
        (["verify", str(good), "--quiet"], 0),
        (["verify", str(drifted), "--quiet"], 1),
    ]
    for argv, expected in table:
        assert main(argv) == expected, f"{argv} expected exit {expected}"
    capsys.readouterr()

    # File round trip over 50 sampled matrices: factor, compose, and the
    # composed document must be a fixed point of re-serialization.
    for i in range(50):
        S = sample_automorphism(
            4, alpha_max=10.0, nu_range=(0.1, 10.0), seed=6_000_000 + i
        )
        src = tmp_path / "m.json"
        src.write_text(dumps_matrix(S))
        fact = tmp_path / "f.json"
        out = tmp_path / "out.json"
        assert main(["factor", str(src), "--output", str(fact)]) == 0
        assert main(["compose", str(fact), "--output", str(out)]) == 0
        text = out.read_text()
        M = parse_matrix(text)
        assert rel_fro(M, S) <= 1e-8
        assert dumps_matrix(M) == text
    capsys.readouterr()

    # The same pipeline holds at the process level.
    sampled = run_socaut("sample", "3", "1", "--seed", "12")
    assert sampled.returncode == 0
    checked = run_socaut("check", "-", input=sampled.stdout)
    assert checked.returncode == 0
