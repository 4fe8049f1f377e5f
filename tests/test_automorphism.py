"""Membership, factorization, composition, sampling, and the identity report."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from socaut import (
    CanonicalFactorization,
    CompactFactorization,
    ConeRegion,
    NotAutomorphismError,
    RankOneSqrt,
    SpinVector,
    algebra_automorphism,
    apply,
    boost_matrix,
    check_automorphism,
    compose_canonical,
    compose_compact,
    cone_classify,
    factor_canonical,
    factor_compact,
    jordan_product,
    normalize,
    orthogonality_residual,
    property_report,
    sample_automorphism,
    sample_haar_orthogonal,
    signature_matrix,
    split_blocks,
    sqrt_rank_one,
    unit,
)
from socaut import automorphism
from socaut.kernels import haar_orthogonal
from conftest import THETAS_NEAR_E1, random_automorphisms, rel_fro

EPS = float(np.finfo(float).eps)


@pytest.fixture
def calls(monkeypatch):
    """Names of the validations and block helpers ``socaut.automorphism`` calls."""
    calls = []
    validate = automorphism.as_square_matrix

    def counting_validate(M, name="M", min_n=1):
        calls.append(f"as_square_matrix {name}")
        return validate(M, name, min_n)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(automorphism, "as_square_matrix", counting_validate)
    for name in ("check_automorphism", "normalize", "split_blocks"):
        monkeypatch.setattr(automorphism, name, counting(name, getattr(automorphism, name)))
    return calls


class TestSplitBlocks:
    def test_identity(self):
        bl = split_blocks(np.eye(3))
        assert bl.a == 1.0
        assert_array_equal(bl.b, np.zeros(2))
        assert_array_equal(bl.c, np.zeros(2))
        assert_array_equal(bl.D, np.eye(2))

    def test_boost_layout(self):
        bl = split_blocks(boost_matrix(1.0, 3))
        s2 = math.sqrt(2.0)
        assert bl.a == s2
        assert_array_equal(bl.b, [1.0, 0.0])
        assert_array_equal(bl.c, [1.0, 0.0])
        assert_array_equal(bl.D, np.diag([s2, 1.0]))

    def test_reassemble_lossless(self, rng):
        S = rng.standard_normal((7, 7))
        assert_array_equal(split_blocks(S).reassemble(), S)

    def test_rejects_small_or_nonsquare(self):
        with pytest.raises(ValueError):
            split_blocks(np.ones((1, 1)))
        with pytest.raises(ValueError):
            split_blocks(np.ones((2, 3)))


class TestCheckAutomorphism:
    def test_signature_matrix_accepted(self):
        res = check_automorphism(signature_matrix(3))
        assert res.is_automorphism
        assert res.mu == 1.0
        assert res.residual_congruence == 0.0
        assert res.cone_forward

    def test_cone_reversing_rejected(self):
        res = check_automorphism(np.diag([-1.0, 1.0, 1.0, 1.0]))
        assert not res.is_automorphism
        assert not res.cone_forward
        assert res.mu == 1.0
        assert res.residual_congruence == 0.0

    def test_non_congruent_rejected(self):
        # S = diag(1, 2): S^T J S = diag(1, -4), off from mu J = diag(1, -1)
        # by diag(0, 3); ||S||_F^2 = 5, so the scaled residual is 0.6.
        res = check_automorphism(np.diag([1.0, 2.0]))
        assert not res.is_automorphism
        assert res.mu == 1.0
        assert res.residual_congruence == pytest.approx(0.6)

    def test_uniform_scaling_accepted(self):
        res = check_automorphism(3.0 * np.eye(5))
        assert res.is_automorphism
        assert res.mu == 9.0

    def test_singular_rejected(self):
        S = np.ones((4, 4))
        assert not check_automorphism(S).is_automorphism

    def test_gaussian_rejected(self, rng):
        S = rng.standard_normal((5, 5))
        assert not check_automorphism(S).is_automorphism

    def test_mu_gate_is_absolute(self):
        # Scaling an automorphism down to mu <= tol trips the positivity
        # gate even though the congruence residual stays tiny.
        S = 1e-5 * np.eye(3)
        res = check_automorphism(S, tol=1e-9)
        assert res.mu == pytest.approx(1e-10)
        assert not res.is_automorphism
        assert check_automorphism(1e-3 * np.eye(3), tol=1e-9).is_automorphism

    @pytest.mark.parametrize(
        "tol", [-1e-9, math.inf, math.nan, pytest.param(10**400, id="1e400"), None, "abc"]
    )
    def test_tol_validation_message(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite non-negative number"):
            check_automorphism(np.eye(3), tol=tol)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            check_automorphism(np.ones((3, 2)))
        with pytest.raises(ValueError):
            check_automorphism(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestNormalize:
    def test_scaling(self):
        S = 3.0 * np.eye(4)
        nu, S_hat = normalize(S, check_automorphism(S))
        assert nu == 3.0
        assert_array_equal(S_hat, np.eye(4))

    def test_boost_already_normalized(self):
        S = boost_matrix(2.0, 4)
        nu, S_hat = normalize(S, check_automorphism(S))
        assert nu == pytest.approx(1.0, abs=1e-15)
        assert_allclose(S_hat, S, rtol=1e-15)

    def test_homogeneity(self):
        S = 5.0 * boost_matrix(1.0, 3)
        nu, S_hat = normalize(S, check_automorphism(S))
        assert nu == pytest.approx(5.0, rel=1e-15)
        assert_allclose(S_hat, boost_matrix(1.0, 3), rtol=1e-14)

    def test_rejected_input_raises(self):
        S = np.diag([1.0, 2.0])
        with pytest.raises(NotAutomorphismError) as exc_info:
            normalize(S, check_automorphism(S))
        assert exc_info.value.check is not None
        assert not exc_info.value.check.is_automorphism


class TestFactorCompact:
    def test_identity(self):
        f = factor_compact(np.eye(4))
        assert f.nu == 1.0
        assert_array_equal(f.c, np.zeros(3))
        assert_array_equal(f.U, np.eye(3))
        assert f.a == 1.0
        assert_array_equal(f.P, np.eye(3))

    def test_boost(self):
        f = factor_compact(boost_matrix(1.0, 3))
        assert f.nu == pytest.approx(1.0, abs=1e-15)
        assert_allclose(f.c, [1.0, 0.0], atol=1e-15)
        assert_allclose(f.U, np.eye(2), atol=1e-15)

    def test_algebra_automorphism_case(self):
        D0 = sample_haar_orthogonal(4, seed=9)
        f = factor_compact(algebra_automorphism(D0))
        assert f.nu == 1.0
        assert_allclose(f.c, np.zeros(4), atol=1e-15)
        assert_allclose(f.U, D0, atol=1e-14)

    def test_recovers_known_factors(self):
        rng = np.random.default_rng(77)
        for m in (1, 2, 4, 9):
            nu = float(rng.uniform(0.2, 5.0))
            c = rng.standard_normal(m) * 3.0
            U = sample_haar_orthogonal(m, seed=int(rng.integers(1 << 30)))
            S = compose_compact(CompactFactorization(nu=nu, c=c, U=U))
            f = factor_compact(S)
            assert f.nu == pytest.approx(nu, rel=1e-10)
            assert_allclose(f.c, c, rtol=1e-9, atol=1e-12)
            assert_allclose(f.U, U, rtol=1e-9, atol=1e-12)

    def test_round_trip(self):
        for i, S in enumerate(random_automorphisms(20, 6, seed0=300)):
            f = factor_compact(S)
            assert rel_fro(compose_compact(f), S) <= 1e-12

    def test_orthogonality_gate_catches_inconsistent_input(self):
        # A perturbed boost that still passes the congruence test at a loose
        # tolerance, but whose recovered U is visibly non-orthogonal.
        S = boost_matrix(40.0, 3)
        S[2, 2] += 1e-3
        tol = 1e-4
        assert check_automorphism(S, tol).is_automorphism
        with pytest.raises(NotAutomorphismError, match="orthogonal") as excinfo:
            factor_compact(S, tol)
        assert excinfo.value.check.is_automorphism
        message = str(excinfo.value)
        assert "recovered U" in message
        assert f"> {tol * 2:.3e}" in message  # the bound tol * m, m = 2

    def test_rejected_input_raises(self):
        with pytest.raises(NotAutomorphismError):
            factor_compact(np.diag([1.0, 2.0]))

    def test_rejection_names_the_mu_gate(self):
        # 0 < mu <= tol: the residual is 0, so only the mu gate can explain it.
        with pytest.raises(NotAutomorphismError, match=r"mu=1e-12 <= tol 1e-09"):
            factor_compact(1e-6 * np.eye(3))


@pytest.fixture
def congruence_mus(monkeypatch):
    """``(S^T J S)[0, 0]`` of each ``automorphism._congruence`` call, in order."""
    mus = []
    congruence = automorphism._congruence

    def recording(S):
        left, right = congruence(S)
        mus.append(float(left[0, 0]))
        return left, right

    monkeypatch.setattr(automorphism, "_congruence", recording)
    return mus


class TestCongruence:
    """check, factor and the report form S^T J S and S J S^T once, in one place."""

    @pytest.mark.parametrize("call", [check_automorphism, property_report, factor_compact])
    def test_each_call_forms_the_products_once(self, call, congruence_mus):
        call(sample_automorphism(5, nu_range=(0.5, 2.0), seed=4))
        assert len(congruence_mus) == 1

    def test_report_normalizes_by_the_checked_mu(self, congruence_mus):
        S = sample_automorphism(5, alpha_max=3.0, nu_range=(2.0, 3.0), seed=4)
        mu = check_automorphism(S).mu
        assert abs(mu - 1.0) > 0.1
        property_report(S)
        assert np.array(congruence_mus).tobytes() == np.array([mu, mu]).tobytes()


class TestFactorPath:
    """factor_* validates S once, in one check_automorphism call, and reads
    its blocks off S itself."""

    @pytest.mark.parametrize("factor", [factor_compact, factor_canonical])
    def test_validates_s_once_and_skips_normalize_and_split_blocks(self, factor, calls):
        factor(sample_automorphism(5, nu_range=(0.5, 2.0), seed=4))
        assert calls.count("as_square_matrix S") == 1
        assert calls.count("check_automorphism") == 1
        assert not {"normalize", "split_blocks"} & set(calls)

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_equals_the_public_normalize_and_split_route(self, n):
        for S in random_automorphisms(3, n, seed0=700 + n):
            nu, S_hat = normalize(S, check_automorphism(S))
            assert nu != 1.0
            blocks = split_blocks(S_hat)
            gamma = RankOneSqrt.from_vector(blocks.c).gamma
            U = blocks.D + gamma * np.outer(blocks.c, blocks.c @ blocks.D)
            f = factor_compact(S)
            assert f.nu == nu
            assert f.c.tobytes() == blocks.c.tobytes()
            assert f.U.tobytes() == U.tobytes()


class TestFactorCanonical:
    def test_identity(self):
        f = factor_canonical(np.eye(5))
        assert (f.nu, f.alpha) == (1.0, 0.0)
        assert_array_equal(f.V, np.eye(4))
        assert_array_equal(f.U, np.eye(4))

    def test_boost_alignment(self):
        f = factor_canonical(boost_matrix(2.5, 4))
        assert f.nu == pytest.approx(1.0, abs=1e-15)
        assert f.alpha == pytest.approx(2.5, rel=1e-15)
        e1 = np.array([1.0, 0.0, 0.0])
        assert_allclose(f.V @ e1, e1, atol=1e-15)
        assert_allclose(f.U, np.eye(3), atol=1e-14)

    def test_two_dimensional_hand_case(self):
        # S built from (nu=2, alpha=3, V=[[-1]], U=[[1]]):
        # S = 2 * [[sqrt(10), -3], [-3, sqrt(10)]]
        S = compose_canonical(
            CanonicalFactorization(2.0, 3.0, np.array([[-1.0]]), np.array([[1.0]]))
        )
        assert_allclose(
            S, [[2.0 * math.sqrt(10.0), -6.0], [-6.0, 2.0 * math.sqrt(10.0)]], rtol=1e-15
        )
        f = factor_canonical(S)
        assert f.nu == pytest.approx(2.0, rel=1e-12)
        assert f.alpha == pytest.approx(3.0, rel=1e-12)
        assert rel_fro(compose_canonical(f), S) <= 1e-10

    def test_alpha_zero_collapse(self):
        D0 = sample_haar_orthogonal(5, seed=21)
        f = factor_canonical(algebra_automorphism(D0))
        assert f.alpha <= 1e-12
        assert_array_equal(f.V, np.eye(5))

    def test_alignment_policy(self):
        # c = alpha V e1 with alpha = ||c|| >= 0, never a flipped sign.
        for i, S in enumerate(random_automorphisms(10, 5, seed0=50)):
            f = factor_canonical(S)
            c = split_blocks(S).c / f.nu
            assert f.alpha >= 0.0
            assert_allclose(f.alpha * (f.V @ np.array([1.0, 0.0, 0.0, 0.0])), c, atol=1e-10)

    def test_round_trip(self):
        for n in (2, 3, 5, 8, 21):
            for i, S in enumerate(random_automorphisms(10, n, seed0=1000 + n)):
                f = factor_canonical(S)
                assert rel_fro(compose_canonical(f), S) <= 1e-12

    def test_round_trip_with_c_near_e1(self):
        # c at an angle theta from e1: V's first column carries c, so an
        # inaccurate reflector shows up directly in the reconstruction.
        alpha, n = 2.0, 3
        bound = 64 * n * EPS * (1.0 + alpha * alpha)
        for theta in THETAS_NEAR_E1:
            c = alpha * np.array([math.cos(theta), math.sin(theta)])
            S = compose_compact(CompactFactorization(nu=1.0, c=c, U=np.eye(2)))
            S_back = compose_canonical(factor_canonical(S))
            assert np.linalg.norm(S_back - S) / np.linalg.norm(S) <= bound, theta


class TestCompose:
    def test_compact_identity(self):
        f = CompactFactorization(nu=1.0, c=np.zeros(3), U=np.eye(3))
        assert_array_equal(compose_compact(f), np.eye(4))

    def test_compact_boost(self):
        c = np.array([2.0, 0.0, 0.0])
        f = CompactFactorization(nu=1.0, c=c, U=np.eye(3))
        assert_allclose(compose_compact(f), boost_matrix(2.0, 4), rtol=1e-15)

    def test_canonical_boost(self):
        f = CanonicalFactorization(nu=1.0, alpha=1.5, V=np.eye(2), U=np.eye(2))
        assert_allclose(compose_canonical(f), boost_matrix(1.5, 3), atol=1e-15)

    def test_canonical_alpha_zero_is_block_diagonal(self):
        V = sample_haar_orthogonal(4, seed=31)
        U = sample_haar_orthogonal(4, seed=32)
        S = compose_canonical(CanonicalFactorization(nu=1.0, alpha=0.0, V=V, U=U))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        expected[1:, 1:] = U
        assert_allclose(S, expected, atol=1e-14)

    def test_congruence_of_composed(self):
        rng = np.random.default_rng(8)
        J4 = signature_matrix(5)
        for _ in range(25):
            nu = float(rng.uniform(0.1, 10.0))
            alpha = float(rng.uniform(0.0, 10.0))
            V = sample_haar_orthogonal(4, seed=int(rng.integers(1 << 30)))
            U = sample_haar_orthogonal(4, seed=int(rng.integers(1 << 30)))
            S = compose_canonical(CanonicalFactorization(nu, alpha, V, U))
            res = check_automorphism(S)
            assert res.is_automorphism
            assert res.mu == pytest.approx(nu * nu, rel=1e-12)
            defect = max(
                np.linalg.norm(S.T @ J4 @ S - nu * nu * J4),
                np.linalg.norm(S @ J4 @ S.T - nu * nu * J4),
            )
            assert defect <= 1e-10 * max(1.0, np.linalg.norm(S) ** 2)

    def test_canonical_c_is_the_compact_view(self):
        V = sample_haar_orthogonal(4, seed=8)
        U = sample_haar_orthogonal(4, seed=9)
        f = CanonicalFactorization(nu=1.5, alpha=3.0, V=V, U=U)
        assert_array_equal(f.c, 3.0 * V[:, 0])
        compact = CompactFactorization(nu=f.nu, c=f.c, U=f.U)
        assert_array_equal(compose_canonical(f), compose_compact(compact))

    def test_two_routes_agree(self):
        # Oracle: the literal four-factor product
        # nu * diag(1,V) @ T_alpha @ diag(1,V^T) @ diag(1,U), against the
        # blockwise assembly both compositions use (c = alpha V e1).
        def embed(M):
            out = np.eye(M.shape[0] + 1)
            out[1:, 1:] = M
            return out

        rng = np.random.default_rng(999)
        for m in (1, 2, 4, 19, 100):
            n = m + 1
            for alpha in (0.0, 1.0, 10.0, 1e4):
                nu = float(rng.uniform(0.1, 10.0))
                V = sample_haar_orthogonal(m, seed=int(rng.integers(1 << 30)))
                U = sample_haar_orthogonal(m, seed=int(rng.integers(1 << 30)))
                literal = nu * embed(V) @ boost_matrix(alpha, n) @ embed(V.T) @ embed(U)
                bound = 64 * n * EPS * (1.0 + alpha * alpha) * np.linalg.norm(literal)
                canonical = compose_canonical(CanonicalFactorization(nu, alpha, V, U))
                assert np.linalg.norm(canonical - literal) <= bound, (m, alpha)
                compact = compose_compact(
                    CompactFactorization(nu=nu, c=alpha * V[:, 0], U=U)
                )
                assert np.linalg.norm(compact - literal) <= bound, (m, alpha)

    def test_determinant_is_unimodular_up_to_scale(self):
        rng = np.random.default_rng(44)
        for alpha in (0.0, 1.0, 10.0, 1e4):
            V = sample_haar_orthogonal(3, seed=int(rng.integers(1 << 30)))
            U = sample_haar_orthogonal(3, seed=int(rng.integers(1 << 30)))
            S = compose_canonical(CanonicalFactorization(1.0, alpha, V, U))
            assert abs(abs(np.linalg.det(S)) - 1.0) <= 1e-9 * (1.0 + alpha * alpha)

    @pytest.mark.parametrize("nu", [0.0, math.nan, pytest.param(10**400, id="1e400"), None, "abc"])
    def test_factorization_nu_message(self, nu):
        with pytest.raises(ValueError, match="nu must be a finite positive number"):
            CompactFactorization(nu, [1.0], np.eye(1))

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            CompactFactorization(nu=0.0, c=np.zeros(2), U=np.eye(2))
        with pytest.raises(ValueError):
            CompactFactorization(nu=-2.0, c=np.zeros(2), U=np.eye(2))
        with pytest.raises(ValueError):
            CanonicalFactorization(nu=1.0, alpha=-0.1, V=np.eye(2), U=np.eye(2))
        with pytest.raises(ValueError):
            CompactFactorization(nu=1.0, c=np.zeros(2), U=np.eye(3))
        with pytest.raises(ValueError, match="orthogonal"):
            compose_compact(CompactFactorization(nu=1.0, c=np.zeros(2), U=np.diag([1.0, 2.0])))
        with pytest.raises(ValueError, match="orthogonal"):
            compose_canonical(
                CanonicalFactorization(nu=1.0, alpha=1.0, V=np.diag([1.0, 2.0]), U=np.eye(2))
            )
        with pytest.raises(TypeError):
            compose_compact(np.eye(3))
        with pytest.raises(TypeError):
            compose_canonical(np.eye(3))


class TestSampleAutomorphism:
    @pytest.mark.parametrize(
        "n,alpha_max,nu_range", [(2, 10.0, (1.0, 1.0)), (7, 1e4, (1e-3, 1e3))]
    )
    def test_equals_gated_composition_of_its_draws(self, n, alpha_max, nu_range):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            nu = float(rng.uniform(*nu_range))
            alpha = float(rng.uniform(0.0, alpha_max))
            V = haar_orthogonal(rng, n - 1)
            U = haar_orthogonal(rng, n - 1)
            f = CanonicalFactorization(nu=nu, alpha=alpha, V=V, U=U)
            assert_array_equal(
                sample_automorphism(n, alpha_max, nu_range, seed), compose_canonical(f)
            )

    def test_deterministic(self):
        A = sample_automorphism(6, seed=5)
        B = sample_automorphism(6, seed=5)
        assert_array_equal(A, B)
        assert not np.array_equal(A, sample_automorphism(6, seed=6))

    def test_always_accepted(self):
        for n in (2, 3, 7):
            for i, S in enumerate(random_automorphisms(25, n, seed0=4000 + 100 * n)):
                res = check_automorphism(S)
                assert res.is_automorphism
                assert 0.1**2 * (1 - 1e-9) <= res.mu <= 10.0**2 * (1 + 1e-9)

    def test_alpha_zero_subgroup(self):
        S = sample_automorphism(5, alpha_max=0.0, nu_range=(1.0, 1.0), seed=3)
        assert S[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert_allclose(S[0, 1:], np.zeros(4), atol=1e-14)
        assert_allclose(S[1:, 0], np.zeros(4), atol=1e-14)
        assert orthogonality_residual(S[1:, 1:]) <= 1e-13

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            sample_automorphism(1)
        with pytest.raises(ValueError):
            sample_automorphism(4, alpha_max=-1.0)
        with pytest.raises(ValueError):
            sample_automorphism(4, nu_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            sample_automorphism(4, nu_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            sample_automorphism(4, seed=-3)

    @pytest.mark.parametrize(
        "alpha_max", [-1.0, math.inf, pytest.param(10**400, id="1e400"), None, "abc"]
    )
    def test_alpha_max_message(self, alpha_max):
        with pytest.raises(ValueError, match="alpha_max must be a finite non-negative number"):
            sample_automorphism(4, alpha_max=alpha_max)

    @pytest.mark.parametrize(
        "nu_range",
        [pytest.param((10**400, 10**401), id="1e400"), (1.0, math.inf), (None, 1.0), ("abc", 1.0)],
    )
    def test_nu_range_message(self, nu_range):
        with pytest.raises(ValueError, match="nu_range must hold two finite numbers"):
            sample_automorphism(4, nu_range=nu_range)


class TestGroupStructure:
    def test_products_and_inverses(self):
        J = signature_matrix(5)
        pairs = zip(
            random_automorphisms(30, 5, seed0=6000),
            random_automorphisms(30, 5, seed0=7000),
        )
        for S1, S2 in pairs:
            r1 = check_automorphism(S1)
            r2 = check_automorphism(S2)
            r12 = check_automorphism(S1 @ S2)
            assert r12.is_automorphism
            assert r12.mu == pytest.approx(r1.mu * r2.mu, rel=1e-10)
            S_inv = (1.0 / r1.mu) * (J @ S1.T @ J)
            r_inv = check_automorphism(S_inv)
            assert r_inv.is_automorphism
            assert r_inv.mu * r1.mu == pytest.approx(1.0, rel=1e-10)
            assert_allclose(S_inv @ S1, np.eye(5), atol=1e-11 * max(1.0, r1.mu))

    def test_trace_identity(self):
        # For normalized members, ||b|| = ||c||: both orthogonal blocks
        # redistribute the same boost strength.
        for i, S in enumerate(random_automorphisms(20, 8, seed0=8000)):
            nu, S_hat = normalize(S, check_automorphism(S))
            bl = split_blocks(S_hat)
            assert np.linalg.norm(bl.b) == pytest.approx(np.linalg.norm(bl.c), abs=1e-9)

    def test_cone_preservation(self):
        rng = np.random.default_rng(123)
        for i, S in enumerate(random_automorphisms(10, 4, seed0=9000)):
            for _ in range(20):
                d = rng.standard_normal(3)
                d *= float(rng.uniform(0.1, 10.0)) / np.linalg.norm(d)
                r = float(np.linalg.norm(d))
                interior = SpinVector(r * (1.0 + float(rng.uniform(0.1, 1.0))), d)
                boundary = SpinVector(r, d)
                assert cone_classify(interior) is ConeRegion.INTERIOR
                assert cone_classify(apply(S, interior)) is ConeRegion.INTERIOR
                img = cone_classify(apply(S, boundary), tol=1e-9)
                assert img is ConeRegion.BOUNDARY


def split_blocks_residuals(S_hat):
    """The six identity residuals, computed from split_blocks' block copies."""
    bl = split_blocks(S_hat)
    a, b, c, D = bl.a, bl.b, bl.c, bl.D
    m = b.size
    G = D.T @ D
    G[np.diag_indices(m)] -= 1.0
    H = D @ D.T
    H[np.diag_indices(m)] -= 1.0
    return [
        abs(a - math.sqrt(1.0 + float(c @ c))),
        float(np.linalg.norm(a * b - D.T @ c)),
        float(np.linalg.norm(G - np.outer(b, b))),
        abs(a - math.sqrt(1.0 + float(b @ b))),
        float(np.linalg.norm(a * c - D @ b)),
        float(np.linalg.norm(H - np.outer(c, c))),
    ]


def noisy_member(rng, n, alpha, nu, log_noise):
    """A member with boost alpha in a random direction, Haar U and scale nu,
    plus Gaussian noise of relative size 10**log_noise."""
    direction = rng.standard_normal(n - 1)
    c = alpha * direction / np.linalg.norm(direction)
    S = compose_compact(CompactFactorization(nu, c, haar_orthogonal(rng, n - 1)))
    S += nu * 10.0**log_noise * rng.standard_normal((n, n))
    return S


def cone_slack_caps(S, rep, X):
    """Slacks ``||ybar|| - y0`` of the rows of X mapped by S, and the caps
    ``cone_slack_bound * (a + ||b||) * x0`` that the report proves for them.

    A computed slack carries rounding of a few ulps of the largest image head
    ``(a + ||b||) * x0``, which the exact bound does not see: the caps allow 4.
    """
    Y = X @ S.T
    slack = np.linalg.norm(Y[:, 1:], axis=1) - Y[:, 0]
    cap = (rep.cone_slack_bound + 4.0 * EPS) * (S[0, 0] + np.linalg.norm(S[0, 1:])) * X[:, 0]
    return slack, cap


class TestPropertyReport:
    def test_identity_all_zero(self):
        rep = property_report(np.eye(4), n_samples=50)
        assert rep.max_identity_residual() == 0.0
        assert rep.cone_slack_bound == 0.0
        assert rep.cone_violation_max <= 1e-13
        assert rep.boundary_drift_max <= 1e-13

    def test_boost_residuals_tiny(self):
        rep = property_report(boost_matrix(1.0, 4), n_samples=2000)
        assert rep.max_identity_residual() <= 1e-12
        assert rep.cone_violation_max <= 1e-12
        assert rep.boundary_drift_max <= 1e-12

    def test_detects_corner_perturbation(self):
        S = boost_matrix(1.0, 3)
        S[0, 0] += 1e-3
        rep = property_report(S, n_samples=10)
        assert rep.residual_A1 >= 1e-4

    def test_detects_each_block_perturbation(self):
        base = sample_automorphism(5, alpha_max=3.0, nu_range=(1.0, 1.0), seed=55)
        for (i, j) in [(0, 0), (0, 2), (3, 0), (2, 3)]:
            S = base.copy()
            S[i, j] += 1e-4
            rep = property_report(S, n_samples=10)
            assert rep.max_identity_residual() > 1e-6, (i, j)

    def test_normalizes_grossly_scaled_input(self):
        rep = property_report(5.0 * boost_matrix(1.0, 3), n_samples=200)
        assert rep.max_identity_residual() <= 1e-12
        assert rep.cone_violation_max <= 1e-12
        assert rep.cone_slack_bound <= 1e-14

    def test_near_normalized_is_verbatim(self):
        # mu = (1+delta)^2 stays inside the no-rescale band, so A1 sees the
        # raw scaling defect t*sqrt(5) - sqrt(1+4t^2) ~ delta/sqrt(5) instead
        # of having it absorbed by a rescale.
        S = boost_matrix(2.0, 3)
        S *= 1.001
        rep = property_report(S, n_samples=0)
        assert rep.residual_A1 == pytest.approx(0.001 / math.sqrt(5.0), rel=1e-2)

    def test_gross_rejections_raise(self):
        with pytest.raises(NotAutomorphismError):
            property_report(np.diag([-1.0, 1.0, 1.0]))
        with pytest.raises(NotAutomorphismError):
            # first column (0.1, 1): mu = 0.01 - 1 < 0
            property_report(np.array([[0.1, 1.0], [1.0, 0.1]]))

    def test_samples_zero_allowed(self):
        rep = property_report(np.eye(3), n_samples=0)
        assert rep.cone_violation_max == 0.0
        assert rep.boundary_drift_max == 0.0
        assert property_report(np.eye(3)) == rep  # sampling is off by default

    def test_validates_s_once_and_skips_split_blocks(self, calls):
        property_report(sample_automorphism(5, nu_range=(0.5, 2.0), seed=4))
        assert calls.count("as_square_matrix S") == 1
        assert "split_blocks" not in calls

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 60),
        alpha=st.floats(0.0, 1e3),
        nu=st.one_of(st.just(1.0), st.floats(0.2, 5.0)),
        log_noise=st.floats(-14.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residuals_match_the_split_blocks_route(self, n, alpha, nu, log_noise, seed):
        # Both routes round products of entries of size up to a = sqrt(1 +
        # alpha^2) in another order, so they agree to c * n * eps * a^2, with
        # c = 4 for the residuals and 8 for the certificate (worst seen over
        # 3,000 draws: 0.74 and 1.7).
        S = noisy_member(np.random.default_rng(seed), n, alpha, nu, log_noise)
        rep = property_report(S)
        mu = check_automorphism(S).mu
        S_hat = S if abs(mu - 1.0) <= 0.1 else S / math.sqrt(mu)
        J = signature_matrix(n)
        head = S_hat[0, 0] ** 2 - float(S_hat[0, 1:] @ S_hat[0, 1:])
        bound = 2.0 * float(np.linalg.norm(S_hat.T @ J @ S_hat - J)) / head
        got = [rep.residual_A1, rep.residual_A2, rep.residual_A3,
               rep.residual_B1, rep.residual_B2, rep.residual_B3]
        unit = n * EPS * (1.0 + alpha**2)
        assert np.all(np.abs(np.subtract(got, split_blocks_residuals(S_hat))) <= 4.0 * unit)
        assert abs(rep.cone_slack_bound - bound) <= 8.0 * unit

    @pytest.mark.parametrize("n", [2, 4, 20])
    def test_cone_slack_bound_reads_the_congruence_defect(self, n):
        # (a^2 - ||b||^2) * bound / 2 is ||S^T J S - J||_F, built from blocks.
        rng = np.random.default_rng(40 + n)
        J = signature_matrix(n)
        for S in random_automorphisms(5, n, seed0=60 + n, nu_range=(1.0, 1.0)):
            S = S + 1e-6 * rng.standard_normal(S.shape)
            rep = property_report(S)
            head = S[0, 0] ** 2 - float(S[0, 1:] @ S[0, 1:])
            defect = float(np.linalg.norm(S.T @ J @ S - J))
            assert rep.cone_slack_bound * head / 2.0 == pytest.approx(defect, rel=1e-6)

    def test_cone_slack_bound_inf_without_a_positive_head(self):
        # First column (1, 0) gives mu = 1, but a^2 - ||b||^2 = 1 - 4 < 0.
        rep = property_report(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert rep.cone_slack_bound == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 30),
        alpha=st.floats(0.0, 300.0),
        log_noise=st.floats(-14.0, -6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cone_slack_bound_caps_every_slack(self, n, alpha, log_noise, seed):
        rng = np.random.default_rng(seed)
        S = noisy_member(rng, n, alpha, 1.0, log_noise)
        rep = property_report(S)  # mu within 0.1 of 1: the report evaluates S itself
        # Boundary points with x0 in (0, 10], plus the one that minimizes y0.
        tails = rng.standard_normal((500, n - 1))
        tails /= np.linalg.norm(tails, axis=1, keepdims=True)
        b = S[0, 1:]
        if np.linalg.norm(b) > 0.0:
            tails = np.vstack([tails, -b / np.linalg.norm(b)])
        r = 10.0 - rng.uniform(0.0, 10.0, size=len(tails))
        boundary = np.hstack([r[:, None], r[:, None] * tails])
        interior = boundary.copy()
        interior[:, 0] *= 1.0 + rng.random(len(tails))
        slack, cap = cone_slack_caps(S, rep, boundary)
        assert np.all(np.abs(slack) <= cap)
        slack, cap = cone_slack_caps(S, rep, interior)
        assert np.all(slack <= cap)

    def test_deterministic_in_seed(self):
        S = sample_automorphism(4, seed=77)
        a = property_report(S, n_samples=500, seed=3)
        b = property_report(S, n_samples=500, seed=3)
        assert a == b

    def test_interderivation_closure(self):
        # Matrices built to satisfy A1, A2, B3 up to injected noise delta:
        # the remaining identities (B1, B2, A3) then hold within a modest
        # constant times the input defect.
        rng = np.random.default_rng(2024)
        for delta in (1e-10, 1e-8, 1e-6):
            for m in (1, 3, 7):
                c = rng.standard_normal(m)
                c *= float(rng.uniform(0.0, 3.0)) / max(np.linalg.norm(c), 1e-300)
                a = math.sqrt(1.0 + float(c @ c)) + delta * float(rng.uniform(-1, 1))
                U = sample_haar_orthogonal(m, seed=int(rng.integers(1 << 30)))
                D = sqrt_rank_one(c) @ U  # B3 exact to rounding
                b = D.T @ c / a + delta * rng.standard_normal(m)  # A2 up to delta
                S = np.empty((m + 1, m + 1))
                S[0, 0] = a
                S[0, 1:] = b
                S[1:, 0] = c
                S[1:, 1:] = D
                rep = property_report(S, n_samples=0)
                assumed = max(rep.residual_A1, rep.residual_A2, rep.residual_B3, 1e-14)
                derived = max(rep.residual_B1, rep.residual_B2, rep.residual_A3)
                assert derived <= 100.0 * assumed


class TestApplyAndAlgebra:
    def test_apply_identity(self):
        x = SpinVector(2.0, [1.0, -1.0])
        y = apply(np.eye(3), x)
        assert_array_equal(y.to_array(), x.to_array())

    def test_apply_signature_flips_tail(self):
        x = SpinVector(2.0, [1.0, -1.0])
        y = apply(signature_matrix(3), x)
        assert y.x0 == 2.0
        assert_array_equal(y.xbar, [-1.0, 1.0])

    def test_apply_boost_on_unit(self):
        alpha = 3.0
        y = apply(boost_matrix(alpha, 2), SpinVector(1.0, [0.0]))
        assert y.x0 == math.sqrt(1.0 + alpha * alpha)
        assert_array_equal(y.xbar, [alpha])
        assert cone_classify(y) is ConeRegion.INTERIOR

    def test_apply_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply(np.eye(3), SpinVector(1.0, [0.0]))

    def test_algebra_identity_cases(self):
        assert_array_equal(algebra_automorphism(np.eye(2)), np.eye(3))
        assert_array_equal(algebra_automorphism(-np.eye(2)), signature_matrix(3))

    def test_algebra_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            algebra_automorphism(np.diag([1.0, 2.0]))

    def test_algebra_preserves_product(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 6):
            D = sample_haar_orthogonal(n - 1, seed=100 + n)
            L = algebra_automorphism(D)
            e = unit(n)
            img = apply(L, e)
            assert img.x0 == e.x0
            assert_array_equal(img.xbar, e.xbar)
            for _ in range(100):
                x = SpinVector.from_array(rng.standard_normal(n))
                y = SpinVector.from_array(rng.standard_normal(n))
                lhs = apply(L, jordan_product(x, y)).to_array()
                rhs = jordan_product(apply(L, x), apply(L, y)).to_array()
                assert np.linalg.norm(lhs - rhs) <= 1e-10
