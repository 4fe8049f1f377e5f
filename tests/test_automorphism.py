"""Membership, factorization, composition, sampling, and the identity report."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import pickle
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from socaut import (
    DEFAULT_TOL,
    BlockView,
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
    householder_to_direction,
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
from socaut import automorphism, cli, kernels
from socaut.fileio import dumps_factorization, dumps_matrix, parse_factorization
from socaut.kernels import haar_orthogonal
from conftest import THETAS_NEAR_E1, canonical, random_automorphisms, rel_fro, stretched_haar

EPS = float(np.finfo(float).eps)

#: A tiny first column beside a huge D, so that D / nu overflows: at mu <= tol,
#: and at mu = 1e-8 > tol.
OVERFLOWING = [
    pytest.param(np.array([[1e-150, 0.0], [0.0, 1e300]]), id="mu1e-300"),
    pytest.param(np.array([[1e-4, 0.0], [0.0, 1e305]]), id="mu1e-8"),
]

#: mu = inf, as the head's square overflows: no factors are recovered, and at
#: tol = 1e308 the gate tol * m overflows too.
INFINITE_MU = np.array([[2e154, 0.0, 0.0], [1e154, 1e308, 1e308], [0.0, 1e308, 1e308]])
#: S[0,0]^2 and ||S[1:,0]||^2 both overflow, so mu = inf - inf = nan.
NAN_MU = np.array([[1e200, 0.0], [1e200, 1.0]])
NAN_MU_REASON = "congruence scale mu=nan: S[0,0]^2 and ||S[1:,0]||^2 both overflow"


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

    @pytest.mark.parametrize(
        "blocks,fragment",
        [
            ((1.0, np.zeros(3), np.zeros(2), np.eye(4)), "blocks must fit one square matrix"),
            ((1.0, np.zeros(2), np.zeros(2), np.eye(3)), "blocks must fit one square matrix"),
            ((1.0, np.zeros((1, 2)), np.zeros(2), np.eye(2)), "b must be one-dimensional"),
            ((1.0, np.zeros(2), np.zeros(2), np.ones((2, 3))), "D must be a square matrix"),
            ((1.0, np.zeros(0), np.zeros(0), np.eye(0)), "at least 1 entries"),
            ((math.nan, np.zeros(2), np.zeros(2), np.eye(2)), "a must be a finite number"),
            ((1.0, np.zeros(2), [math.inf, 0.0], np.eye(2)), "c must have finite entries"),
        ],
        ids=["b3-c2-D4", "D-too-big", "2d-b", "nonsquare-D", "empty", "nan-a", "inf-c"],
    )
    def test_direct_construction_validates(self, blocks, fragment):
        with pytest.raises(ValueError, match=fragment):
            BlockView(*blocks)


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
        # S = diag(1, 2): mu = 1, c = 0, so U = D = [[2]] and d = 0; the
        # residual is ||U^T U - I||_F / m = 3.
        res = check_automorphism(np.diag([1.0, 2.0]))
        assert not res.is_automorphism
        assert res.mu == 1.0
        assert res.residual_congruence == 3.0

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

    @pytest.mark.parametrize("S", OVERFLOWING)
    def test_overflowing_recovery_rejects_with_inf_residual(self, S):
        res = check_automorphism(S)  # warnings are errors in this suite
        assert not res.is_automorphism
        assert res.residual_congruence == math.inf

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e308])
    def test_infinite_mu_rejects_even_when_the_gates_overflow(self, tol):
        # At tol = 1e308 the gates read inf <= tol * m = inf; only finite
        # factors can be accepted.
        res = check_automorphism(INFINITE_MU, tol=tol)
        assert (res.mu, res.residual_congruence) == (math.inf, math.inf)
        assert not res.is_automorphism
        with pytest.raises(NotAutomorphismError, match="cannot factor: no finite factors at mu=inf"):
            factor_compact(INFINITE_MU, tol=tol)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e308])
    def test_nan_mu_is_refused_naming_both_overflowing_squares(self, tol):
        res = check_automorphism(NAN_MU, tol=tol)
        assert math.isnan(res.mu) and res.residual_congruence == math.inf
        assert not res.is_automorphism
        with pytest.raises(NotAutomorphismError) as excinfo:
            factor_compact(NAN_MU, tol=tol)
        assert str(excinfo.value) == "cannot factor: " + NAN_MU_REASON
        with pytest.raises(NotAutomorphismError) as excinfo:
            automorphism._verify(NAN_MU, tol)
        assert str(excinfo.value) == "cannot certify: " + NAN_MU_REASON

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
        # A perturbed boost whose two-sided congruence residual passes at a
        # loose tolerance, but whose recovered U is visibly non-orthogonal:
        # check and factor both reject it, on the U gate.
        S = boost_matrix(40.0, 3)
        S[2, 2] += 1e-3
        tol = 1e-4
        assert not check_automorphism(S, tol).is_automorphism
        with pytest.raises(NotAutomorphismError, match="orthogonal") as excinfo:
            factor_compact(S, tol)
        assert excinfo.value.check == check_automorphism(S, tol)
        message = str(excinfo.value)
        assert "recovered U" in message
        assert f"> {tol * 2:.3e}" in message  # the bound tol * m, m = 2
        assert "first-row defect" not in message

    def test_first_row_defect_gate_names_itself(self):
        # Moving b alone leaves the first column and D, so nu, c and U, as
        # they were: only d = b - D^T c / a sees it, against tol * a.
        S = boost_matrix(3.0, 4)
        S[0, 2] += 1e-6
        tol = 1e-9
        res = check_automorphism(S, tol)
        assert not res.is_automorphism
        assert res.residual_congruence == pytest.approx(1e-6 / math.sqrt(10.0), rel=1e-6)
        with pytest.raises(NotAutomorphismError) as excinfo:
            factor_compact(S, tol)
        message = str(excinfo.value)
        assert "first-row defect ||d|| 1.000e-06" in message
        assert f"> {tol * math.sqrt(10.0):.3e}" in message
        assert "orthogonal" not in message

    def test_wide_boost_is_rejected_by_check_as_by_factor(self):
        # alpha = 1e4: the recovered U carries rounding of about eps * a^2,
        # above the gate tol * m; check used to accept what factor refused.
        S = boost_matrix(1e4, 6)
        res = check_automorphism(S)
        assert not res.is_automorphism
        assert res.residual_congruence > DEFAULT_TOL
        with pytest.raises(NotAutomorphismError, match="recovered U is not orthogonal"):
            factor_compact(S)

    @pytest.mark.parametrize("mu_sign", ["zero", "negative"])
    def test_residual_is_inf_without_factors(self, mu_sign):
        S = boost_matrix(1e8, 3) if mu_sign == "zero" else np.ones((3, 3))
        res = check_automorphism(S)  # warnings are errors in this suite
        assert res.mu <= 0.0
        assert res.residual_congruence == math.inf
        assert not res.is_automorphism

    def test_rejected_input_raises(self):
        with pytest.raises(NotAutomorphismError):
            factor_compact(np.diag([1.0, 2.0]))

    @pytest.mark.parametrize("S", OVERFLOWING)
    def test_overflowing_recovery_raises(self, S):
        gate = "congruence scale mu=1e-300 <=|no finite factors at mu=1e-08"
        with pytest.raises(NotAutomorphismError, match=f"cannot factor: ({gate})"):
            factor_compact(S)

    def test_rejection_names_the_mu_gate(self):
        # 0 < mu <= tol: the residual is 0, so only the mu gate can explain it.
        with pytest.raises(NotAutomorphismError, match=r"mu=1e-12 <= tol 1e-09"):
            factor_compact(1e-6 * np.eye(3))


@pytest.fixture
def checks(monkeypatch):
    """Every matrix ``automorphism._check`` is called on, in call order."""
    matrices = []
    check = automorphism._check

    def recording(S, tol):
        matrices.append(S)
        return check(S, tol)

    monkeypatch.setattr(automorphism, "_check", recording)
    return matrices


def cli_verify(S) -> int:
    """``socaut verify`` on S through ``cli.main``, from a matrix document."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        path = Path(work) / "S.json"
        path.write_text(dumps_matrix(S))
        return cli.main(["verify", str(path)])


def traced_peak(call, S) -> int:
    """Bytes ``call(S)`` holds at its peak beyond what was live before it."""
    call(S)  # warm-up: first-call caches are not the call's arrays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(S)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestCongruence:
    """Every call decides membership with one Gram matrix, the recovered U's
    ``U^T U - I``; the report reads the congruence defect off it and forms
    no congruence product ``S^T J S`` or ``S J S^T``."""

    @pytest.mark.parametrize(
        "call", [check_automorphism, factor_compact, property_report, cli_verify]
    )
    def test_each_call_runs_the_check_once_and_forms_one_gram(self, call, checks, measured):
        call(sample_automorphism(5, nu_range=(0.5, 2.0), seed=4))
        assert len(checks) == 1
        assert len(measured) == 1

    def test_no_call_holds_more_than_the_check(self):
        # An n x n product (a Gram matrix, S / nu) would add a whole unit to
        # the peak; the report also drops U before it updates G, and factor
        # drops G before it freezes U.
        n = 300
        S = sample_automorphism(n, nu_range=(0.5, 2.0), seed=4)
        unit = 8 * n * n
        check = traced_peak(check_automorphism, S)
        assert check <= 2.5 * unit  # U, then U and its Gram matrix
        for call in (factor_compact, factor_canonical, property_report):
            assert traced_peak(call, S) <= check + 0.25 * unit, call.__name__

    @pytest.mark.parametrize("nu", [2.5, 1.02])
    def test_report_normalizes_by_the_checked_mu(self, nu):
        # The report's E is the congruence defect of S / sqrt(mu), with the mu
        # that check reads off the first column, up to the rounding floor
        # c * n * eps * a^2 (c = 4 for the residuals and 8 for the certificate).
        S = sample_automorphism(5, alpha_max=3.0, nu_range=(nu, nu), seed=4)
        S[2, 3] += 1e-6
        S_hat = S / math.sqrt(check_automorphism(S).mu)
        J = signature_matrix(5)
        E = S_hat.T @ J @ S_hat - J
        head = S_hat[0, 0] ** 2 - float(S_hat[0, 1:] @ S_hat[0, 1:])
        rep = property_report(S)
        unit = 5 * EPS * S_hat[0, 0] ** 2
        assert abs(rep.residual_A2 - np.linalg.norm(E[1:, 0])) <= 4.0 * unit
        assert abs(rep.residual_A3 - np.linalg.norm(E[1:, 1:])) <= 4.0 * unit
        assert abs(rep.cone_slack_bound - 2.0 * np.linalg.norm(E) / head) <= 8.0 * unit
        assert rep.residual_A3 >= 1e-7  # the moved entry shows

    @pytest.mark.parametrize("nu", [3.0, 1.03])
    def test_verify_returns_the_check_and_the_report(self, nu):
        S = sample_automorphism(6, alpha_max=3.0, nu_range=(nu, nu), seed=9)
        tol = 1e-9
        got = automorphism._verify(S, tol)[:2]
        assert got == (check_automorphism(S, tol), property_report(S))


class TestFactorPath:
    """factor_* validates S once and returns the factors the membership test
    recovered from S itself, without calling check_automorphism."""

    @pytest.mark.parametrize("factor", [factor_compact, factor_canonical])
    def test_validates_s_once_and_skips_normalize_and_split_blocks(self, factor, calls):
        factor(sample_automorphism(5, nu_range=(0.5, 2.0), seed=4))
        assert calls.count("as_square_matrix S") == 1
        assert not {"check_automorphism", "normalize", "split_blocks"} & set(calls)

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


class TestOneVerdict:
    """check and factor share one decision: factor succeeds iff check accepts."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["member", "noisy", "gaussian"]),
        n=st.integers(2, 30),
        alpha=st.floats(0.0, 1e3),
        log_nu=st.floats(-2.0, 2.0),
        log_noise=st.floats(-14.0, -4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_accepts_iff_factor_succeeds(self, kind, n, alpha, log_nu, log_noise, seed):
        # An accepted S composes back to within c * n * eps * a^2 * nu of
        # itself (worst c seen over 3,000 draws: 0.73), plus what the factors
        # cannot absorb of the noise N (worst seen: 1.7 ||N||_F).
        rng = np.random.default_rng(seed)
        nu = 10.0**log_nu
        if kind == "gaussian":
            S = nu * rng.standard_normal((n, n))
        else:
            direction = rng.standard_normal(n - 1)
            c = alpha * direction / np.linalg.norm(direction)
            S = compose_compact(CompactFactorization(nu, c, haar_orthogonal(rng, n - 1)))
        noise = 0.0
        if kind == "noisy":
            N = 10.0**log_noise * np.abs(S).max() * rng.standard_normal((n, n))
            S += N
            noise = float(np.linalg.norm(N))
        check = check_automorphism(S)
        try:
            f = factor_compact(S)
        except NotAutomorphismError as exc:
            assert not check.is_automorphism
            assert exc.check == check
            return
        assert check.is_automorphism
        assert (f.nu, f.c.size) == (math.sqrt(check.mu), n - 1)
        bound = 4.0 * n * EPS * (1.0 + alpha**2) * nu + 4.0 * noise
        assert np.abs(compose_compact(f) - S).max() <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["member", "gaussian"]),
        n=st.integers(2, 12),
        alpha=st.floats(0.0, 1e6),
        log_nu=st.floats(-3.0, 3.0),
        exponent=st.integers(-600, 600),
        tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 1e308]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_rule_decides_and_what_it_accepts_composes(
        self, kind, n, alpha, log_nu, exponent, tol, seed
    ):
        # Members span the wide alpha and nu ranges, Gaussians scales 2^+-600,
        # tol the gate's whole range up to where tol * m overflows.
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            S = 2.0**exponent * rng.standard_normal((n, n))
        else:
            direction = rng.standard_normal(n - 1)
            c = alpha * direction / np.linalg.norm(direction)
            U = haar_orthogonal(rng, n - 1)
            S = compose_compact(CompactFactorization(10.0**log_nu, c, U))
        check = check_automorphism(S, tol)
        rule = check.cone_forward and check.mu > tol and check.residual_congruence <= tol
        assert check.is_automorphism == rule
        try:
            f = factor_compact(S, tol)
        except NotAutomorphismError as exc:
            assert not check.is_automorphism
            assert repr(exc.check) == repr(check)  # mu may be nan
            return
        assert check.is_automorphism
        compose_compact(f, tol)
        compose_canonical(factor_canonical(S, tol), tol)


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
        S = compose_canonical(canonical(2.0, 3.0, np.array([[-1.0]]), np.array([[1.0]])))
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
    @pytest.mark.parametrize("form", ["canonical", "compact"])
    def test_refuses_c_whose_squared_norm_overflows(self, form):
        # alpha = ||c|| = 1e200 is finite, its square is not.
        I2 = np.eye(2)
        if form == "canonical":
            f, compose = canonical(1.0, 1e200, I2, I2), compose_canonical
        else:
            f, compose = CompactFactorization(1.0, np.array([0.0, 1e200]), I2), compose_compact
            for derived in ("a", "P"):
                with pytest.raises(ValueError, match="squared norm"):
                    getattr(f, derived)
        with pytest.raises(ValueError, match="squared norm"):
            compose(f)

    @pytest.mark.parametrize("form", ["canonical", "compact"])
    def test_refuses_a_product_that_overflows_naming_nu_and_c(self, form):
        # nu, c and U are finite, and so is ||c||^2; nu * a = 1e310 is not.
        # Warnings are errors in this suite, so the refusal warns about nothing.
        kind = CompactFactorization if form == "compact" else CanonicalFactorization
        compose = compose_compact if form == "compact" else compose_canonical
        f = kind(1e300, np.array([1e10, 0.0]), np.eye(2))
        with pytest.raises(ValueError, match=r"overflows at nu=1e\+300, \|\|c\|\|=1e\+10$"):
            compose(f)

    def test_assembly_holds_no_matrix_beside_s(self):
        # An n x n temporary (the outer product) would add a whole unit.
        n = 300
        rng = np.random.default_rng(0)
        c, U = rng.standard_normal(n - 1), haar_orthogonal(rng, n - 1)
        peak = traced_peak(lambda f: automorphism._assemble(*f), (1.5, c, U))
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("form", ["canonical", "compact"])
    def test_refuses_a_u_whose_gram_overflows_even_when_the_gate_does(self, form):
        # U^T U overflows, so the residual is inf; at tol = 1e308 so is tol * m,
        # and the gate must still refuse.
        kind = CompactFactorization if form == "compact" else CanonicalFactorization
        compose = compose_compact if form == "compact" else compose_canonical
        f = kind(1.0, [0.0, 0.0], np.diag([1e200, 1.0]))
        message = "^U is not orthogonal within tolerance: residual inf > inf$"
        with pytest.raises(ValueError, match=message):
            compose(f, tol=1e308)

    @pytest.mark.parametrize("n", [2, 3, 17, 130, 300])
    def test_assembly_is_the_closed_form_bit_for_bit(self, n):
        # _assemble writes beta c (c^T U) into S and adds U; IEEE addition
        # commutes, so S is nu (U + beta c (c^T U)) in every bit.  Checked on
        # a member's factors and on (nu, c, U) drawn over wide scales.
        f = factor_compact(sample_automorphism(n, nu_range=(0.5, 2.0), seed=6))
        rng = np.random.default_rng(n)
        draws, m = [(f.nu, f.c, f.U)], n - 1
        for _ in range(20):
            U = haar_orthogonal(rng, m) if rng.random() < 0.5 else rng.standard_normal((m, m))
            c = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(m)
            draws.append((10.0 ** rng.uniform(-3.0, 3.0), c, U))
        for i, (nu, c, U) in enumerate(draws):
            root = RankOneSqrt.from_vector(c)
            cU = c @ U
            expected = np.empty((n, n))
            expected[0, 0], expected[0, 1:], expected[1:, 0] = root.a, cU, c
            expected[1:, 1:] = U + root.beta * np.outer(c, cU)
            S = compose_compact(f) if i == 0 else automorphism._assemble(nu, c, U)
            assert S.tobytes() == (nu * expected).tobytes()

    def test_compact_identity(self):
        f = CompactFactorization(nu=1.0, c=np.zeros(3), U=np.eye(3))
        assert_array_equal(compose_compact(f), np.eye(4))

    def test_compact_boost(self):
        c = np.array([2.0, 0.0, 0.0])
        f = CompactFactorization(nu=1.0, c=c, U=np.eye(3))
        assert_allclose(compose_compact(f), boost_matrix(2.0, 4), rtol=1e-15)

    def test_canonical_boost(self):
        f = canonical(nu=1.0, alpha=1.5, V=np.eye(2), U=np.eye(2))
        assert_allclose(compose_canonical(f), boost_matrix(1.5, 3), atol=1e-15)

    def test_canonical_alpha_zero_is_block_diagonal(self):
        V = sample_haar_orthogonal(4, seed=31)
        U = sample_haar_orthogonal(4, seed=32)
        S = compose_canonical(canonical(nu=1.0, alpha=0.0, V=V, U=U))
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
            S = compose_canonical(canonical(nu, alpha, V, U))
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
        f = canonical(nu=1.5, alpha=3.0, V=V, U=U)
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
                built = compose_canonical(canonical(nu, alpha, V, U))
                assert np.linalg.norm(built - literal) <= bound, (m, alpha)
                compact = compose_compact(
                    CompactFactorization(nu=nu, c=alpha * V[:, 0], U=U)
                )
                assert np.linalg.norm(compact - literal) <= bound, (m, alpha)

    def test_determinant_is_unimodular_up_to_scale(self):
        rng = np.random.default_rng(44)
        for alpha in (0.0, 1.0, 10.0, 1e4):
            V = sample_haar_orthogonal(3, seed=int(rng.integers(1 << 30)))
            U = sample_haar_orthogonal(3, seed=int(rng.integers(1 << 30)))
            S = compose_canonical(canonical(1.0, alpha, V, U))
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
            CanonicalFactorization(nu=1.0, c=np.zeros(2), U=np.eye(3))
        with pytest.raises(ValueError):
            CompactFactorization(nu=1.0, c=np.zeros(2), U=np.eye(3))
        with pytest.raises(ValueError, match="orthogonal"):
            compose_compact(CompactFactorization(nu=1.0, c=np.zeros(2), U=np.diag([1.0, 2.0])))
        with pytest.raises(ValueError, match="orthogonal"):
            compose_canonical(
                CanonicalFactorization(nu=1.0, c=np.ones(2), U=np.diag([1.0, 2.0]))
            )
        with pytest.raises(TypeError):
            compose_compact(np.eye(3))
        with pytest.raises(TypeError):
            compose_canonical(np.eye(3))


def frozen_arrays(f) -> list[np.ndarray]:
    """The array fields of a frozen value type, in field order, then the V
    that a canonical factorization derives."""
    values = [getattr(f, field.name) for field in dataclasses.fields(f)]
    if isinstance(f, CanonicalFactorization):
        values.append(f.V)
    return [v for v in values if isinstance(v, np.ndarray)]


FORMS = [(factor_compact, compose_compact), (factor_canonical, compose_canonical)]


class TestKeptResiduals:
    """U is measured at most once: a factorization keeps the one residual the
    membership test, the file load or its first gate measured, and its
    frozen arrays keep that number valid."""

    @pytest.mark.parametrize("form", FORMS, ids=["compact", "canonical"])
    def test_factor_then_compose_measures_each_factor_once(self, form, measured, monkeypatch):
        reflectors = []
        householder = kernels.householder_to_direction

        def counting(c):
            reflectors.append(c)
            return householder(c)

        for module in (kernels, automorphism):
            monkeypatch.setattr(module, "householder_to_direction", counting)
        factor, compose = form
        compose(factor(sample_automorphism(30, nu_range=(0.5, 2.0), seed=12)))
        # Only the membership test's U; the canonical form builds and measures no V.
        assert len(measured) == 1
        assert reflectors == []

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 400])
    def test_kept_residual_is_a_fresh_measurement_bit_for_bit(self, n):
        for S in random_automorphisms(3, n, seed0=900 + n):
            for factor, _ in FORMS:
                f = factor(S)
                assert vars(f)["_residual"] == orthogonality_residual(f.U)

    @pytest.mark.parametrize("form", FORMS, ids=["compact", "canonical"])
    def test_parse_then_compose_measures_each_loaded_factor_once(self, form, measured):
        factor, compose = form
        text = dumps_factorization(factor(sample_automorphism(5, seed=3)), tol=1e-6)
        doc = json.loads(text)
        loaded = [np.array(doc[name]) for name in ("V", "U") if name in doc]
        measured.clear()
        f, tol = parse_factorization(text)
        for gate_tol in (tol, DEFAULT_TOL):
            compose(f, gate_tol)
        # The document's orthogonal factors, V before U, each measured once as
        # it is loaded; a loaded V is reduced to c, so U is the one f keeps.
        assert [M.tobytes() for M in measured] == [M.tobytes() for M in loaded]
        assert measured[-1] is f.U

    @pytest.mark.parametrize("form,bad", [("compact", "U"), ("canonical", "U")])
    def test_caller_built_factor_keeps_every_verdict_and_message(self, form, bad, measured):
        # The same object composed at each tol: the kept residual must give the
        # verdict and message of a fresh measurement.  (A canonical document's
        # V is gated where it is read: tests/test_fileio.py.)
        m = 4
        U = stretched_haar(m, seed=4)
        kind = CompactFactorization if form == "compact" else CanonicalFactorization
        compose = compose_compact if form == "compact" else compose_canonical
        f = kind(2.0, np.full(m, 0.5), U)
        r = orthogonality_residual(U)
        assert r > 1e-7
        measured.clear()
        for tol in (0.0, np.nextafter(r / m, 0.0), np.nextafter(r / m, math.inf), DEFAULT_TOL):
            if r <= tol * m:
                compose(f, tol)
                continue
            with pytest.raises(ValueError) as exc:
                compose(f, tol)
            expected = f"{bad} is not orthogonal within tolerance: residual {r:.3e} > {tol * m:.3e}"
            assert str(exc.value) == expected
        assert len(measured) == 1

    def test_factors_cannot_be_made_writeable(self):
        S = sample_automorphism(6, seed=1)
        built = [
            CompactFactorization(1.0, np.ones(5), np.eye(5)),
            CanonicalFactorization(1.0, np.full(5, 0.5), np.eye(5)),
        ]
        for f in [factor(S) for factor, _ in FORMS] + built:
            for M in frozen_arrays(f):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    M.flags.writeable = True

    def test_a_frozen_factor_is_not_copied_again(self, monkeypatch):
        S = sample_automorphism(6, seed=1)
        f = factor_compact(S)
        assert CompactFactorization(2.0, f.c, f.U).U is f.U
        g = CanonicalFactorization(2.0, f.c, f.U)
        assert g.c is f.c and g.U is f.U
        # factor_canonical shares factor_compact's c, U and U's residual.
        compact = []

        def recording(S, tol):
            compact.append(factor_compact(S, tol))
            return compact[-1]

        monkeypatch.setattr(automorphism, "factor_compact", recording)
        g = factor_canonical(S)
        assert (g.c, g.U) == (compact[0].c, compact[0].U) and g.c is compact[0].c
        assert vars(g)["_residual"] == vars(compact[0])["_residual"]

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_frozen_and_compose_with_the_same_verdict(self, copier):
        S = sample_automorphism(6, seed=1)
        for factor, compose in FORMS:
            f = factor(S)
            g = copier(f)
            for M in frozen_arrays(g):
                with pytest.raises(ValueError, match="WRITEABLE"):
                    M.flags.writeable = True
            assert_array_equal(compose(g), compose(f))
            for h in (f, g):  # U's rounding residual is above 0
                with pytest.raises(ValueError, match="not orthogonal"):
                    compose(h, 0.0)

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_single_residual(self, copier, measured):
        S = sample_automorphism(6, seed=1)
        U = stretched_haar(5, seed=3)
        r = orthogonality_residual(U)
        for (factor, compose), kind in zip(FORMS, (CompactFactorization, CanonicalFactorization)):
            built = kind(2.0, np.full(5, 0.5), U)
            g = copier(built)
            assert type(g) is kind and "_residual" not in vars(g)  # nothing measured yet
            for f in (factor(S), built):
                compose(f, 1e-3)  # a built U is measured on its first gate
                g = copier(f)
                assert type(g) is kind
                assert vars(g)["_residual"] == vars(f)["_residual"]
                measured.clear()
                with pytest.raises(ValueError, match="not orthogonal"):
                    compose(g, 0.0)
                assert measured == []  # the copy gates the residual it kept
        assert vars(built)["_residual"] == r


class TestCanonicalView:
    """The canonical form stores the compact factors (nu, c, U) and derives
    alpha = ||c|| and the reflector V of c on access."""

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_composes_as_the_compact_form_bit_for_bit(self, n):
        for S in random_automorphisms(3, n, seed0=1200 + n):
            composed = compose_canonical(factor_canonical(S))
            assert composed.tobytes() == compose_compact(factor_compact(S)).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_derived_alpha_and_v_are_those_of_the_compact_c(self, n):
        # What `socaut factor` writes: alpha and V bytes as before.
        for S in random_automorphisms(3, n, seed0=1300 + n):
            f, c = factor_canonical(S), factor_compact(S).c
            assert f.alpha == float(np.linalg.norm(c))
            assert f.V.tobytes() == householder_to_direction(c).tobytes()

    def test_alpha_and_v_are_derived_from_the_c_it_is_built_from(self):
        c, U = 3.0 * stretched_haar(4, seed=5)[:, 0], sample_haar_orthogonal(4, seed=6)
        f = CanonicalFactorization(1.5, c, U)
        assert f.c.tobytes() == c.tobytes()
        assert f.alpha == float(np.linalg.norm(c))
        assert f.V.tobytes() == householder_to_direction(c).tobytes()

    @pytest.mark.parametrize("build", ["factor", "built"])
    def test_derived_v_and_stored_c_cannot_be_made_writeable(self, build):
        S = sample_automorphism(6, seed=1)
        if build == "factor":
            f = factor_canonical(S)
        else:
            f = canonical(1.0, 0.5, sample_haar_orthogonal(5, seed=2), np.eye(5))
        for M in (f.c, f.V, f.V):
            with pytest.raises(ValueError, match="WRITEABLE"):
                M.flags.writeable = True


#: value type -> ways to build one from a writeable member S: directly, then
#: through each factory.
FROZEN_VALUES = {
    "SpinVector": (
        lambda S: SpinVector(1.0, S[1:, 0]),
        lambda S: SpinVector.from_array(S[:, 0]),
    ),
    "RankOneSqrt": (
        lambda S: RankOneSqrt(S[1:, 0]),
        lambda S: RankOneSqrt.from_vector(S[1:, 0]),
    ),
    "BlockView": (
        lambda S: BlockView(float(S[0, 0]), S[0, 1:], S[1:, 0], S[1:, 1:]),
        split_blocks,
    ),
    "CompactFactorization": (
        lambda S: CompactFactorization(1.0, S[1:, 0], np.eye(4)),
        factor_compact,
        lambda S: parse_factorization(dumps_factorization(factor_compact(S)))[0],
    ),
    "CanonicalFactorization": (
        lambda S: CanonicalFactorization(1.0, S[1:, 0], S[1:, 1:]),
        factor_canonical,
        lambda S: parse_factorization(dumps_factorization(factor_canonical(S)))[0],
    ),
}
COPIERS = {
    "built": lambda value: value,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS)
@pytest.mark.parametrize("builders", FROZEN_VALUES.values(), ids=FROZEN_VALUES)
def test_no_array_field_of_a_value_can_be_made_writeable(builders, copier):
    S = sample_automorphism(5, seed=1)
    for build in builders:
        value = build(S)
        got = copier(value)
        assert type(got) is type(value)
        arrays = frozen_arrays(got)
        assert len(arrays) == len(frozen_arrays(value)) >= 1
        for M, source in zip(arrays, frozen_arrays(value)):
            assert_array_equal(M, source)
            with pytest.raises(ValueError, match="WRITEABLE"):
                M.flags.writeable = True


class TestSampleAutomorphism:
    @pytest.mark.parametrize(
        "n,alpha_max,nu_range",
        [
            (2, 10.0, (1.0, 1.0)),
            (5, 0.0, (0.5, 2.0)),
            (7, 1e4, (1e-3, 1e3)),
            (60, 10.0, (0.5, 2.0)),
        ],
    )
    def test_equals_gated_composition_of_its_draws(self, n, alpha_max, nu_range):
        # The draw recipe, bit for bit: nu, alpha, n - 1 normals g, then U's Haar draw.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            nu = float(rng.uniform(*nu_range))
            alpha = float(rng.uniform(0.0, alpha_max))
            g = rng.standard_normal(n - 1)
            U = haar_orthogonal(rng, n - 1)
            f = CompactFactorization(nu=nu, c=alpha * g / np.linalg.norm(g), U=U)
            assert_array_equal(
                sample_automorphism(n, alpha_max, nu_range, seed), compose_compact(f)
            )

    def test_one_haar_draw_per_call(self, monkeypatch):
        sizes = []

        def counting(rng, m):
            sizes.append(m)
            return haar_orthogonal(rng, m)

        monkeypatch.setattr(automorphism, "haar_orthogonal", counting)
        sample_automorphism(7, seed=3)
        assert sizes == [6]

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
        "alpha_max",
        [-1.0, math.inf, pytest.param(10**400, id="1e400"), None, "abc", 1e200],
    )
    def test_alpha_max_message(self, alpha_max):
        with pytest.raises(ValueError, match="alpha_max must be a finite non-negative number"):
            sample_automorphism(4, alpha_max=alpha_max)

    @pytest.mark.parametrize(
        "alpha_max,nu_max", [(1e150, 1e200), (0.0, 1e308), (1e154, 1e154)]
    )
    def test_ranges_whose_entries_overflow_are_refused(self, alpha_max, nu_max):
        with pytest.raises(ValueError) as exc:
            sample_automorphism(3, alpha_max, (1.0, nu_max))
        assert str(exc.value) == (
            "nu_range and alpha_max must keep the entries finite: 2 * nu_max * "
            f"sqrt(1 + alpha_max^2) overflows, got nu_max={nu_max!r}, alpha_max={alpha_max!r}"
        )

    def test_ranges_just_inside_the_limit_sample_finite_entries(self):
        nu = 0.99 * np.finfo(float).max / 2.0 / 1e100
        S = sample_automorphism(4, 1e100, (nu, nu), seed=3)
        assert np.isfinite(S).all()

    @pytest.mark.parametrize(
        "nu_range",
        [
            pytest.param((10**400, 10**401), id="1e400"),
            (1.0, math.inf),
            (None, 1.0),
            ("abc", 1.0),
            (1.0,),
            5,
            (1.0, 2.0, 3.0),
        ],
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
    """The two reported identity residuals, from split_blocks' block copies."""
    bl = split_blocks(S_hat)
    a, b, c, D = bl.a, bl.b, bl.c, bl.D
    G = D.T @ D
    G[np.diag_indices(b.size)] -= 1.0
    return [
        float(np.linalg.norm(a * b - D.T @ c)),
        float(np.linalg.norm(G - np.outer(b, b))),
    ]


def exact_report(S):
    """A2, A3, cone_slack_bound and a^2 for S as stored, from the exact
    rational ``E = (S^T J S - mu J) / mu``, with mu exact from the first
    column; each value is exact until it is converted to a float, so it
    carries a few ulps of its own size.  ``Fraction(float)`` is exact.
    """
    n = len(S)
    X = [[Fraction(x) for x in row] for row in S.tolist()]
    sign = [1] + [-1] * (n - 1)
    mu = X[0][0] ** 2 - sum(X[i][0] ** 2 for i in range(1, n))
    columns = list(zip(*X))
    E = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = sum(s * x * y for s, x, y in zip(sign, columns[i], columns[j]))
            if i == j:
                v -= sign[i] * mu
            E[i][j] = E[j][i] = v / mu

    def fro(entries):
        return math.sqrt(float(sum(x * x for x in entries)))

    rest = range(1, n)
    head = sum(s * x * x for s, x in zip(sign, X[0])) / mu  # a^2 - ||b||^2
    return [
        fro(E[i][0] for i in rest),
        fro(E[i][j] for i in rest for j in rest),
        2.0 * fro(x for row in E for x in row) / float(head) if head > 0 else math.inf,
        float(X[0][0] ** 2 / mu),
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
        # mu is read off the first column, so the rescale keeps A1 at 0;
        # the moved corner shows in A2 = ||a b - D^T c||.
        S = boost_matrix(1.0, 3)
        S[0, 0] += 1e-3
        rep = property_report(S, n_samples=10)
        assert rep.residual_A2 >= 1e-4

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

    def test_near_normalized_is_rescaled(self):
        # mu = 1.001^2 is divided out like any other scale: a scaled member
        # has rounding-level residuals and certificate.
        S = boost_matrix(2.0, 3)
        S *= 1.001
        rep = property_report(S, n_samples=0)
        assert rep.max_identity_residual() <= 4 * EPS * 5.0
        assert rep.cone_slack_bound <= 16 * EPS * 5.0

    def test_gross_rejections_raise(self):
        # The refusal is the membership test's own reasons.
        refusals = [
            (np.diag([-1.0, 1.0, 1.0]), "cone-reversing: (S e)_0 <= 0"),
            # first column (0.1, 1): mu = 0.01 - 1 < 0
            (np.array([[0.1, 1.0], [1.0, 0.1]]), "congruence scale mu=-0.99 <= tol 1e-09"),
            # a positive mu that overflows
            (1e200 * np.eye(3), "no finite factors at mu=inf"),
            (INFINITE_MU, "no finite factors at mu=inf"),
        ]
        for S, reasons in refusals:
            with pytest.raises(NotAutomorphismError) as excinfo:
                property_report(S)
            assert str(excinfo.value) == "cannot certify: " + reasons
            assert excinfo.value.check == check_automorphism(S)

    @pytest.mark.parametrize(
        "S,reasons",
        [
            pytest.param(
                *OVERFLOWING[0].values,
                "congruence scale mu=1e-300 <= tol 1e-09; no finite factors at mu=1e-300",
                id="mu1e-300",
            ),
            pytest.param(*OVERFLOWING[1].values, "no finite factors at mu=1e-08", id="mu1e-8"),
        ],
    )
    def test_overflowing_normalization_raises(self, S, reasons):
        with pytest.raises(NotAutomorphismError) as excinfo:
            property_report(S)
        assert str(excinfo.value) == "cannot certify: " + reasons

    @pytest.mark.parametrize("big", [1e100, 1.3e154])
    def test_squares_past_the_double_range_report_without_a_warning(self, big):
        # The check passes S on to the report, and E holds big^2, whose square
        # overflows; the report's norms are finite and verify still rejects.
        S = boost_matrix(1.0, 3)
        S[0, 2] = big
        rep = property_report(S)
        assert rep.residual_A3 == pytest.approx(big * big, rel=1e-12)
        assert rep.residual_A2 == pytest.approx(math.sqrt(2.0) * big, rel=1e-12)
        assert not automorphism._verify(S, DEFAULT_TOL)[2]

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
        S_hat = S / math.sqrt(mu)
        J = signature_matrix(n)
        head = S_hat[0, 0] ** 2 - float(S_hat[0, 1:] @ S_hat[0, 1:])
        bound = 2.0 * float(np.linalg.norm(S_hat.T @ J @ S_hat - J)) / head
        got = [rep.residual_A2, rep.residual_A3]
        unit = n * EPS * (1.0 + alpha**2)
        assert np.all(np.abs(np.subtract(got, split_blocks_residuals(S_hat))) <= 4.0 * unit)
        assert abs(rep.cone_slack_bound - bound) <= 8.0 * unit

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        alpha=st.floats(0.0, 1e3),
        log_nu=st.floats(-1.0, 1.0),
        moved=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_is_within_rounding_of_exact_arithmetic(self, n, alpha, log_nu, moved, seed):
        # Against exact rationals for S as stored, the report is off by at most
        # c * n * eps * a^2, with c = 4 for the residuals and 8 for the
        # certificate (worst seen over 3,000 draws: 1.1 and 2.9).
        nu = 10.0**log_nu
        S = sample_automorphism(n, alpha_max=alpha, nu_range=(nu, nu), seed=seed)
        if moved:
            i, j = np.random.default_rng(seed).integers(n, size=2)
            S[i, j] += 1e-6 * nu
        rep = property_report(S)
        *residuals, bound, a2 = exact_report(S)
        got = [rep.residual_A2, rep.residual_A3]
        unit = n * EPS * a2
        assert np.all(np.abs(np.subtract(got, residuals)) <= 4.0 * unit)
        assert abs(rep.cone_slack_bound - bound) <= 8.0 * unit

    @pytest.mark.parametrize("n", [2, 4, 20])
    def test_cone_slack_bound_reads_the_congruence_defect(self, n):
        # (a^2 - ||b||^2) * bound / 2 is ||S^T J S - J||_F, built from blocks.
        rng = np.random.default_rng(40 + n)
        J = signature_matrix(n)
        for S in random_automorphisms(5, n, seed0=60 + n, nu_range=(1.0, 1.0)):
            S = S + 1e-6 * rng.standard_normal(S.shape)
            rep = property_report(S)
            S = S / math.sqrt(check_automorphism(S).mu)
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
        rep = property_report(S)  # the caps scale with S, so S itself is mapped
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

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sampled_cross_check_matches_the_reference_bit_for_bit(self, n):
        def reference(S, n_samples, seed):
            # The sampled cross-check through np.linalg.norm(axis=1) and np.max.
            S_hat = S / math.sqrt(check_automorphism(S).mu)
            rng = np.random.default_rng(seed)
            violation = drift = 0.0
            for boundary in (False, True):
                G = rng.standard_normal((n_samples, n - 1))
                norms = np.linalg.norm(G, axis=1)
                norms[norms == 0.0] = 1.0
                r = 10.0 - rng.uniform(0.0, 10.0, size=n_samples)
                X = np.empty((n_samples, n))
                X[:, 1:] = G * (r / norms)[:, np.newaxis]
                X[:, 0] = r if boundary else r * (1.0 + (1.0 - rng.random(size=n_samples)))
                Y = X @ S_hat.T
                slack = np.linalg.norm(Y[:, 1:], axis=1) - Y[:, 0]
                violation = max(violation, float(np.max(slack, initial=0.0)))
                if boundary:
                    drift = float(np.max(np.abs(slack), initial=0.0))
            return violation, drift

        for seed in range(6):
            S = sample_automorphism(n, alpha_max=30.0, nu_range=(0.5, 2.0), seed=seed)
            if seed % 2:
                S[n - 1, 0] += 1e-6  # a non-member: positive slacks
            for n_samples in (1, 64, 500):
                rep = property_report(S, n_samples, seed)
                got = (rep.cone_violation_max, rep.boundary_drift_max)
                assert got == reference(S, n_samples, seed), (seed, n_samples)

    def test_deterministic_in_seed(self):
        S = sample_automorphism(4, seed=77)
        a = property_report(S, n_samples=500, seed=3)
        b = property_report(S, n_samples=500, seed=3)
        assert a == b


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

    def test_algebra_refuses_a_d_whose_gram_overflows_at_every_tol(self):
        for tol in (DEFAULT_TOL, 1e308):  # at 1e308, tol * m overflows too
            with pytest.raises(ValueError, match="^D is not orthogonal .* residual inf > "):
                algebra_automorphism(np.diag([1e200, 1.0]), tol=tol)

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
