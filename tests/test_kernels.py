"""Matrix kernels: rank-one square roots, reflectors, Haar samples, boosts."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from socaut import (
    RankOneSqrt,
    boost_matrix,
    householder_to_direction,
    kernels,
    orthogonality_residual,
    sample_haar_orthogonal,
    signature_matrix,
    sqrt_rank_one,
)
from conftest import THETAS_NEAR_E1


def eigh_sqrt(A):
    """Oracle: symmetric square root through an eigendecomposition."""
    w, Q = np.linalg.eigh(A)
    return (Q * np.sqrt(w)) @ Q.T


class TestRankOneSqrt:
    def test_hand_value(self):
        # c = (3, 4): I + cc^T = [[10, 12], [12, 17]], a = sqrt(26)
        c = np.array([3.0, 4.0])
        r = RankOneSqrt.from_vector(c)
        assert r.c.size == 2
        assert r.a == math.sqrt(26.0)
        assert r.beta == 1.0 / (math.sqrt(26.0) + 1.0)
        assert_allclose(r.matrix() @ r.matrix(), [[10.0, 12.0], [12.0, 17.0]], atol=1e-13)

    def test_keeps_a_frozen_c_and_freezes_any_other(self):
        r = RankOneSqrt.from_vector(np.array([3.0, 4.0]))
        assert RankOneSqrt.from_vector(r.c).c is r.c
        src = np.array([3.0, 4.0])
        s = RankOneSqrt.from_vector(src)
        src[0] = 9.0
        assert s.c[0] == 3.0
        with pytest.raises(ValueError):
            s.c.flags.writeable = True

    def test_zero_vector(self):
        r = RankOneSqrt.from_vector(np.zeros(3))
        assert r.beta == 0.0
        assert r.a == 1.0
        assert_array_equal(r.matrix(), np.eye(3))
        assert_array_equal(r.inverse_matrix(), np.eye(3))

    def test_inverse_cancels(self):
        c = np.array([0.5, -2.0, 1.5])
        r = RankOneSqrt(c)
        assert_allclose(r.matrix() @ r.inverse_matrix(), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_square_recovers_update(self, scale):
        rng = np.random.default_rng(5)
        for m in (1, 3, 10):
            c = scale * rng.standard_normal(m)
            P = sqrt_rank_one(c)
            target = np.eye(m) + np.outer(c, c)
            a2 = 1.0 + float(c @ c)
            assert np.max(np.abs(P @ P - target)) <= 1e-14 * max(1.0, a2)

    @pytest.mark.parametrize("scale", [1e-12, 1e-2, 1.0, 1e2, 1e6])
    def test_matches_eigh_oracle(self, scale):
        # Entrywise agreement scaled by the input's norm 1 + ||c||^2: the
        # oracle's small eigenvalues carry absolute error ~eps*||I + cc^T||,
        # so that is the natural comparison scale (the closed form itself is
        # pinned much tighter by test_square_recovers_update).
        rng = np.random.default_rng(11)
        for m in (1, 4, 9):
            c = scale * rng.standard_normal(m)
            P = sqrt_rank_one(c)
            oracle = eigh_sqrt(np.eye(m) + np.outer(c, c))
            a2 = 1.0 + float(c @ c)
            assert np.max(np.abs(P - oracle)) <= 1e-11 * max(1.0, a2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=8),
        st.floats(min_value=1e-10, max_value=1e8),
    )
    def test_square_property(self, entries, scale):
        c = scale * np.asarray(entries) / max(1.0, np.max(np.abs(entries)))
        P = sqrt_rank_one(c)
        target = np.eye(c.size) + np.outer(c, c)
        a2 = 1.0 + float(c @ c)
        assert np.max(np.abs(P @ P - target)) <= 1e-13 * max(1.0, a2)

    def test_eigenvector_identity(self):
        # sqrt(I + alpha^2 e1 e1^T) e1 = sqrt(1 + alpha^2) e1
        for alpha in (0.0, 0.5, 3.0, 1e5):
            m = 4
            c = np.zeros(m)
            c[0] = alpha
            P = sqrt_rank_one(c)
            e1 = np.zeros(m)
            e1[0] = 1.0
            expected = math.sqrt(1.0 + alpha * alpha)
            assert_allclose(P @ e1, expected * e1, rtol=1e-15, atol=0.0)

    def test_maps_c_to_ac(self):
        # P c = a c: c spans the stretched eigendirection.
        rng = np.random.default_rng(3)
        for m in (1, 2, 6):
            c = rng.standard_normal(m) * 7.0
            r = RankOneSqrt.from_vector(c)
            assert_allclose(r.matrix() @ c, r.a * c, rtol=1e-14, atol=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            RankOneSqrt.from_vector([np.nan])
        with pytest.raises(ValueError):
            RankOneSqrt.from_vector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            sqrt_rank_one(np.empty(0))

    @pytest.mark.parametrize(
        "c,fragment",
        [
            ([np.nan, 1.0], "finite entries"),
            ([[3.0, 4.0]], "one-dimensional"),
            ([1e200, 1.0], "squared norm"),
        ],
        ids=["nan-c", "2d-c", "overflow"],
    )
    def test_direct_construction_validates(self, c, fragment):
        with pytest.raises(ValueError, match=fragment):
            RankOneSqrt(c)

    def test_direct_construction_derives_the_pair(self):
        r = RankOneSqrt.from_vector([3.0, 4.0])
        s = RankOneSqrt(np.array([3.0, 4.0]))
        assert (s.a, s.beta) == (r.a, r.beta) == (math.sqrt(26.0), 1.0 / (math.sqrt(26.0) + 1.0))
        assert_array_equal(s.c, r.c)
        with pytest.raises(TypeError):
            RankOneSqrt(s.c, s.a, s.beta)  # (a, beta) are derived, never passed

    def test_from_vector_validates_c_once(self, monkeypatch):
        calls = []
        as_vector = kernels.as_vector

        def counting(*args, **kwargs):
            calls.append(args)
            return as_vector(*args, **kwargs)

        monkeypatch.setattr(kernels, "as_vector", counting)
        RankOneSqrt.from_vector([3.0, 4.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("c", [[1e200, 1.0], [1e155, 1e155], [-1.5e154, 1e154]])
    def test_refuses_squared_norm_that_overflows(self, c):
        # Every entry is finite but 1 + ||c||^2 is not; refused with no
        # overflow warning (warnings are errors in this suite).
        with pytest.raises(ValueError, match="squared norm"):
            RankOneSqrt.from_vector(c)
        with pytest.raises(ValueError, match="squared norm"):
            sqrt_rank_one(c)

    def test_largest_finite_squared_norm_is_accepted(self):
        r = RankOneSqrt.from_vector([1e154, 5e153])
        assert r.a == pytest.approx(math.sqrt(1.25) * 1e154, rel=1e-15)


class TestHouseholder:
    def test_negative_scalar(self):
        assert_array_equal(householder_to_direction([-3.0]), [[-1.0]])

    def test_positive_scalar(self):
        assert_array_equal(householder_to_direction([2.0]), [[1.0]])

    def test_zero_gives_identity(self):
        assert_array_equal(householder_to_direction(np.zeros(4)), np.eye(4))

    def test_aligned_gives_identity(self):
        c = np.array([5.0, 0.0, 0.0])
        assert_array_equal(householder_to_direction(c), np.eye(3))

    def test_maps_e1_to_direction(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 5, 30):
            for _ in range(20):
                c = rng.standard_normal(m) * 10.0 ** rng.uniform(-6, 6)
                V = householder_to_direction(c)
                norm = np.linalg.norm(c)
                assert_allclose(V[:, 0], c / norm, atol=1e-14)
                # no sign flip: c = ||c|| V e1 with a non-negative factor
                assert float(c @ V[:, 0]) >= 0.0
                assert orthogonality_residual(V) <= 1e-14 * m
                # reflectors are symmetric and involutive
                assert_allclose(V, V.T, atol=0.0)
                assert_allclose(V @ V, np.eye(m), atol=1e-14)

    @pytest.mark.parametrize("theta", THETAS_NEAR_E1)
    def test_near_e1_keeps_full_accuracy(self, theta):
        eps = np.finfo(float).eps
        for m in (2, 5):
            u = np.zeros(m)
            u[0], u[1] = math.cos(theta), math.sin(theta)
            V = householder_to_direction(2.0 * u)
            assert np.linalg.norm(V[:, 0] - u) <= 4 * eps
            assert orthogonality_residual(V) <= 4 * eps * m

    def test_antipodal_direction(self):
        V = householder_to_direction(np.array([-2.0, 0.0]))
        assert_array_equal(V, [[-1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-160, 1e160, 1e300, 1.7e308])
    def test_maps_e1_to_direction_at_every_finite_scale(self, scale):
        # ||c||^2 underflows or overflows here; the reflector must not notice.
        rng = np.random.default_rng(23)
        for m in (1, 2, 5):
            g = rng.standard_normal(m)
            c = scale * (g / np.max(np.abs(g)))  # max|c| = scale
            u = c / scale  # the direction of c as stored
            V = householder_to_direction(c)
            assert_allclose(V[:, 0], u / np.linalg.norm(u), atol=1e-15)
            assert orthogonality_residual(V) <= 4 * np.finfo(float).eps * m

    def test_power_of_two_scaling_keeps_every_bit(self):
        rng = np.random.default_rng(29)
        for m in (2, 5, 30):
            c = rng.standard_normal(m)
            V = householder_to_direction(c)
            for k in (-1000, -500, -1, 1, 500, 1000):
                assert_array_equal(householder_to_direction(np.ldexp(c, k)), V)


class TestOrthogonalityResidual:
    def test_identity_is_zero(self):
        assert orthogonality_residual(np.eye(5)) == 0.0

    def test_known_defect(self):
        # M = diag(1, 2): M^T M - I = diag(0, 3)
        assert orthogonality_residual(np.diag([1.0, 2.0])) == 3.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            orthogonality_residual(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "M", [[[1e200]], [[1e200, 1e200], [1e200, -1e200]]], ids=["one-sign", "both-signs"]
    )
    def test_gram_overflow_is_inf_without_a_warning(self, M):
        assert orthogonality_residual(np.array(M)) == math.inf


def _norm_cases():
    rng = np.random.default_rng(41)
    E = rng.standard_normal((6, 5))
    return {
        "vector": rng.standard_normal(7),
        "C-ordered": E,
        "F-ordered": np.asfortranarray(E),
        "transposed": E.T,
        "strided column": E[1:, 0],
        "strided row": E[0, ::2],
        "block": E[1:, 1:],
        "empty": np.zeros(0),
        "nan": np.array([1.0, np.nan, 2.0]),
        "squares overflow": np.array([1e200, -3e180, 2e200]),
        "squares underflow": np.array([3e-170, 1e-200]),
    }


class TestNorm:
    """``kernels._norm`` is np.linalg.norm of a float array, without the wrapper."""

    @pytest.mark.parametrize("name", list(_norm_cases()))
    def test_equals_linalg_norm_bit_for_bit_with_the_same_warnings(self, name):
        x = _norm_cases()[name]
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = float(np.linalg.norm(x))
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = kernels._norm(x)
        assert type(got) is float
        assert np.array_equal(np.float64(got), np.float64(want), equal_nan=True)
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert [(w.category, str(w.message)) for w in got_warnings] == [
            (w.category, str(w.message)) for w in want_warnings
        ]

    def test_overflow_warns_like_linalg_norm(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert kernels._norm(np.array([1e200, 1e200])) == math.inf


def stewart_reference(normals: np.ndarray, m: int) -> np.ndarray:
    """Stewart's Haar draw, one reflector at a time: column k of the lower
    triangle (filled row by row) is reflector k's Gaussian vector x, and the
    column signs are those of the implied R's diagonal."""
    X = np.zeros((m, m))
    X[np.tril_indices(m)] = normals
    Q = np.eye(m)
    signs = np.empty(m)
    for k in range(m - 1):
        x = X[k:, k]
        v = x.copy()
        v[0] += math.copysign(float(np.linalg.norm(x)), x[0])
        if v @ v > 0.0:  # x = 0: the identity
            Q[:, k:] -= np.outer(Q[:, k:] @ v, 2.0 * v / (v @ v))
        signs[k] = -math.copysign(1.0, x[0])  # H_k x = -sign(x0) ||x|| e1
    signs[-1] = math.copysign(1.0, X[-1, -1])  # one coordinate: no reflector, R = x
    return Q * signs


class FixedNormals:
    """A stand-in generator whose ``standard_normal`` returns given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def standard_normal(self, size):
        assert self.values.shape == (size,)
        return self.values.copy()


#: Statistics of an O(4) Haar matrix Q: (its mean, its standard deviation).
#: tr Q has the first four moments of a standard normal; Q00^2 is Beta(1/2, 3/2).
#: The deviation of (tr Q)^4, sqrt(E (tr Q)^8 - 9), is about 10 over 4e4 QR draws.
HAAR_O4_STATISTICS = {
    "tr Q": (lambda Q, t: t, 0.0, 1.0),
    "(tr Q)^2": (lambda Q, t: t**2, 1.0, math.sqrt(2.0)),
    "(tr Q)^4": (lambda Q, t: t**4, 3.0, 10.0),
    "Q00^2": (lambda Q, t: Q[:, 0, 0] ** 2, 0.25, 0.25),
    "det Q > 0": (lambda Q, t: np.linalg.det(Q) > 0.0, 0.5, 0.5),
}


#: Orders at the edges of haar_orthogonal's compact-WY blocks: B - 1, B, B + 1, 2B + 1.
BLOCK_EDGES = [kernels._HAAR_BLOCK + d for d in (-1, 0, 1)] + [2 * kernels._HAAR_BLOCK + 1]


def qr_haar(seed: int, m: int) -> np.ndarray:
    """The QR recipe for a Haar draw: LAPACK's Q of an m x m Gaussian, with
    the column signs that make R's diagonal positive."""
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return Q * np.copysign(1.0, R.diagonal())


class TestHaarSampling:
    DRAWS = 4000

    @pytest.fixture(scope="class")
    def o4_draws(self):
        return np.array([sample_haar_orthogonal(4, seed=s) for s in range(self.DRAWS)])

    @pytest.mark.parametrize("name", list(HAAR_O4_STATISTICS))
    def test_o4_moments_match_haar(self, o4_draws, name):
        statistic, mean, sd = HAAR_O4_STATISTICS[name]
        values = statistic(o4_draws, np.trace(o4_draws, axis1=1, axis2=2))
        # 4 standard errors of the mean over DRAWS independent seeds.
        assert abs(float(np.mean(values)) - mean) <= 4.0 * sd / math.sqrt(self.DRAWS)

    @pytest.mark.parametrize("name", ["tr Q", "(tr Q)^2"])
    def test_trace_moments_match_haar_across_blocks(self, name):
        # tr Q has mean 0 and variance 1 on every O(m), m >= 2, so these two
        # rows of the O(4) table hold at m = 2B + 1, a product of three blocks.
        draws = 300
        Q = np.array([sample_haar_orthogonal(BLOCK_EDGES[-1], seed=s) for s in range(draws)])
        statistic, mean, sd = HAAR_O4_STATISTICS[name]
        values = statistic(Q, np.trace(Q, axis1=1, axis2=2))
        assert abs(float(np.mean(values)) - mean) <= 4.0 * sd / math.sqrt(draws)

    @pytest.mark.parametrize("m,seeds", [(3, 300), (20, 100), (100, 20), (BLOCK_EDGES[-1], 10)])
    def test_accuracy_within_twice_the_qr_recipe(self, m, seeds):
        # Mean ||Q^T Q - I||_F over the same seeds: 1.19, 1.37, 1.76 and 1.60
        # times the QR recipe's at m = 3, 20, 100 and 2B + 1 = 257 (B = 128).
        ours = np.mean([orthogonality_residual(sample_haar_orthogonal(m, s)) for s in range(seeds)])
        qr = np.mean([orthogonality_residual(qr_haar(s, m)) for s in range(seeds)])
        assert ours <= 2.0 * qr

    @pytest.mark.parametrize("m", [1, 2, 3, *BLOCK_EDGES])
    def test_blocked_product_matches_reflector_loop(self, m):
        normals = np.random.default_rng(m).standard_normal(m * (m + 1) // 2)
        Q = kernels.haar_orthogonal(np.random.default_rng(m), m)
        assert np.max(np.abs(Q - stewart_reference(normals, m))) <= 1e-14

    def test_t_is_built_without_inverting_a_block_wider_than_the_leaf(self, monkeypatch):
        widths = []
        inv = np.linalg.inv

        def spy(a):
            widths.append(a.shape[-1])
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        kernels.haar_orthogonal(np.random.default_rng(0), 300)
        assert widths and max(widths) == kernels._INVERSE_LEAF == 16

    @pytest.mark.parametrize("b", [1, 2, 16, 17, 100, 128])
    def test_t_builder_inverts_drawn_blocks(self, b):
        # T^-1 of b Householder vectors drawn as the sampler draws them, from
        # 300-row Gaussian columns.  Over 50 seeds per b, ||T T^-1 - I||_F was
        # at most 0.5 b eps (at b = 1), and under 0.08 b eps from b = 16 on.
        eps = np.finfo(float).eps
        for seed in range(10):
            X = np.tril(np.random.default_rng(seed).standard_normal((300, b)))
            x0 = X.diagonal().copy()
            norms = np.linalg.norm(X, axis=0)
            X[range(b), range(b)] += np.copysign(norms, x0)
            T_inv = np.triu(X.T @ X, 1) + np.diag(norms * (norms + np.abs(x0)))
            T = kernels._invert_upper(T_inv.copy())
            assert np.all(np.tril(T, -1) == 0.0)
            assert np.linalg.norm(T @ T_inv - np.eye(b)) <= 2.0 * b * eps

    @pytest.mark.parametrize("m", [1, 3, 70])
    def test_zero_normals_give_identity_reflectors(self, m):
        Q = kernels.haar_orthogonal(FixedNormals(np.zeros(m * (m + 1) // 2)), m)
        assert np.all(np.isfinite(Q))
        assert orthogonality_residual(Q) == 0.0

    def test_one_zero_reflector_among_gaussians(self):
        m = 5
        normals = np.random.default_rng(4).standard_normal(m * (m + 1) // 2)
        _, cols = np.tril_indices(m)
        normals[cols == 1] = 0.0  # reflector 1 draws x = 0
        Q = kernels.haar_orthogonal(FixedNormals(normals), m)
        assert orthogonality_residual(Q) <= 1e-13 * m
        assert np.max(np.abs(Q - stewart_reference(normals, m))) <= 1e-14

    def test_deterministic(self):
        A = sample_haar_orthogonal(6, seed=123)
        B = sample_haar_orthogonal(6, seed=123)
        assert_array_equal(A, B)
        C = sample_haar_orthogonal(6, seed=124)
        assert not np.array_equal(A, C)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 40, *BLOCK_EDGES])
    def test_orthogonal(self, m):
        Q = sample_haar_orthogonal(m, seed=m)
        assert orthogonality_residual(Q) <= 1e-13 * m
        assert abs(abs(np.linalg.det(Q)) - 1.0) <= 1e-12 * m

    def test_both_determinant_signs_occur(self):
        dets = {round(float(np.linalg.det(sample_haar_orthogonal(3, seed=s)))) for s in range(20)}
        assert dets == {-1, 1}

    def test_first_moment_vanishes(self):
        # Haar symmetry: entries have mean zero; with 300 samples the mean of
        # a single entry is ~N(0, 1/(3*300)), so 0.08 is a >4-sigma bound.
        vals = [sample_haar_orthogonal(3, seed=s)[0, 0] for s in range(300)]
        assert abs(float(np.mean(vals))) < 0.08

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_haar_orthogonal(0, seed=1)
        with pytest.raises(ValueError):
            sample_haar_orthogonal(3, seed=-1)


class TestBoostMatrix:
    def test_hand_value(self):
        s2 = math.sqrt(2.0)
        assert_array_equal(
            boost_matrix(1.0, 3),
            [[s2, 1.0, 0.0], [1.0, s2, 0.0], [0.0, 0.0, 1.0]],
        )

    def test_zero_alpha_is_identity(self):
        assert_array_equal(boost_matrix(0.0, 5), np.eye(5))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 10.0, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_preserves_indefinite_form(self, alpha, n):
        T = boost_matrix(alpha, n)
        J = signature_matrix(n)
        defect = np.linalg.norm(T.T @ J @ T - J)
        assert defect <= 1e-9 * (1.0 + alpha * alpha)

    def test_validation(self):
        with pytest.raises(ValueError):
            boost_matrix(-1.0, 3)
        with pytest.raises(ValueError):
            boost_matrix(np.inf, 3)
        with pytest.raises(ValueError):
            boost_matrix(1.0, 1)

    def test_refuses_alpha_whose_square_overflows(self):
        with pytest.raises(ValueError, match="alpha must be a finite non-negative number"):
            boost_matrix(1e200, 3)
