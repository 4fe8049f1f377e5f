"""Spin-algebra layer: product, unit, cone classification, signature."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from socaut import (
    ConeRegion,
    SpinVector,
    cone_classify,
    jordan_product,
    signature_matrix,
    unit,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def spin_vectors(max_tail=7):
    return st.integers(min_value=1, max_value=max_tail).flatmap(
        lambda m: st.tuples(finite, st.lists(finite, min_size=m, max_size=m)).map(
            lambda t: SpinVector(t[0], np.array(t[1]))
        )
    )


def paired_spin_vectors():
    """Two (or three) spin vectors of the same dimension."""
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda m: st.tuples(
            *[
                st.tuples(finite, st.lists(finite, min_size=m, max_size=m)).map(
                    lambda t: SpinVector(t[0], np.array(t[1]))
                )
                for _ in range(3)
            ]
        )
    )


class TestSpinVector:
    def test_basic_shape(self):
        x = SpinVector(2.0, [1.0, 0.0, -1.0])
        assert x.n == 4
        assert x.x0 == 2.0
        assert_array_equal(x.xbar, [1.0, 0.0, -1.0])

    def test_array_round_trip(self):
        x = SpinVector.from_array([3.0, 1.0, 2.0])
        assert_array_equal(x.to_array(), [3.0, 1.0, 2.0])

    def test_immutable(self):
        x = SpinVector(1.0, [0.5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.x0 = 2.0
        with pytest.raises(ValueError):
            x.xbar[0] = 9.0

    def test_source_array_not_aliased(self):
        src = np.array([1.0, 2.0])
        x = SpinVector(0.0, src)
        src[0] = 99.0
        assert x.xbar[0] == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            (np.nan, [1.0], "x0 must be finite"),
            (np.inf, [1.0], "x0 must be finite"),
            (1.0, [np.nan], "xbar must have finite entries"),
            (1.0, [], "xbar must have at least 1 entries"),
            (1.0, [[1.0, 2.0]], "xbar must be one-dimensional"),
            # Unconvertible heads share the finiteness message.
            (10**400, [0.0], "x0 must be finite"),
            (None, [0.0], "x0 must be finite"),
            ("abc", [0.0], "x0 must be finite"),
        ],
    )
    def test_rejects_bad_input(self, bad):
        x0, xbar, message = bad
        with pytest.raises(ValueError, match=f"^{message}"):
            SpinVector(x0, xbar)


class TestJordanProduct:
    def test_hand_value(self):
        # (1, 2) o (3, 4) = (1*3 + 2*4, 1*4 + 3*2) = (11, 10)
        z = jordan_product(SpinVector(1.0, [2.0]), SpinVector(3.0, [4.0]))
        assert z.x0 == 11.0
        assert_array_equal(z.xbar, [10.0])

    def test_unit_is_identity(self):
        x = SpinVector(2.5, [1.0, -3.0, 0.5])
        e = unit(4)
        assert_array_equal(jordan_product(e, x).to_array(), x.to_array())
        assert_array_equal(jordan_product(x, e).to_array(), x.to_array())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            jordan_product(SpinVector(1.0, [1.0]), SpinVector(1.0, [1.0, 2.0]))

    @settings(max_examples=100, deadline=None)
    @given(paired_spin_vectors())
    def test_commutative_bitwise(self, xyz):
        x, y, _ = xyz
        a = jordan_product(x, y)
        b = jordan_product(y, x)
        assert a.x0 == b.x0
        assert_array_equal(a.xbar, b.xbar)

    @settings(max_examples=100, deadline=None)
    @given(paired_spin_vectors())
    def test_form_associative(self, xyz):
        # <x o y, z> = <y, x o z>: the ambient inner product is associative
        # for the product.
        x, y, z = xyz
        lhs = float(jordan_product(x, y).to_array() @ z.to_array())
        rhs = float(y.to_array() @ jordan_product(x, z).to_array())
        scale = max(1.0, np.linalg.norm(x.to_array())) * max(
            1.0, np.linalg.norm(y.to_array())
        ) * max(1.0, np.linalg.norm(z.to_array()))
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(paired_spin_vectors())
    def test_jordan_identity(self, xyz):
        # x^2 o (x o y) = x o (x^2 o y)
        x, y, _ = xyz
        xx = jordan_product(x, x)
        lhs = jordan_product(xx, jordan_product(x, y)).to_array()
        rhs = jordan_product(x, jordan_product(xx, y)).to_array()
        scale = max(1.0, float(np.linalg.norm(x.to_array()))) ** 3 * max(
            1.0, float(np.linalg.norm(y.to_array()))
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(spin_vectors())
    def test_squares_lie_in_cone(self, x):
        # x o x = (||x||^2, 2 x0 xbar) and ||x||^2 >= 2|x0| ||xbar||.
        sq = jordan_product(x, x)
        region = cone_classify(sq, tol=1e-12)
        assert region in (ConeRegion.INTERIOR, ConeRegion.BOUNDARY)


class TestConeClassify:
    @pytest.mark.parametrize(
        "x0,xbar,region",
        [
            (2.0, [1.0, 0.0], ConeRegion.INTERIOR),
            (1.0, [1.0], ConeRegion.BOUNDARY),
            (1.0, [2.0], ConeRegion.OUTSIDE),
            (-1.0, [0.0], ConeRegion.OUTSIDE),
            (0.0, [0.0, 0.0], ConeRegion.BOUNDARY),
            (5.0, [3.0, 4.0], ConeRegion.BOUNDARY),
        ],
    )
    def test_regions(self, x0, xbar, region):
        assert cone_classify(SpinVector(x0, xbar)) is region

    def test_margin_scales_with_magnitude(self):
        # slack 1 at magnitude ~1.4e9: inside the band at tol=1e-9,
        # cleanly interior at tol=1e-10.
        x = SpinVector(1e9, [1e9 - 1.0])
        assert cone_classify(x, tol=1e-9) is ConeRegion.BOUNDARY
        assert cone_classify(x, tol=1e-10) is ConeRegion.INTERIOR

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            cone_classify(unit(3), tol=-1e-9)

    @pytest.mark.parametrize(
        "x0,xbar,region",
        [
            (2e200, [1e200, 0.0], ConeRegion.INTERIOR),
            (1e200, [2e200, 0.0], ConeRegion.OUTSIDE),
            (1e200, [1e200, 0.0], ConeRegion.BOUNDARY),
            (1.5e308, [1e308, 0.0], ConeRegion.INTERIOR),
            (1e308, [1.5e308, 1e308], ConeRegion.OUTSIDE),
        ],
    )
    def test_tail_whose_square_overflows(self, x0, xbar, region):
        # ||xbar||^2 overflows; warnings are errors in this suite.
        assert cone_classify(SpinVector(x0, xbar)) is region

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_three_regions_at_every_power_of_two_scale(self, tol):
        # Slacks +1, 0, -1 against ||xbar|| = 13, exact at every scale 2^k.
        xbar = np.array([3.0, 4.0, 12.0])
        base = {14.0: ConeRegion.INTERIOR, 13.0: ConeRegion.BOUNDARY, 12.0: ConeRegion.OUTSIDE}
        for k in range(-1000, 1001, 25):
            for x0, region in base.items():
                x = SpinVector(math.ldexp(x0, k), np.ldexp(xbar, k))
                norm = math.hypot(x0, 13.0)
                # Outside the band when 2^k |slack| > tol max(1, 2^k ||x||).
                clear = 2.0**k > tol * max(1.0, 2.0**k * norm)
                want = region if clear else ConeRegion.BOUNDARY
                assert cone_classify(x, tol) is want, (k, x0)

    def test_verdict_is_the_unscaled_one_near_the_band_edge(self):
        # Points whose slack sits within a few ulps of the margin tol * m, at
        # scales where ||xbar||^2 is representable: the verdict must be the one
        # the unscaled formula gives, bit for bit.
        def unscaled(x, tol):
            tail_norm = float(np.linalg.norm(x.xbar))
            slack = x.x0 - tail_norm
            scale = max(1.0, float(np.hypot(x.x0, tail_norm)))
            if slack > tol * scale:
                return ConeRegion.INTERIOR
            if abs(slack) <= tol * scale:
                return ConeRegion.BOUNDARY
            return ConeRegion.OUTSIDE

        rng = np.random.default_rng(43)
        seen = set()
        for _ in range(3000):
            m = int(rng.integers(1, 6))
            tol = float(rng.choice([0.0, 1e-12, 1e-9, 1e-3]))
            xbar = rng.standard_normal(m) * 10.0 ** rng.uniform(-140.0, 140.0)
            tail_norm = float(np.linalg.norm(xbar))
            edge = tail_norm + float(rng.choice([-1.0, 1.0])) * tol * max(1.0, tail_norm)
            x0 = float(np.nextafter(edge, math.inf * rng.choice([-1.0, 1.0])))
            for _ in range(int(rng.integers(0, 4))):
                x0 = float(np.nextafter(x0, math.inf * rng.choice([-1.0, 1.0])))
            x = SpinVector(x0, xbar)
            want = unscaled(x, tol)
            assert cone_classify(x, tol) is want
            seen.add(want)
        assert seen == set(ConeRegion)


class TestSignatureAndUnit:
    def test_signature_matrix(self):
        assert_array_equal(signature_matrix(3), np.diag([1.0, -1.0, -1.0]))

    def test_signature_involution(self):
        J = signature_matrix(6)
        assert_array_equal(J @ J, np.eye(6))

    def test_unit_vector(self):
        e = unit(5)
        assert e.x0 == 1.0
        assert_array_equal(e.xbar, np.zeros(4))

    @pytest.mark.parametrize("n", [0, 1, 2.5, float("inf"), float("nan")])
    def test_dimension_validation(self, n):
        with pytest.raises(ValueError):
            unit(n)
        with pytest.raises(ValueError):
            signature_matrix(n)

    @pytest.mark.parametrize("n", [2.5, float("inf"), float("nan"), "four"])
    def test_non_integer_dimension_message(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            unit(n)
