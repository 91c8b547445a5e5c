"""Tests for the scalar backends: error-free transforms and double-double."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from structham.numerics import (
    DDOUBLE,
    NATIVE,
    DoubleDouble,
    all_finite,
    max_abs,
    two_prod,
    two_sum,
)


def dd_to_fraction(x: DoubleDouble) -> Fraction:
    return Fraction(x.hi) + Fraction(x.lo)


class TestTwoSum:
    def test_exact_small_integers(self):
        assert two_sum(1.0, 1.0) == (2.0, 0.0)

    def test_tiny_addend_preserved(self):
        s, e = two_sum(1.0, 2.0**-60)
        assert s == 1.0
        assert e == 2.0**-60

    def test_point_one_plus_point_two(self):
        s, e = two_sum(0.1, 0.2)
        assert s == 0.30000000000000004
        # the pair must represent the exact rational sum of the operands
        assert Fraction(s) + Fraction(e) == Fraction(0.1) + Fraction(0.2)

    def test_error_free_property_bulk(self):
        # 1e6 random pairs; math.fsum of [a, b, -s, -e] is exactly zero iff
        # s + e == a + b in exact arithmetic (fsum returns the correctly
        # rounded value of the true sum, and the true sum is a multiple of
        # 2**-1074, so it rounds to 0.0 only when it is 0).
        rng = np.random.default_rng(2024)
        a = rng.uniform(-1.0, 1.0, 1_000_000) * 10.0 ** rng.integers(-20, 20, 1_000_000)
        b = rng.uniform(-1.0, 1.0, 1_000_000) * 10.0 ** rng.integers(-20, 20, 1_000_000)
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb)
        bad = 0
        for ai, bi, si, ei in zip(a, b, s, e):
            if math.fsum((ai, bi, -si, -ei)) != 0.0:
                bad += 1
        assert bad == 0

    def test_two_prod_exact(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.uniform(-1e8, 1e8)
            b = rng.uniform(-1e8, 1e8)
            p, e = two_prod(a, b)
            assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


class TestDoubleDoubleArithmetic:
    def test_mul_identity(self):
        for x in (DoubleDouble(3.5, 1e-20), DoubleDouble(-2.0), DoubleDouble.from_any("0.1")):
            y = DoubleDouble(1.0) * x
            assert y.hi == x.hi and y.lo == x.lo

    def test_third_times_three(self):
        third = DoubleDouble(1.0) / 3
        err = abs(dd_to_fraction(third * 3) - 1)
        assert err <= Fraction(2) ** -100

    def test_wide_product(self):
        a = DoubleDouble(2.0**50, 2.0**-50)
        b = DoubleDouble(2.0**50, -(2.0**-50))
        exact = Fraction(2) ** 100 - Fraction(2) ** -100
        got = dd_to_fraction(a * b)
        assert abs(got - exact) / exact <= Fraction(2) ** -100

    def test_mul_random_against_rationals(self):
        rng = random.Random(11)
        for _ in range(500):
            a = DoubleDouble(rng.uniform(-10, 10), rng.uniform(-1e-17, 1e-17))
            b = DoubleDouble(rng.uniform(-10, 10), rng.uniform(-1e-17, 1e-17))
            exact = dd_to_fraction(a) * dd_to_fraction(b)
            got = dd_to_fraction(a * b)
            if exact != 0:
                assert abs(got - exact) / abs(exact) <= Fraction(2) ** -100

    def test_div_roundtrip(self):
        rng = random.Random(13)
        for _ in range(500):
            a = DoubleDouble(rng.uniform(-100, 100))
            b = DoubleDouble(rng.uniform(0.1, 100))
            q = a / b
            back = dd_to_fraction(q * b)
            exact = dd_to_fraction(a)
            if exact != 0:
                assert abs(back - exact) / abs(exact) <= Fraction(2) ** -98

    def test_addition_associativity_error_bound(self):
        rng = random.Random(17)
        for _ in range(2000):
            a = DoubleDouble(rng.uniform(-1, 1))
            b = DoubleDouble(rng.uniform(-1, 1))
            c = DoubleDouble(rng.uniform(-1, 1))
            left = (a + b) + c
            right = a + (b + c)
            total = abs(float(a + b + c))
            assert abs(float(left - right)) <= 4 * 2.0**-100 * max(total, 1e-30)

    def test_from_string_correctly_rounded(self):
        exact = Fraction("9.547861040430e-04")
        x = DoubleDouble.from_any("9.547861040430e-04")
        assert abs(dd_to_fraction(x) - exact) / exact <= Fraction(2) ** -105

    def test_comparisons(self):
        a = DoubleDouble(1.0, -1e-20)
        b = DoubleDouble(1.0)
        assert a < b < DoubleDouble(1.0, 1e-20)
        assert a < 2 and a > 0.5
        assert DoubleDouble(2.0) == 2.0

    def test_pow(self):
        x = DoubleDouble.from_any("1.5")
        assert float(x**3) == 3.375
        assert abs(float(x**-2 - DoubleDouble(1.0) / (x * x))) < 1e-30


class TestElementary:
    def test_sqrt_exact_square(self):
        r = DoubleDouble(4.0).sqrt()
        assert r.hi == 2.0 and r.lo == 0.0

    def test_sqrt_negative_raises(self):
        with pytest.raises(ValueError):
            DoubleDouble(-1.0).sqrt()

    def test_log_domain(self):
        with pytest.raises(ValueError):
            DoubleDouble(0.0).log()
        with pytest.raises(ValueError):
            DoubleDouble(-2.0).log()

    def test_sin_cos_at_zero(self):
        assert float(DoubleDouble(0.0).sin()) == 0.0
        assert float(DoubleDouble(0.0).cos()) == 1.0

    def test_sin_one_against_series_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 45
        got = dd_to_fraction(DoubleDouble(1.0).sin())
        ref = mpmath.sin(mpmath.mpf(1))
        rel = abs(mpmath.mpf(got.numerator) / got.denominator - ref) / abs(ref)
        assert rel <= 1e-28

    @pytest.mark.parametrize("fn", ["sin", "cos", "log", "sqrt"])
    def test_elementary_against_mpmath(self, fn):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 45
        rng = random.Random(hash(fn) % 10_000)
        for _ in range(200):
            if fn in ("log", "sqrt"):
                xf = rng.uniform(1e-4, 1e4)
            else:
                xf = rng.uniform(-10, 10)
            x = DoubleDouble(xf)
            got = dd_to_fraction(getattr(x, fn)())
            ref = getattr(mpmath, fn)(mpmath.mpf(xf))
            if ref == 0:
                continue
            rel = abs(mpmath.mpf(got.numerator) / got.denominator - ref) / abs(ref)
            assert rel <= 1e-28, f"{fn}({xf}) off by {rel}"

    def test_pythagorean_identity_bulk(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(10_000):
            x = DoubleDouble(rng.uniform(-10, 10))
            s, c = x.sin(), x.cos()
            worst = max(worst, abs(float(s * s + c * c - 1)))
        assert worst <= 1e-27


class TestPrecisionBackends:
    def test_native_real_parses_strings(self):
        assert NATIVE.real("0.5") == 0.5
        assert NATIVE.real(Fraction(1, 4)) == 0.25

    def test_ddouble_array_roundtrip(self):
        arr = DDOUBLE.asarray([["0.1", "0.2"], ["0.3", 4]])
        assert arr.dtype == object
        assert isinstance(arr[0, 0], DoubleDouble)
        assert abs(dd_to_fraction(arr[0, 0]) - Fraction("0.1")) < Fraction(2) ** -105 / 10

    def test_zeros(self):
        z = DDOUBLE.zeros((2, 3))
        assert float(z[1, 2]) == 0.0
        zn = NATIVE.zeros((2, 3))
        assert zn.dtype == np.float64

    def test_max_abs_and_finite(self):
        a = NATIVE.asarray([[1.0, -3.0], [2.0, 0.5]])
        assert max_abs(a) == 3.0
        d = DDOUBLE.asarray([[1.0, -3.0]])
        assert max_abs(d) == 3.0
        assert all_finite(a) and all_finite(d)
        a[0, 0] = np.inf
        assert not all_finite(a)
        assert max_abs(NATIVE.zeros((0, 2))) == 0.0
        assert max_abs(DDOUBLE.zeros((0, 2))) == 0.0

    def test_defaults(self):
        assert NATIVE.default_tol == 1e-14
        assert DDOUBLE.default_tol == 1e-30
