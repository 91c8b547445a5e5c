"""Tests for the scalar backends: error-free transforms and double-double."""

import copy
import itertools
import math
import operator
import pickle
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from structham.numerics import (
    DDOUBLE,
    NATIVE,
    PI_DD,
    DoubleDouble,
    _PIO2_1,
    _PIO2_2,
    _PIO2_3,
    _PIO2_4,
    _SIN_COS_J,
    _dd,
    _reduce_half_pi,
    all_finite,
    max_abs,
    sin_cos,
    two_prod,
    two_sum,
)
from structham.problems import make_mass_spring


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

    def test_from_ratio_rounds_each_word_once(self):
        # hi = fl(n/d), lo = fl(n/d - hi), unreduced ratios alike; overflow raises
        for n, d in [(1, 3), (-22, 7), (10**40 + 1, 3 * 10**39), (-7, 10**330), (2 * 355, 2 * 113)]:
            x = DoubleDouble.from_ratio(n, d)
            exact = Fraction(n, d)
            assert x.hi == float(exact) and x.lo == float(exact - Fraction(x.hi))
            assert words(x) == words(DoubleDouble.from_fraction(exact))
        with pytest.raises(OverflowError):
            DoubleDouble.from_ratio(10**400, 3)

    def test_comparisons(self):
        a = DoubleDouble(1.0, -1e-20)
        b = DoubleDouble(1.0)
        assert a < b < DoubleDouble(1.0, 1e-20)
        assert a < 2 and a > 0.5
        assert DoubleDouble(2.0) == 2.0
        assert a <= a <= b and b >= a >= a and a != b and not a != a
        assert (b == "1") is False and b != "1"
        with pytest.raises(TypeError):
            b <= "1"

    def test_pow(self):
        x = DoubleDouble.from_any("1.5")
        assert float(x**3) == 3.375
        assert abs(float(x**-2 - DoubleDouble(1.0) / (x * x))) < 1e-30

    def test_equal_values_hash_equal(self):
        # a value with a zero low word hashes as the float it equals
        third = DoubleDouble(1.0) / 3
        assert hash(DoubleDouble(1.5)) == hash(DoubleDouble.from_any("1.5")) == hash(1.5)
        assert hash(third) == hash(DoubleDouble(1.0) / DoubleDouble(3.0))
        assert {DoubleDouble(2.0), DoubleDouble.from_any("2"), 2.0, 2} == {2.0}
        assert len({third, DoubleDouble(1.0) / 3, DoubleDouble(third.hi)}) == 2

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_other_operands_are_a_type_error(self, op):
        # each operator returns NotImplemented, so Python raises, whichever side the str is on
        for a, b in ((DoubleDouble(1.0), "1"), ("1", DoubleDouble(1.0))):
            with pytest.raises(TypeError):
                op(a, b)


# Reference double-double arithmetic from the public error-free transforms:
# the textbook formulas, with every intermediate result renormalized by the
# constructor's two_sum.  Pairs are (hi, lo) tuples.

def _quick(a, b):
    s = a + b
    return s, b - (s - a)


def ref_add(a, b):
    s1, s2 = two_sum(a[0], b[0])
    t1, t2 = two_sum(a[1], b[1])
    s2 += t1
    s1, s2 = _quick(s1, s2)
    s2 += t2
    return two_sum(*_quick(s1, s2))


def ref_sub(a, b):
    return ref_add(a, two_sum(-b[0], -b[1]))


def ref_mul(a, b):
    p1, p2 = two_prod(a[0], b[0])
    p2 += a[0] * b[1] + a[1] * b[0] + a[1] * b[1]
    return two_sum(*_quick(p1, p2))


def ref_product(a, b):
    """The kernel's product: ``ref_mul``, except that a zero product of the
    high words is float64's signed zero (the textbook sum of the error terms
    would turn -0.0 into +0.0)."""
    p = a[0] * b[0]
    return (p, 0.0) if p == 0.0 else ref_mul(a, b)


def ref_div(a, b):
    q1 = a[0] / b[0]
    r = ref_sub(a, ref_mul(b, two_sum(q1, 0.0)))
    q2 = r[0] / b[0]
    r = ref_sub(r, ref_mul(b, two_sum(q2, 0.0)))
    q3 = r[0] / b[0]
    return ref_add(two_sum(*_quick(q1, q2)), two_sum(q3, 0.0))


def _signed_zero(ref, plain):
    """The kernel's form of ``ref``: an exact zero result is (z, 0.0) with z
    float64's zero for the high words, ``plain`` (the textbook formulas
    would turn a -0.0 into +0.0)."""
    def kernel(a, b):
        r = ref(a, b)
        if r[0] != 0.0:
            return r
        z = plain(a[0], b[0])
        return (z if z == 0.0 else 0.0, 0.0)
    return kernel


ref_sum = _signed_zero(ref_add, operator.add)
ref_difference = _signed_zero(ref_sub, operator.sub)
ref_quotient = _signed_zero(ref_div, operator.truediv)


def words(x):
    """Bit pattern of a DoubleDouble or (hi, lo) pair; every NaN reads the same."""
    if isinstance(x, DoubleDouble):
        x = (x.hi, x.lo)
    return tuple("nan" if v != v else v.hex() for v in x)


def _apply(fn, *args):
    try:
        return words(fn(*args))
    except ZeroDivisionError:
        return "ZeroDivisionError"


def _expected(want, plain):
    """Words the kernel must give for the reference result ``want()``.

    Where the textbook formulas break down -- a zero divisor, or a NaN low
    word from an infinite or overflowing intermediate -- the kernel gives
    float64's result on the high words, ``plain``, as (plain, 0.0).
    """
    try:
        r = want()
    except ZeroDivisionError:
        r = (math.nan, math.nan)
    if r[1] != r[1] and plain == plain:
        return words((plain, 0.0))
    return words(r)


def _f64(op, a, b):
    with np.errstate(all="ignore"):
        return float(op(np.float64(a), np.float64(b)))


class TestFastKernel:
    SPECIAL = (0.0, -0.0, 1.0, -3.0, 0.5, 6.0, 0.1, 1e-300, -1e300, 5e-324, 1.7e308,
               math.inf, -math.inf, math.nan)
    INTS = (0, 1, -1, 2**53 - 1, -(2**53 - 1), 2**53, 2**60)  # one word below 2**53, parsed above

    @staticmethod
    def random_pairs(n, seed):
        # normalized pairs, exponents across +-300; one in four has lo = 0
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            e = rng.randint(-300, 300)
            hi = rng.uniform(-1, 1) * 2.0**e
            lo = rng.choice((0.0, 1.0, 1.0, 1.0)) * rng.uniform(-1, 1) * 2.0 ** (e - 53)
            out.append(two_sum(hi, lo))
        return out

    def check(self, a, b, n):
        x, y = DoubleDouble(*a), DoubleDouble(*b)
        for op, ref, f in ((x.__add__, ref_sum, np.add), (x.__sub__, ref_difference, np.subtract),
                           (x.__mul__, ref_product, np.multiply), (x.__truediv__, ref_quotient, np.divide)):
            want = _expected(lambda: ref(a, b), _f64(f, x.hi, y.hi))
            assert _apply(op, y) == want, (op.__name__, a, b)
        v = b[0]
        fv = two_sum(v, -0.0)  # the coerced operand; a float -0.0 keeps its sign
        w = DoubleDouble(v).hi
        for got, want, plain in ((lambda: x + v, lambda: ref_sum(a, fv), _f64(np.add, x.hi, w)),
                                 (lambda: v + x, lambda: ref_sum(a, fv), _f64(np.add, x.hi, w)),
                                 (lambda: x - v, lambda: ref_difference(a, fv), _f64(np.subtract, x.hi, w)),
                                 (lambda: v - x, lambda: ref_difference(fv, a), _f64(np.subtract, w, x.hi)),
                                 (lambda: x * v, lambda: ref_product(a, fv), _f64(np.multiply, x.hi, w)),
                                 (lambda: v * x, lambda: ref_product(a, fv), _f64(np.multiply, x.hi, w)),
                                 (lambda: x / v, lambda: ref_quotient(a, fv), _f64(np.divide, x.hi, w)),
                                 (lambda: v / x, lambda: ref_quotient(fv, a), _f64(np.divide, w, x.hi))):
            assert _apply(got) == _expected(want, plain), (a, v)
        dn = DoubleDouble.from_any(n)  # an int operand n acts as its DoubleDouble
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert _apply(op, x, n) == _apply(op, x, dn), (op.__name__, a, n)
            assert _apply(op, n, x) == _apply(op, dn, x), (op.__name__, n, a)

    def test_bitwise_equal_to_reference_random(self):
        pairs = self.random_pairs(12_000, 31)
        rng = random.Random(37)
        for a in pairs:
            self.check(a, rng.choice(pairs), rng.choice(self.INTS))

    def test_bitwise_equal_to_reference_special(self):
        pairs = [two_sum(h, lo) for h in self.SPECIAL for lo in (0.0, 1e-17)]
        pairs += self.random_pairs(20, 41)
        ints = itertools.cycle(self.INTS)
        for a in pairs:
            for b in pairs:
                self.check(a, b, next(ints))

    def test_int_operands(self):
        rng = random.Random(43)
        for a in self.random_pairs(2000, 47):
            n = rng.choice((0, 1, -2, 3, 10**6, -(2**52), 2**53 - 1))
            x, fn = DoubleDouble(*a), two_sum(float(n), 0.0)
            assert words(x + n) == words(ref_sum(a, fn))
            assert words(n - x) == words(ref_difference(fn, a))
            assert words(x * n) == words(ref_product(a, fn))
            if n:
                assert words(x / n) == words(ref_quotient(a, fn))
        # beyond 2**53 an int is parsed exactly, in two words
        big = 2**60 + 1
        assert words(DoubleDouble(1.0) * big) == (float(2**60).hex(), (1.0).hex())

    def test_results_are_normalized(self):
        pairs = [(h, lo) for h in self.SPECIAL for lo in (0.0, -0.0, 1.0, -1e-20, math.inf, math.nan)]
        for h, lo in pairs:
            # _dd is the constructor, bit for bit, also for pairs it must renormalize
            assert words(_dd(h, lo)) == words(DoubleDouble(h, lo)), (h, lo)
        values = [DoubleDouble(h, lo) for h, lo in pairs]
        for x in values:
            for y in values[::5]:
                for z in (x + y, x - y, x * y, -x):
                    assert z.hi != z.hi or z.hi == z.hi + z.lo

    def test_immutable(self):
        x = DoubleDouble(1.0) + DoubleDouble(2.0**-60)
        with pytest.raises(AttributeError):
            x.hi = 0.0
        with pytest.raises(AttributeError):
            x.lo = 0.0

    def test_pickle_and_copy_keep_both_words(self):
        values = [DoubleDouble(1.0) + DoubleDouble(2.0**-60)] + [DoubleDouble(h) for h in self.SPECIAL]
        for x in values:
            for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert type(y) is DoubleDouble and words(y) == words(x), x
                with pytest.raises(AttributeError):
                    y.hi = 0.0
        arr = copy.deepcopy(np.array(values, dtype=object))
        assert [words(y) for y in arr] == [words(x) for x in values]

    def test_unsupported_operand(self):
        with pytest.raises(TypeError):
            DoubleDouble(1.0) + Fraction(1, 3)

    def test_zero_decimal_string(self):
        assert DoubleDouble(0.0).to_decimal_string() == "0." + "0" * 31 + "E+0"
        assert str(DoubleDouble(-0.0)) == "0." + "0" * 31 + "E+0"
        assert DoubleDouble(0.0).to_decimal_string(5) == "0.0000E+0"
        assert str(DoubleDouble(1.5)) == "1.5" + "0" * 30 + "E+0"
        assert DoubleDouble(-0.25).to_decimal_string(3) == "-2.50E-1"


class TestNonFinite:
    """Overflow and zero divisors give float64's inf or NaN, never an exception."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinity_is_stored_with_zero_low_word(self, sign):
        inf = sign * math.inf
        for x in (DoubleDouble(inf), DDOUBLE.real(inf), DDOUBLE.real(f"{sign:+}e400"),
                  DoubleDouble.from_fraction(int(sign) * Fraction(10**400))):
            assert words(x) == words((inf, 0.0))
            assert float(x) == inf

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_reads_inf(self, sign):
        big = DoubleDouble(sign * 1e308)
        for x in (big * 10, 10 * big, big * big * sign, big + big, big - (-big), big * DoubleDouble(10.0)):
            assert words(x) == words((sign * math.inf, 0.0))
        assert words(DoubleDouble(math.inf) + 1.0) == words((math.inf, 0.0))
        assert words(-DoubleDouble(math.inf)) == words((-math.inf, 0.0))
        assert math.isnan(float(DoubleDouble(math.inf) - DoubleDouble(math.inf)))
        assert math.isnan(float(DoubleDouble(math.inf) * 0))

    def test_sqrt_keeps_the_sign_of_zero(self):
        # as math.sqrt(-0.0) is -0.0, on a scalar and through numpy's object sqrt
        for zero in (0.0, -0.0):
            assert words(DoubleDouble(zero).sqrt()) == words((math.sqrt(zero), 0.0))
        assert words(np.sqrt(DDOUBLE.asarray([[-0.0]]))[0, 0]) == words((-0.0, 0.0))

    @pytest.mark.parametrize("rows", [[[1e308, -2.0]], [[-1e308, 3.0]], [[math.inf]], [[-math.inf, 1.0]]])
    def test_max_abs_matches_float64(self, rows):
        # the double-double transforms meet inf - inf on the way, so numpy
        # reports an invalid operation where float64 reports an overflow
        with np.errstate(over="ignore", invalid="ignore"):
            want = max_abs(NATIVE.asarray(rows) * 10)
            got = max_abs(DDOUBLE.asarray(rows) * 10)
        assert want == math.inf and got == math.inf

    @pytest.mark.parametrize("a", [1.0, -2.5, 0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_zero_divisor_like_float64(self, a, negative_zero):
        zero = -DoubleDouble(0.0) if negative_zero else DoubleDouble(0.0)
        assert math.copysign(1.0, zero.hi) == (-1.0 if negative_zero else 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = float(np.float64(a) / np.float64(zero.hi))
        got = DoubleDouble(a) / zero
        assert words(got) == words((want, 0.0 if want == want else want))
        if a == 1.0:
            assert words(1 / zero) == words(got)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_float_negative_zero_keeps_its_sign(self, a):
        assert math.copysign(1.0, DoubleDouble(-0.0).hi) == -1.0
        assert math.copysign(1.0, DDOUBLE.real(-0.0).hi) == -1.0
        with np.errstate(divide="ignore"):
            want = float(np.float64(a) / np.float64(-0.0))
        for got in (DoubleDouble(a) / -0.0, DoubleDouble(a) / DoubleDouble(-0.0), a / DoubleDouble(-0.0)):
            assert words(got) == words((want, 0.0))

    @pytest.mark.parametrize("a", [0.0, -0.0, 2.5, -3.0, -1e-300])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_product_sign_like_float64(self, a, zero):
        want = words((float(np.float64(a) * np.float64(zero)), 0.0))
        x, z = DoubleDouble(a), DoubleDouble(zero)
        for got in (x * z, z * x, x * zero, zero * x, a * z):
            assert words(got) == want

    @pytest.mark.parametrize(
        "op,b",
        [(op, b) for op in (operator.add, operator.sub) for b in (0.0, -0.0, 1.0, -1.0)]
        + [(operator.truediv, b) for b in (1.0, -1.0)],
    )
    @pytest.mark.parametrize("a", [0.0, -0.0, 1.0, -1.0])
    def test_zero_sum_difference_quotient_sign_like_float64(self, op, a, b):
        # every sign combination, with DoubleDouble and float operands
        want = op(a, b)
        x, y = DoubleDouble(a), DoubleDouble(b)
        for got in (op(x, y), op(x, b), op(a, y)):
            assert words(got) == words((want, 0.0)), (got, want)

    def test_zero_divisor_in_object_arrays(self):
        q = DDOUBLE.asarray([[1.0]]) / DDOUBLE.asarray([[0.0]])
        assert q.shape == (1, 1) and words(q[0, 0]) == words((math.inf, 0.0))
        assert max_abs(q) == math.inf and not all_finite(q)

    def test_all_finite_of_a_scalar(self):
        assert all_finite(2.0) and all_finite(DoubleDouble(2.0, 1e-20))
        for v in (math.inf, -math.inf, math.nan):
            assert not all_finite(v) and not all_finite(DoubleDouble(v))

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
    def test_decimal_string_of_non_finite_is_float64s(self, v):
        assert DoubleDouble(v).to_decimal_string() == str(DoubleDouble(v)) == repr(v)


class TestElementary:
    def test_sqrt_exact_square(self):
        r = DoubleDouble(4.0).sqrt()
        assert r.hi == 2.0 and r.lo == 0.0

    def test_sqrt_of_zero_is_zero(self):
        assert words(DoubleDouble(0.0).sqrt()) == words((0.0, 0.0))

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

    ELEMENTARY = ("sin", "cos", "log", "sqrt")

    @pytest.mark.parametrize("fn", ELEMENTARY)
    def test_elementary_against_mpmath(self, fn):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 45
        rng = random.Random(self.ELEMENTARY.index(fn))  # fixed per function: reproducible
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

    def test_log_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        rng = random.Random(31)
        xs = []
        for _ in range(300):  # x in [1e-300, 1e6] with a nonzero low word
            x = Fraction(10.0 ** rng.uniform(-300, 6)) * (1 + Fraction(rng.random()) / 2**60)
            xs.append(DoubleDouble.from_fraction(x))
        for e in range(-60, 20):  # at and on both sides of powers of 2
            p = 2.0**e
            xs += [DoubleDouble(p), DoubleDouble(p, p * 2.0**-60), DoubleDouble(p, -p * 2.0**-60),
                   DoubleDouble(p * (1 + 2.0**-30)), DoubleDouble(p * (1 - 2.0**-30))]
        for d in (2.0**-20, 2.0**-52, 2.0**-53, 1e-3, 0.3):  # near 1, where log is small
            xs += [DoubleDouble(1.0, d * 2.0**-53), DoubleDouble(1.0 + d), DoubleDouble(1.0 - d),
                   DoubleDouble(1.0 - d, 1e-40)]
        xs += [DoubleDouble(1e6), DoubleDouble(1e6, -1e-11), DoubleDouble(math.sqrt(2.0))]
        for x in xs:
            got = dd_to_fraction(x.log())
            arg = dd_to_fraction(x)
            ref = mpmath.log(mpmath.mpf(arg.numerator) / arg.denominator)
            if ref == 0:
                assert got == 0
                continue
            rel = abs(mpmath.mpf(got.numerator) / got.denominator - ref) / abs(ref)
            assert rel <= 1e-30, f"log({x!r}) off by {rel}"

    def test_pythagorean_identity_bulk(self):
        rng = random.Random(23)
        worst = 0.0
        for _ in range(10_000):
            x = DoubleDouble(rng.uniform(-10, 10))
            s, c = x.sin(), x.cos()
            worst = max(worst, abs(float(s * s + c * c - 1)))
        assert worst <= 1e-27


    def test_sin_cos_pair(self):
        rng = random.Random(29)
        for _ in range(300):
            x = DoubleDouble(rng.uniform(-20, 20), rng.uniform(-1e-16, 1e-16))
            s, c = sin_cos(x)
            assert words(s) == words(x.sin()) and words(c) == words(x.cos())
        assert sin_cos(0.3) == (math.sin(0.3), math.cos(0.3))
        arr = np.linspace(-3, 3, 7)
        s, c = sin_cos(arr)
        assert np.array_equal(s, np.sin(arr)) and np.array_equal(c, np.cos(arr))

    def test_float_arrays_get_libm_words(self):
        # a stack of float64 nodes takes numpy's sin and cos, one node libm's
        # (math.sin, math.cos); the node-by-node contract of the problems
        # needs the same words from both, signed zeros included
        rng = np.random.default_rng(20)
        x = np.concatenate([rng.uniform(-s, s, 40_000) for s in (1.0, 10.0, 1e3, 1e6, 1e16)])
        x[:4] = (0.0, -0.0, 5e-324, -1e-300)
        s, c = sin_cos(x)
        assert len(x) == 200_000
        for got, fn in ((s, math.sin), (c, math.cos)):
            want = np.array([fn(v) for v in x.tolist()])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("x", [1e17, 1e25, -1e25, 1e300, -1.7976931348623157e308])
    def test_sin_cos_of_huge_arguments_return_at_once(self, x):
        # k rounded from the float quotient is off by ~|x| * 1e-16 here; the
        # reduction must not step by pi/2 that many times
        start = time.process_time()
        s, c = DoubleDouble(x).sin_cos()
        assert time.process_time() - start < 0.5
        assert abs(s) <= 1 and abs(c) <= 1
        assert abs(float(s * s + c * c - 1)) <= 1e-30
        assert words(s) == words(DoubleDouble(x).sin()) and words(c) == words(DoubleDouble(x).cos())

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_sin_cos_of_non_finite_are_nan(self, x):
        for got in (*DoubleDouble(x).sin_cos(), DoubleDouble(x).sin(), DoubleDouble(x).cos()):
            assert math.isnan(got.hi)
        with np.errstate(invalid="ignore"):  # float64 arrays flag sin(inf) too
            s, c = sin_cos(DDOUBLE.asarray([[x, 0.5]]))
            assert math.isnan(s[0, 0].hi) and math.isnan(c[0, 0].hi)
            assert math.isnan(np.sin(np.float64(x))) and math.isnan(np.cos(np.float64(x)))

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324])
    def test_sin_cos_signed_zero_like_float64(self, x):
        # sin(t) = t * (1 + ...) keeps t's sign: sin(-0.0) is -0.0 as in float64
        want = tuple((float(f(np.float64(x))).hex(), "0x0.0p+0") for f in (np.sin, np.cos))
        arr = DDOUBLE.asarray([[x, x]])
        got = [DoubleDouble(x).sin_cos(), (DoubleDouble(x).sin(), DoubleDouble(x).cos()),
               (np.sin(arr)[0, 1], np.cos(arr)[0, 1]), tuple(v[0, 1] for v in sin_cos(arr))]
        for s, c in got:
            assert (words(s), words(c)) == want

    @staticmethod
    def _check_sin_cos(xs, per_x=0.0):
        """|error| <= 1e-28 |ref| + per_x |x| for sin and cos of each x, against mpmath."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for x in xs:
            fr = dd_to_fraction(x)
            arg = mpmath.mpf(fr.numerator) / fr.denominator
            for got, ref in zip(x.sin_cos(), (mpmath.sin(arg), mpmath.cos(arg))):
                g = dd_to_fraction(got)
                err = abs(mpmath.mpf(g.numerator) / g.denominator - ref)
                assert err <= 1e-28 * abs(ref) + per_x * abs(arg), f"{x!r}: error {err} of {ref}"

    def test_sin_cos_at_table_cell_edges(self):
        # (2j + 1)/32 leaves t = +-1/32 after the table's j/16, the widest
        # remainder the series sees; also one ulp or a low word either side
        xs = []
        for j in range(-13, 13):
            e = (2 * j + 1) / 32
            xs += [DoubleDouble(e), DoubleDouble(e, 1e-18), DoubleDouble(e, -1e-18),
                   DoubleDouble(math.nextafter(e, 0.0)), DoubleDouble(math.nextafter(e, math.inf))]
        for k in (-3, -1, 1, 2, 5):  # edges reached after the reduction by pi/2
            xs += [DoubleDouble(k * math.pi / 2 + (2 * j + 1) / 32) for j in (-13, -1, 0, 12)]
        self._check_sin_cos(xs)

    def test_sin_cos_at_quarter_pi_and_near_multiples_of_half_pi(self):
        # near a zero the result is as small as the reduced argument, so the
        # reduction's absolute error must stay far below it: pi + 1e-10 and
        # pi/2 + 1e-14 need pi/2 to more than two words
        quarter = PI_DD * 0.25
        xs = [quarter, -quarter, quarter + 1e-20, quarter - 1e-20]
        xs += [DoubleDouble(v) for v in (0.7853981633974483, 0.7853981633974484, -0.7853981633974484)]
        for k in range(-8, 9):
            xs += [PI_DD * (0.5 * k) + d for d in (0.1, -0.1, 1e-3, -1e-3, 0.7, -0.7)]
        xs += [PI_DD + 1e-10, PI_DD * 0.5 + 1e-14]
        self._check_sin_cos(xs)

    def test_sin_cos_after_an_upward_reduction_step(self):
        # the quotient by pi/2 rounds to 8 here and leaves r just above pi/4:
        # one more step by pi/2 brings it back
        x = DoubleDouble(13.351768777756622)
        assert round(float(x) / (math.pi / 2)) == 8 and _reduce_half_pi(x)[1] == 9 % 4
        self._check_sin_cos([x])

    def test_half_pi_parts(self):
        # Cody-Waite: two parts of at most 33 bits, so that k times each is
        # exact for |k| < 2**20, then the nearest floats to what is left
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 80
        for part in (_PIO2_1, _PIO2_2):
            assert Fraction(part).numerator.bit_length() <= 33
        rest = mpmath.pi / 2 - _PIO2_1 - _PIO2_2
        assert _PIO2_3 == float(rest) and _PIO2_4 == float(rest - _PIO2_3)
        assert abs(rest - _PIO2_3 - _PIO2_4) <= 1e-53
        assert _PIO2_1 == float(mpmath.nint(mpmath.pi / 2 * 2**32) / 2**32)

    @pytest.mark.parametrize("x", [1e-3, 2.0**-30, 1e-8, 1e-20, 1e-100, 1e-160, 1e-300, 1e-310, 5e-324])
    def test_sin_cos_of_tiny_arguments(self, x):
        self._check_sin_cos([DoubleDouble(x), DoubleDouble(-x)])
        if x > 1e-280:  # a low word that is itself a normal float
            self._check_sin_cos([DoubleDouble(x, x * 2.0**-60), DoubleDouble(-x, x * 2.0**-70)])

    def test_sin_cos_of_large_arguments_with_low_words(self):
        # up to |x| = 1e4 the reduction's absolute error stays far below
        # 1e-28 |r|, next to a zero too
        rng = random.Random(41)
        xs = []
        for _ in range(200):
            hi = rng.choice((-1, 1)) * 10.0 ** rng.uniform(0, 4)
            xs.append(DoubleDouble(hi, hi * rng.uniform(-1, 1) * 2.0**-54))
        xs += [DoubleDouble(1e4, 3e-13), DoubleDouble(-1e4, -1e-14), DoubleDouble(9999.5, 1e-13)]
        self._check_sin_cos(xs)
        # past |k| = 2**20, k times each 33-bit part of pi/2 needs its error
        # word: without it r is off by about |x| 2**-53
        big = [DoubleDouble(s * m * rng.uniform(1, 9.9)) for m in (1e7, 1e12, 1e16) for s in (1, -1)]
        big += [DoubleDouble(x.hi, x.hi * 2.0**-60) for x in big]
        self._check_sin_cos(big, per_x=2.0**-105)

    def test_table_literals_are_the_nearest_double_doubles(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60

        def nearest(v):
            hi = float(v)
            return hi, float(v - mpmath.mpf(hi))

        assert len(_SIN_COS_J) == 27
        for j in range(14):
            a = mpmath.mpf(j) / 16
            s, c = _SIN_COS_J[j]
            assert (s.hi, s.lo) == nearest(mpmath.sin(a)) and (c.hi, c.lo) == nearest(mpmath.cos(a)), j
            s_neg, c_neg = _SIN_COS_J[-j] if j else (-s, c)
            assert words(s_neg) == words(-s) and words(c_neg) == words(c), j

    def test_mass_spring_exact_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 45
        prob = make_mass_spring(m=2.0, kappa=3.0, x0=0.7, p0=-0.4, precision=DDOUBLE)
        m, k = mpmath.mpf(2), mpmath.mpf(3)
        w = mpmath.sqrt(k / m)
        x0, p0 = mpmath.mpf(0.7), mpmath.mpf(-0.4)
        rng = random.Random(53)
        for tf in [0.0, 1e-3, 1.0, 12.5] + [rng.uniform(0, 100) for _ in range(20)]:
            X, P = prob.exact_solution(DDOUBLE.real(tf))
            t = mpmath.mpf(tf)
            x_ref = x0 * mpmath.cos(w * t) + p0 / (m * w) * mpmath.sin(w * t)
            p_ref = p0 * mpmath.cos(w * t) - m * w * x0 * mpmath.sin(w * t)
            for got, ref in ((X[0, 0], x_ref), (P[0, 0], p_ref)):
                fr = dd_to_fraction(got)
                assert abs(mpmath.mpf(fr.numerator) / fr.denominator - ref) <= 1e-28, tf


class TestPrecisionBackends:
    def test_native_real_parses_strings(self):
        assert NATIVE.real("0.5") == 0.5
        assert NATIVE.real(Fraction(1, 4)) == 0.25

    def test_ddouble_array_roundtrip(self):
        arr = DDOUBLE.asarray([["0.1", "0.2"], ["0.3", 4]])
        assert arr.dtype == object
        assert isinstance(arr[0, 0], DoubleDouble)
        assert abs(dd_to_fraction(arr[0, 0]) - Fraction("0.1")) < Fraction(2) ** -105 / 10

    @pytest.mark.parametrize("data", [
        0.5,
        "0.1",
        np.float64(-0.0),
        np.array(Fraction(1, 3), dtype=object),
        [["0.1", Fraction(1, 3)], [0.5, DoubleDouble(1.0, 1e-20)], [2**60 + 1, -7]],
        np.linspace(-2.0, 3.0, 6).reshape(2, 3, 1),
        np.array([[DoubleDouble(2.0, -1e-17), "1e-30"], [Fraction(-2, 7), 1.25]], dtype=object),
        [[math.inf, math.nan], [-math.inf, -0.0]],
        np.zeros((0, 2)),
    ], ids=["float", "str", "float64-scalar", "0-d-object", "nested-mixed", "float64-array",
            "object-array", "non-finite", "empty"])
    def test_ddouble_asarray_entries_are_real(self, data):
        # a fresh object array of the input's shape, each entry the words of
        # DDOUBLE.real of that entry, and no floating-point warning on inf or NaN
        raw = np.asarray(data, dtype=object)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = DDOUBLE.asarray(data)
        assert type(got) is np.ndarray and got.dtype == object and got.shape == raw.shape
        assert got is not data and not np.shares_memory(got, raw)
        for g, v in zip(got.flat, raw.flat):
            assert type(g) is DoubleDouble and words(g) == words(DDOUBLE.real(v))

    def test_max_abs_and_finite(self):
        a = NATIVE.asarray([[1.0, -3.0], [2.0, 0.5]])
        assert max_abs(a) == 3.0
        d = DDOUBLE.asarray([[1.0, -3.0]])
        assert max_abs(d) == 3.0
        assert all_finite(a) and all_finite(d)
        a[0, 0] = np.inf
        assert not all_finite(a)
        assert max_abs(NATIVE.asarray(np.zeros((0, 2)))) == 0.0
        assert max_abs(DDOUBLE.asarray(np.zeros((0, 2)))) == 0.0

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("rows", [
        [[math.nan], [1.0]],
        [[1.0], [math.nan]],
        [[-2.0, 5.0], [math.nan, 3.0]],
        [[1e300, 1.0], [2.0, math.nan]],
    ], ids=["nan-first", "nan-last", "nan-middle", "nan-after-large"])
    def test_max_abs_nan_wins(self, prec, rows):
        assert math.isnan(max_abs(prec.asarray(rows)))

    @pytest.mark.parametrize("data", [
        [[1.0, -3.0], [2.0, 0.5]],
        [[-0.0]],
        [[math.nan], [1.0]],
        [[-math.inf, 1.0]],
        [[1e300, -1e-300], [math.nan, math.inf]],
        np.zeros((0, 2)),
        np.zeros(0),
        2.5,
    ], ids=["plain", "negative-zero", "nan", "inf", "mixed", "empty-2d", "empty-1d", "scalar"])
    def test_float64_max_abs_is_numpy_max(self, data):
        a = np.asarray(data, dtype=float)
        want = float(np.abs(a).max()) if a.size else 0.0
        got = max_abs(a)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
        strided = np.asarray(data, dtype=float).repeat(2)[::2]
        assert max_abs(strided) == got or math.isnan(got)

    def test_defaults(self):
        assert NATIVE.default_tol == 1e-14
        assert DDOUBLE.default_tol == 1e-30

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_copies_are_the_same_record(self, prec):
        # the solver and the table cache compare backends by identity
        copies = [copy.copy(prec), copy.deepcopy(prec), copy.deepcopy([prec])[0]]
        copies += [pickle.loads(pickle.dumps(prec, protocol=k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is prec for c in copies)

    @pytest.mark.parametrize("n,d", [(1, 3), (-2, 7), (10**40 + 1, 3**50), (0, 5), (7, 1)])
    def test_ratio_rounds_the_quotient(self, n, d):
        assert NATIVE.ratio(n, d).hex() == float(Fraction(n, d)).hex()
        got = DDOUBLE.ratio(n, d)
        assert type(got) is DoubleDouble and words(got) == words(DoubleDouble.from_ratio(n, d))
        assert abs(dd_to_fraction(got) - Fraction(n, d)) <= abs(Fraction(n, d)) * Fraction(2) ** -104


def _max_abs_before_fast_path(arr) -> float:
    # max_abs as it read before float arrays took the first branch
    if isinstance(arr, np.ndarray):
        if arr.dtype == object:
            vals = [abs(float(v)) for v in arr.flat]
            return math.nan if math.isnan(sum(vals)) else max(vals, default=0.0)
        return float(np.maximum.reduce(np.abs(arr), axis=None)) if arr.size else 0.0
    return abs(float(arr))


class _Tagged(np.ndarray):
    """An ndarray subclass: it takes the general branch of max_abs."""


_MAX_ABS_VALUES = {
    "nan-first": [math.nan, 2.0, -3.0],
    "nan-middle": [2.0, math.nan, -3.0],
    "nan-last": [2.0, -3.0, math.nan],
    "nan-only": [math.nan],
    "inf": [1.0, math.inf, -2.0],
    "minus-inf": [1.0, -math.inf],
    "inf-and-nan": [-math.inf, math.nan],
    "negative-zero": [-0.0],
    "subnormal": [-5e-324, 1e-310],
    "largest": [-1.7976931348623157e308, 1.0],
    "empty": [],
}


class TestMaxAbsFastPath:
    """Float arrays take a first branch; every result keeps the rule it had."""

    @staticmethod
    def same(got, want):
        return type(got) is float and (got.hex() == want.hex() or (math.isnan(got) and math.isnan(want)))

    @pytest.mark.parametrize("name", list(_MAX_ABS_VALUES))
    def test_float_arrays_and_their_relatives(self, name):
        values = _MAX_ABS_VALUES[name]
        a = np.array(values, dtype=float)
        with np.errstate(over="ignore"):  # the largest float is inf in float32
            single = a.astype(np.float32)
        cases = [a, a.reshape(1, -1, 1), a[::-1], np.repeat(a, 2)[::2], a.view(_Tagged), single,
                 np.array(values, dtype=object), DDOUBLE.asarray(values)]
        cases += [np.array(v) for v in values] + [np.array(v, dtype=object) for v in values]
        cases += [v for v in values] + [np.float64(v) for v in values] + [DoubleDouble(v) for v in values]
        for arr in cases:
            assert self.same(max_abs(arr), _max_abs_before_fast_path(arr)), (arr, type(arr))

    def test_integer_and_boolean_arrays(self):
        for arr in (np.array([[-3, 2]]), np.array([True, False]), np.array([], dtype=int), np.array(-7)):
            assert self.same(max_abs(arr), _max_abs_before_fast_path(arr))

    @pytest.mark.parametrize("name", list(_MAX_ABS_VALUES))
    def test_both_backends_agree_at_equal_values(self, name):
        values = _MAX_ABS_VALUES[name]
        got = max_abs(DDOUBLE.asarray(values))
        assert self.same(got, max_abs(NATIVE.asarray(values)))
        assert self.same(max_abs(DDOUBLE.asarray([values, values])), got)
