"""Precision-parametric real arithmetic.

Two interchangeable scalar backends drive every solver and problem in this
package:

* ``double``  -- plain IEEE binary64 (Python floats / numpy float64 arrays);
* ``ddouble`` -- compensated double-double numbers (an unevaluated sum of
  two binary64 words, ~31 significant decimal digits).

The double-double layer is built on the classical error-free transforms
(two_sum / two_prod with Dekker splitting, since ``math.fma`` is not
available on this interpreter).  The arithmetic of :class:`DoubleDouble`
inlines them on the two words, which private slots hold behind read-only
``hi`` and ``lo``, renormalizes each result once and stores its words
directly; a float or small int operand becomes one word without the
constructor.  Values pickle and copy.  Elementary functions use
range reduction followed by truncated Taylor / atanh series.  sin and cos
share one reduction by pi/2, in four Cody-Waite parts (Cody and Waite,
*Software Manual for the Elementary Functions*, 1980), and then one by the
nearest j/16, whose sines and cosines are stored double-double literals;
fixed series on the remainder |t| <= 1/32 and the angle-addition formulas
finish them, as in the QD library of Hida, Li and Bailey (ARITH 2001).

Arrays of either backend are ordinary numpy arrays: float64 for the native
backend, ``dtype=object`` holding :class:`DoubleDouble` instances for the
extended one.  Numpy ufuncs on object arrays dispatch to the methods
``sqrt``, ``sin``, ``cos``, ``log`` and the arithmetic dunders, so the same
array code runs under both precisions.  Object arrays are the faster layout
for narrow states: a vectorized (hi, lo) pair of float64 arrays pays about
a dozen numpy calls per operation, which only arrays of more than about 16
entries amortize.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "two_sum",
    "two_prod",
    "DoubleDouble",
    "Precision",
    "NATIVE",
    "DDOUBLE",
    "PRECISIONS",
    "sqrt",
    "sin_cos",
    "log",
    "max_abs",
    "all_finite",
]

_SPLITTER = 134217729.0  # 2**27 + 1, exact in binary64
_TWO53 = 2**53  # ints below this in magnitude convert to float exactly


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _split(a: float) -> tuple[float, float]:
    # Dekker split into two 26/27-bit halves; overflows only for |a| > ~2**996
    c = _SPLITTER * a
    big = c - a
    hi = c - big
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: returns (p, e) with p = fl(a*b) and p + e = a * b exactly."""
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# ---------------------------------------------------------------------------
# double-double scalar
# ---------------------------------------------------------------------------

class DoubleDouble:
    """Extended-precision real stored as an unevaluated sum hi + lo.

    Invariant: hi = fl(hi + lo), i.e. |lo| <= ulp(hi)/2 after renormalization.
    All operations return renormalized values; relative accuracy of +,-,*,/
    is a few units of 2**-104.

    The words live in private slots behind the read-only ``hi`` and ``lo``.
    The arithmetic reads the slots, inlines two_sum, the Dekker split,
    two_prod and quick_two_sum in the order of the textbook formulas, and
    stores its result's words directly with ``_dd`` or ``_word``.
    """

    __slots__ = ("_hi", "_lo")
    hi = property(operator.attrgetter("_hi"), doc="The high word, fl(hi + lo).")
    lo = property(operator.attrgetter("_lo"), doc="The low word, the rounding error of hi.")

    def __init__(self, hi: float = 0.0, lo: float = -0.0):  # two_sum(-0.0, -0.0) keeps -0.0
        s, e = two_sum(float(hi), float(lo))
        if e != e and s == s:  # an infinite s leaves inf - inf in e: store (±inf, 0.0)
            e = 0.0
        self._hi = s
        self._lo = e

    # -- construction -------------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DoubleDouble":
        try:
            return cls.from_ratio(fr.numerator, fr.denominator)
        except OverflowError:
            return cls(math.inf if fr > 0 else -math.inf)

    @classmethod
    def from_ratio(cls, n: int, d: int) -> "DoubleDouble":
        """n/d (d > 0), hi and lo each correctly rounded; OverflowError past the float range."""
        hi = n / d
        hn, hd = hi.as_integer_ratio()
        return cls(hi, (n * hd - hn * d) / (d * hd))

    @classmethod
    def from_any(cls, value) -> "DoubleDouble":
        t = type(value)
        if t is DoubleDouble:
            return value
        if t is float:
            return cls(value)
        if t is int and -_TWO53 < value < _TWO53:  # exact in one word: no normalization
            return _word(float(value))
        if isinstance(value, (str, Fraction, int)):  # exact: a big int takes two words
            return cls.from_fraction(Fraction(value))
        return cls(float(value))

    # -- conversions --------------------------------------------------------

    def __float__(self) -> float:
        return self._hi + self._lo

    def __bool__(self) -> bool:
        return self._hi != 0.0 or self._lo != 0.0

    def __repr__(self) -> str:
        return f"DoubleDouble({self._hi!r}, {self._lo!r})"

    def __str__(self) -> str:
        return self.to_decimal_string(32)

    def to_decimal_string(self, ndigits: int = 32) -> str:
        """Scientific-notation rendering with ``ndigits`` significant digits."""
        import decimal

        if not math.isfinite(self._hi):
            return repr(self._hi)
        with decimal.localcontext() as ctx:
            ctx.prec = ndigits + 10
            d = decimal.Decimal(self._hi) + decimal.Decimal(self._lo)
            text = f"{d:.{ndigits - 1}E}"
        if d.is_zero():  # Decimal renders a zero with exponent +(ndigits - 1)
            text = text[: text.index("E")] + "E+0"
        return text

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is DoubleDouble else _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._hi, self._lo, o._hi, o._lo)

    __radd__ = __add__

    def __neg__(self):
        return _dd(-self._hi, -self._lo)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = other if type(other) is DoubleDouble else _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._hi, self._lo, -o._hi, -o._lo + 0.0)  # the words of -o, as _dd builds them

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o._hi, o._lo, -self._hi, -self._lo + 0.0)

    def __mul__(self, other):
        o = other if type(other) is DoubleDouble else _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._hi, o._hi
        p = a * b
        if not p:  # a zero hi word: (p, 0.0) keeps float64's sign of the zero product
            return _word(p)
        c = _SPLITTER * a
        ah = c - (c - a)
        al = a - ah
        c = _SPLITTER * b
        bh = c - (c - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        e += a * o._lo + self._lo * b + self._lo * o._lo
        hi = p + e
        return _dd(hi, e - (hi - p), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # long division: q1 from the high words, then q2 and q3 from the
        # remainders self - other*q1 and (self - other*q1) - other*q2
        o = other if type(other) is DoubleDouble else _coerce(other)
        if o is None:
            return NotImplemented
        b = o._hi
        try:
            q1 = self._hi / b
        except ZeroDivisionError:  # float64's quotient: NaN for 0/0 and NaN/0, else ±inf
            nan = self._hi == 0.0 or self._hi != self._hi
            return _word(math.nan if nan else math.copysign(math.inf, self._hi) * math.copysign(1.0, b))
        if not q1:  # a zero numerator, or an underflow: float64's signed zero
            return _word(q1)
        c = _SPLITTER * b
        bh = c - (c - b)
        rh, rl = _remainder(self._hi, self._lo, o, bh, q1)
        q2 = rh / b
        rh, _ = _remainder(rh, rl, o, bh, q2)
        hi = q1 + q2
        out = _dd(hi, q2 - (hi - q1)) + rh / b
        return out if out._hi == out._hi else _word(q1)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self):
        return -self if self._hi < 0.0 else self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return DoubleDouble(1.0) / self.__pow__(-n)
        result = DoubleDouble(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons (lexicographic on renormalized words) -------------------

    def _cmp(self, other) -> int:
        o = other if type(other) is DoubleDouble else _coerce(other)
        if o is None:
            return NotImplemented
        if self._hi != o._hi:
            return -1 if self._hi < o._hi else 1
        if self._lo != o._lo:
            return -1 if self._lo < o._lo else 1
        return 0

    def _order(test):  # a comparison dunder: test(_cmp(self, other), 0)
        def method(self, other):
            c = self._cmp(other)
            return NotImplemented if c is NotImplemented else test(c, 0)
        return method

    __eq__, __ne__, __lt__ = _order(operator.eq), _order(operator.ne), _order(operator.lt)
    __le__, __gt__, __ge__ = _order(operator.le), _order(operator.gt), _order(operator.ge)
    del _order

    def __hash__(self):
        return hash((self._hi, self._lo))

    # -- elementary functions -------------------------------------------------

    def sqrt(self):
        if self._hi < 0.0:
            raise ValueError("sqrt of negative double-double")
        if self._hi == 0.0 and self._lo == 0.0:
            return DoubleDouble(0.0)
        y = DoubleDouble(math.sqrt(self._hi))
        # one dd Newton step lifts the 53-bit seed to full precision
        return (y + self / y) * 0.5

    def _scale_pow2(self, k: int) -> "DoubleDouble":
        return DoubleDouble(math.ldexp(self._hi, k), math.ldexp(self._lo, k))

    def sin_cos(self):
        """(sin x, cos x) from one range reduction and one pair of series.

        Like float64, NaN and ±inf give (nan, nan).
        """
        if not math.isfinite(self._hi):
            nan = _word(math.nan)
            return nan, nan
        r, q = _reduce_half_pi(self)
        s, c = _sin_cos_reduced(r)
        if q & 1:
            s, c = c, -s
        if q & 2:
            s, c = -s, -c
        return s, c

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def log(self):
        if self._hi <= 0.0:
            raise ValueError("log of non-positive double-double")
        _, e2 = math.frexp(self._hi)  # hi = f * 2**e2, f in [0.5, 1)
        e = e2 - 1
        m = self._scale_pow2(-e)  # m in [1, 2)
        if m._hi > _SQRT2:
            m = m._scale_pow2(-1)
            e += 1
        s = (m - 1.0) / (m + 1.0)
        s2 = s * s
        term = s
        total = s
        for recip in _ATANH_RECIP:
            term = term * s2
            contrib = term * recip
            total = total + contrib
            if abs(contrib._hi) <= _SERIES_CUTOFF * abs(total._hi):
                break
        return total * 2.0 + _LN2 * e


_new = object.__new__


def _dd(hi: float, lo: float, plain: float = math.nan) -> DoubleDouble:
    """``DoubleDouble(hi, lo)``, bit for bit, without a second two_sum.

    For finite hi = fl(hi + lo), which every quick_two_sum result
    satisfies, two_sum(hi, lo) returns (hi + lo, lo + 0.0): the words
    themselves, with a zero lo made +0.0.  Any other pair (not normalized,
    infinite or NaN) goes through the renormalizing constructor.  Where an
    infinite word or an overflow made the transforms NaN, the result is
    ``plain``, float64's value for the high words: an overflow reads inf.
    """
    s = hi + lo
    if s - hi == 0.0:
        x = _new(DoubleDouble)
        x._hi = s
        x._lo = lo + 0.0
        return x
    return DoubleDouble(hi, lo) if s == s else _word(plain)


def _word(v: float) -> DoubleDouble:
    # (v, 0.0) with v's sign of zero kept, or (nan, nan); no arithmetic on an
    # infinite v, whose inf - inf would raise numpy's invalid-operation flag
    x = _new(DoubleDouble)
    x._hi = v
    x._lo = 0.0 if v == v else v
    return x


def _sum(a: float, al: float, b: float, bl: float) -> DoubleDouble:
    """(a + al) + (b + bl) for normalized pairs: the two two_sums, then two quick_two_sums."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    t = al + bl
    bb = t - al
    f = (al - (t - bb)) + (bl - bb)
    e += t
    hi = s + e
    e -= hi - s
    e += f
    x = hi + e
    if not x:  # an exact zero: float64's sign, -0.0 only for (-0) + (-0)
        return _word(s if not s else 0.0)
    return _dd(x, e - (x - hi), s)


def _coerce(value):
    """The DoubleDouble of an int or float operand, a ``_word`` below 2**53; None for other types."""
    if type(value) is float:
        return _word(value)
    if type(value) is int and -_TWO53 < value < _TWO53:
        return _word(float(value))
    if isinstance(value, (int, float)):
        return DoubleDouble.from_any(value)
    return None


def _remainder(rh: float, rl: float, o: DoubleDouble, bh: float, q: float) -> tuple[float, float]:
    """Words of (rh + rl) - o * q, as ``__sub__`` of ``__mul__`` forms them.

    ``bh`` is the high half of the Dekker split of ``o._hi``.  The product is
    not renormalized before it is subtracted: that would change only the
    sign of zero words, and a zero remainder reaches the quotient only as a
    zero correction, which the final ``__add__`` makes +0.0.
    """
    b = o._hi
    bl = b - bh
    p = b * q
    c = _SPLITTER * q
    qh = c - (c - q)
    ql = q - qh
    e = ((bh * qh - p) + bh * ql + bl * qh) + bl * ql
    e += o._lo * q
    ph = p + e
    pl = e - (ph - p)
    a, b = rh, -ph
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    a, b = rl, -pl
    t = a + b
    bb = t - a
    f = (a - (t - bb)) + (b - bb)
    e += t
    hi = s + e
    e -= hi - s
    e += f
    s = hi + e
    return s, e - (s - hi)


_SQRT2 = 1.4142135623730951
_SERIES_CUTOFF = 1e-35  # truncate log's series once a term falls below this of the sum

PI_DD = DoubleDouble(3.141592653589793, 1.2246467991473532e-16)
_HALF_PI = 1.5707963267948966  # float64 pi/2, the divisor that rounds k
# pi/2 in Cody-Waite parts, two of 33 bits and two float64 words; their sum is pi/2 to 4e-54
_PIO2_1, _PIO2_2 = 1.5707963267341256, 6.077100506303966e-11
_PIO2_3, _PIO2_4 = 2.0222662487959506e-21, 1.0085854035872483e-37
_PIO2_PARTS = (_PIO2_1, _PIO2_2, _PIO2_3)  # the parts _minus_half_pi takes by two_prod
_QUARTER_PI = 0.7853981633974484
_REDUCED = 16.0  # |r| left to the one-step corrections of _reduce_half_pi
_LN2 = DoubleDouble(0.6931471805599453, 2.3190468138462996e-17)

# (sin(j/16), cos(j/16)) for j = 0..13, each the nearest double-double to
# the value mpmath gives at 60 digits; entry -j holds (-sin(j/16),
# cos(j/16)), so _SIN_COS_J[j] serves every |j| <= 13
_SIN_COS_J = tuple((DoubleDouble(sh, sl), DoubleDouble(ch, cl)) for sh, sl, ch, cl in (
    (0.0, 0.0, 1.0, 0.0),
    (0.0624593178423802, -2.040259504585711e-18, 0.9980475107000991, 3.3232291674141346e-17),
    (0.12467473338522769, -2.925947496057858e-18, 0.992197667229329, 4.754870575189364e-17),
    (0.18640329676226988, 2.3493796901281573e-18, 0.9824733131012553, -3.919920375420088e-17),
    (0.24740395925452294, -7.53102495590706e-18, 0.9689124217106447, 5.071436662403936e-17),
    (0.30743851458038085, 1.1004366442765296e-19, 0.9515679480481722, -3.8614834675674123e-17),
    (0.36627252908604757, -9.938814562106524e-18, 0.9305076219123143, 4.488760003328074e-18),
    (0.42367625720393803, -2.331800700068871e-17, 0.9058136834259364, 4.2864666490805214e-17),
    (0.479425538604203, -5.103969860556013e-18, 0.8775825618903728, -4.2623149864279997e-17),
    (0.5333026735360201, 5.129318115032044e-17, 0.8459244992310679, 1.549506647350329e-17),
    (0.5850972729404622, -5.4883972461161805e-17, 0.8109631195052179, -3.091333486122179e-17),
    (0.6346070800152693, -3.4568582392624965e-17, 0.7728349461524715, 4.231014921891023e-17),
    (0.6816387600233341, 4.410467313197903e-17, 0.7316888688738209, -1.0475824306512768e-17),
    (0.7260086552607126, -1.573621815339587e-17, 0.6876855622205048, 3.5430696752823923e-17),
))
_SIN_COS_J += tuple((-s, c) for s, c in reversed(_SIN_COS_J[1:]))

# coefficients of u^k, u = t^2, in sin(t)/t = sum (-1)^k u^k/(2k+1)! and
# cos(t) = sum (-1)^k u^k/(2k)!: double-double for k = 1..3, float64 from
# k = 4 on, where every term is below 3e-17 at |t| <= 1/32
_S1, _S2, _S3 = (DoubleDouble.from_ratio((-1) ** k, math.factorial(2 * k + 1)) for k in (1, 2, 3))
_C1, _C2, _C3 = (DoubleDouble.from_ratio((-1) ** k, math.factorial(2 * k)) for k in (1, 2, 3))
_S4, _S5, _S6 = 1 / 362880, -1 / 39916800, 1 / 6227020800
_C4, _C5, _C6, _C7 = 1 / 40320, -1 / 3628800, 1 / 479001600, -1 / 87178291200
_ONE = DoubleDouble(1.0)

# factors 1/(2k+1) of atanh's series term s^(2k+1)/(2k+1); k = 1..60
_ATANH_RECIP = tuple(DoubleDouble.from_fraction(Fraction(1, 2 * k + 1)) for k in range(1, 61))


def _reduce_half_pi(x: DoubleDouble) -> tuple[DoubleDouble, int]:
    # r = x - k*pi/2 with |r| <= pi/4 (+1 ulp), each step by k pi/2 in
    # Cody-Waite parts (``_minus_half_pi``), so that for |x| <~ 1e6 r keeps
    # about 2**-106 |r| near a zero too, and beyond, up to |x| ~ 1e17 at
    # least, an absolute error near 1e-32.  A k rounded from the
    # float quotient is off by up to about |x| * 2**-51: k is rounded again
    # from r until |r| <= _REDUCED, each pass shrinking |r| about 2**51-fold
    # (about 20 passes for the largest float, none up to |x| ~ 1e16), and
    # then stepped by one.
    xf = float(x)
    if abs(xf) <= _QUARTER_PI:
        return x, 0
    k = round(xf / _HALF_PI)
    r = _minus_half_pi(x, k)
    while abs(r._hi) > _REDUCED:
        j = round(r._hi / _HALF_PI)
        r = _minus_half_pi(r, j)
        k += j
    while r._hi > _QUARTER_PI:
        r = _minus_half_pi(r, 1)
        k += 1
    while r._hi < -_QUARTER_PI:
        r = _minus_half_pi(r, -1)
        k -= 1
    return r, k % 4


def _minus_half_pi(r: DoubleDouble, k: int) -> DoubleDouble:
    # r - k pi/2, pi/2 = _PIO2_1 + .. + _PIO2_4: two_prod keeps k _PIO2_1,
    # k _PIO2_2 and k _PIO2_3 exact for every k (the first two need no
    # error word for |k| < 2**20), and k _PIO2_4 (about |k| 2**-123) rounds
    # once; past |k| ~ 2**996, two_prod's NaN error word leaves the float64
    # difference of the high words (``_sum``)
    kf = float(k)
    for part in _PIO2_PARTS:
        p, e = two_prod(kf, part)
        r = _sum(r._hi, r._lo, -p, -e)
    return r - k * _PIO2_4


def _sin_cos_reduced(r: DoubleDouble) -> tuple[DoubleDouble, DoubleDouble]:
    # |r| <= pi/4 (+1 ulp) is j/16 + t with |j| <= 13 and |t| <= 1/32: the
    # series of t in Horner form, three double-double levels under a float64
    # tail, then the angle-addition formulas with the table's sin and cos of
    # j/16 (about 22 operations).  sin(t) = t * (1 + ...) keeps t's sign of
    # zero.  Relative error stays near 2**-104, near the zeros too.
    j = round(16.0 * r._hi)
    t = r
    if j:  # r.hi - j/16 is exact (Sterbenz), and when nonzero at least ulp(r.hi) >= 2 |r.lo|
        th = r._hi - 0.0625 * j
        s = th + r._lo
        t = _dd(s, r._lo - (s - th))
    u = t * t
    v = u._hi
    st = t * (_ONE + u * (_S1 + u * (_S2 + u * (_S3 + v * (_S4 + v * (_S5 + v * _S6))))))
    ct = _ONE + u * (_C1 + u * (_C2 + u * (_C3 + v * (_C4 + v * (_C5 + v * (_C6 + v * _C7))))))
    if not j:
        return st, ct
    sa, ca = _SIN_COS_J[j]
    return sa * ct + ca * st, ca * ct - sa * st


# ---------------------------------------------------------------------------
# precision backends
# ---------------------------------------------------------------------------

def _native_real(value) -> float:
    return float(Fraction(value)) if isinstance(value, (str, Fraction)) else float(value)


def _dd_asarray(data) -> np.ndarray:
    raw = np.asarray(data, dtype=object)
    out = np.empty(raw.shape, dtype=object)
    out.flat = [DoubleDouble.from_any(v) for v in raw.flat]  # a ufunc pass would warn on inf and NaN entries
    return out


@dataclass(frozen=True, eq=False)
class Precision:
    """A scalar backend, compared by identity: ``real`` parses a scalar (int, float,
    decimal string, Fraction or DoubleDouble), ``asarray`` an array of them and
    ``ratio(n, d)`` rounds the quotient of two ints (d > 0) correctly.  A copy
    or an unpickled record is the module's own ``NATIVE`` or ``DDOUBLE``."""

    name: str
    eps: float
    default_tol: float
    dtype: type
    pi: object
    real: Callable
    asarray: Callable
    ratio: Callable

    def __repr__(self):
        return f"Precision({self.name!r})"

    def __reduce__(self):
        # a str names the module global: copy hands back the record itself and
        # pickle stores its name, refusing a record that is not that global
        return "NATIVE" if self is NATIVE else "DDOUBLE"


NATIVE = Precision("double", 2.220446049250313e-16, 1e-14, np.float64, math.pi,
                   _native_real, functools.partial(np.asarray, dtype=np.float64), operator.truediv)
DDOUBLE = Precision("ddouble", 4.93e-32, 1e-30, object, PI_DD, DoubleDouble.from_any, _dd_asarray,
                    DoubleDouble.from_ratio)
PRECISIONS = {"double": NATIVE, "ddouble": DDOUBLE}


# ---------------------------------------------------------------------------
# backend-agnostic helpers
# ---------------------------------------------------------------------------

def sqrt(x):
    if isinstance(x, DoubleDouble):
        return x.sqrt()
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)


def sin_cos(x):
    """(sin x, cos x); a DoubleDouble reduces and expands its argument once."""
    if isinstance(x, np.ndarray):  # first: the pendulum's PE calls it on every sweep
        return _SIN_COS(x) if x.dtype.hasobject else (np.sin(x), np.cos(x))
    if isinstance(x, DoubleDouble):
        return x.sin_cos()
    return math.sin(x), math.cos(x)


_SIN_COS = np.frompyfunc(DoubleDouble.sin_cos, 1, 2)
# numpy's own log can differ from libm's in the last bit, so float arrays take
# libm's too: an array entry then equals the scalar result for that entry
_LOG = np.frompyfunc(math.log, 1, 1)
_ABS, _MAX = np.abs, np.maximum.reduce  # max_abs's ufuncs, looked up once


def log(x):
    if isinstance(x, DoubleDouble):
        return x.log()
    if isinstance(x, np.ndarray):
        return np.log(x) if x.dtype == object else np.float64(_LOG(x))
    return math.log(x)


def max_abs(arr) -> float:
    """Max-norm of an array (or scalar) of either backend, as a float."""
    if type(arr) is not np.ndarray or arr.dtype.kind != "f" or not arr.size:  # a float array skips these
        if not isinstance(arr, np.ndarray):
            return abs(float(arr))
        if not arr.size:
            return 0.0
        if arr.dtype == object:
            vals = [abs(float(v)) for v in arr.flat]  # max() alone drops a NaN that is not first
            return math.nan if math.isnan(sum(vals)) else max(vals)
    # the ufunc's own reduce: ndarray.max adds a Python-level wrapper
    return float(_MAX(_ABS(arr), axis=None))


def all_finite(arr) -> bool:
    if isinstance(arr, np.ndarray) and arr.dtype != object:
        return bool(np.isfinite(arr).all())
    if isinstance(arr, np.ndarray):
        return all(math.isfinite(float(v)) for v in arr.flat)
    return math.isfinite(float(arr))
