"""Precision-parametric real arithmetic.

Two interchangeable scalar backends drive every solver and problem in this
package:

* ``double``  -- plain IEEE binary64 (Python floats / numpy float64 arrays);
* ``ddouble`` -- compensated double-double numbers (an unevaluated sum of
  two binary64 words, ~31 significant decimal digits).

The double-double layer is built on the classical error-free transforms
(two_sum / two_prod with Dekker splitting, since ``math.fma`` is not
available on this interpreter).  Elementary functions use range reduction
with two-word constants followed by truncated Taylor / atanh series.

Arrays of either backend are ordinary numpy arrays: float64 for the native
backend, ``dtype=object`` holding :class:`DoubleDouble` instances for the
extended one.  Numpy ufuncs on object arrays dispatch to the methods
``sqrt``, ``sin``, ``cos``, ``log`` and the arithmetic dunders, so the same
array code runs under both precisions.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    "sin",
    "cos",
    "log",
    "max_abs",
    "all_finite",
]

_SPLITTER = 134217729.0  # 2**27 + 1, exact in binary64


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Error-free sum: returns (s, e) with s = fl(a+b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


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
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        s, e = two_sum(float(hi), float(lo))
        object.__setattr__(self, "hi", s)
        object.__setattr__(self, "lo", e)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("DoubleDouble is immutable")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DoubleDouble":
        hi = float(fr)
        if not math.isfinite(hi):
            return cls(hi)
        lo = float(fr - Fraction(hi))
        return cls(hi, lo)

    @classmethod
    def from_any(cls, value) -> "DoubleDouble":
        if isinstance(value, DoubleDouble):
            return value
        if isinstance(value, str):
            return cls.from_fraction(Fraction(value))
        if isinstance(value, Fraction):
            return cls.from_fraction(value)
        if isinstance(value, int):
            if abs(value) < 2**53:
                return cls(float(value))
            return cls.from_fraction(Fraction(value))
        return cls(float(value))

    def as_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    # -- conversions --------------------------------------------------------

    def __float__(self) -> float:
        return self.hi + self.lo

    def __bool__(self) -> bool:
        return self.hi != 0.0 or self.lo != 0.0

    def __repr__(self) -> str:
        return f"DoubleDouble({self.hi!r}, {self.lo!r})"

    def __str__(self) -> str:
        return self.to_decimal_string(32)

    def to_decimal_string(self, ndigits: int = 32) -> str:
        """Scientific-notation rendering with ``ndigits`` significant digits."""
        import decimal

        if not math.isfinite(self.hi):
            return repr(self.hi)
        with decimal.localcontext() as ctx:
            ctx.prec = ndigits + 10
            d = decimal.Decimal(self.hi) + decimal.Decimal(self.lo)
            return f"{d:.{ndigits - 1}E}"

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, DoubleDouble):
            return other
        if isinstance(other, (int, float)):
            return DoubleDouble.from_any(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s1, s2 = two_sum(self.hi, o.hi)
        t1, t2 = two_sum(self.lo, o.lo)
        s2 += t1
        s1, s2 = _quick_two_sum(s1, s2)
        s2 += t2
        hi, lo = _quick_two_sum(s1, s2)
        return DoubleDouble(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, p2 = two_prod(self.hi, o.hi)
        p2 += self.hi * o.lo + self.lo * o.hi + self.lo * o.lo
        hi, lo = _quick_two_sum(p1, p2)
        return DoubleDouble(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        hi, lo = _quick_two_sum(q1, q2)
        return DoubleDouble(hi, lo) + q3

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self):
        return -self if self.hi < 0.0 else self

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.hi != o.hi:
            return -1 if self.hi < o.hi else 1
        if self.lo != o.lo:
            return -1 if self.lo < o.lo else 1
        return 0

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __ne__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c != 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        return hash((self.hi, self.lo))

    # -- elementary functions -------------------------------------------------

    def sqrt(self):
        if self.hi < 0.0:
            raise ValueError("sqrt of negative double-double")
        if self.hi == 0.0 and self.lo == 0.0:
            return DoubleDouble(0.0)
        y = DoubleDouble(math.sqrt(self.hi))
        # one dd Newton step lifts the 53-bit seed to full precision
        return (y + self / y) * 0.5

    def _scale_pow2(self, k: int) -> "DoubleDouble":
        return DoubleDouble(math.ldexp(self.hi, k), math.ldexp(self.lo, k))

    def sin(self):
        r, q = _reduce_half_pi(self)
        s, c = _sin_cos_taylor(r)
        return (s, c, -s, -c)[q]

    def cos(self):
        r, q = _reduce_half_pi(self)
        s, c = _sin_cos_taylor(r)
        return (c, -s, -c, s)[q]

    def log(self):
        if self.hi <= 0.0:
            raise ValueError("log of non-positive double-double")
        _, e2 = math.frexp(self.hi)  # hi = f * 2**e2, f in [0.5, 1)
        e = e2 - 1
        m = self._scale_pow2(-e)  # m in [1, 2)
        if m.hi > _SQRT2:
            m = m._scale_pow2(-1)
            e += 1
        s = (m - 1.0) / (m + 1.0)
        s2 = s * s
        term = s
        total = s
        k = 1
        while True:
            term = term * s2
            contrib = term / (2 * k + 1)
            total = total + contrib
            k += 1
            if abs(contrib.hi) < _SERIES_CUTOFF * abs(total.hi) or k > 60:
                break
        return total * 2.0 + _LN2 * e


_SQRT2 = 1.4142135623730951
_SERIES_CUTOFF = 1e-35  # truncate series once a term falls below this of the sum

PI_DD = DoubleDouble(3.141592653589793, 1.2246467991473532e-16)
_HALF_PI = DoubleDouble(1.5707963267948966, 6.123233995736766e-17)
_QUARTER_PI = 0.7853981633974484
_LN2 = DoubleDouble(0.6931471805599453, 2.3190468138462996e-17)


def _reduce_half_pi(x: DoubleDouble) -> tuple[DoubleDouble, int]:
    # r = x - k*pi/2 with |r| <= pi/4 (+1 ulp); accuracy degrades slowly as
    # |x| grows (absolute error ~ |k| * 2**-107), fine for |x| <~ 1e6.
    xf = float(x)
    if abs(xf) <= _QUARTER_PI:
        return x, 0
    k = round(xf / float(_HALF_PI))
    r = x - _HALF_PI * k
    while r.hi > _QUARTER_PI:
        r = r - _HALF_PI
        k += 1
    while r.hi < -_QUARTER_PI:
        r = r + _HALF_PI
        k -= 1
    return r, k % 4


def _sin_cos_taylor(r: DoubleDouble) -> tuple[DoubleDouble, DoubleDouble]:
    # plain Taylor series on |r| <= pi/4, truncated per _SERIES_CUTOFF
    r2 = r * r
    term = r
    s = r
    k = 1
    while True:
        term = term * r2 / (-(2 * k) * (2 * k + 1))
        s = s + term
        k += 1
        if abs(term.hi) < _SERIES_CUTOFF * max(abs(s.hi), 1e-300) or k > 40:
            break
    term = DoubleDouble(1.0)
    c = DoubleDouble(1.0)
    k = 1
    while True:
        term = term * r2 / (-(2 * k - 1) * (2 * k))
        c = c + term
        k += 1
        if abs(term.hi) < _SERIES_CUTOFF * max(abs(c.hi), 1e-300) or k > 40:
            break
    return s, c


# ---------------------------------------------------------------------------
# precision backends
# ---------------------------------------------------------------------------

class Precision:
    """A scalar backend: constructs numbers and arrays at one working precision."""

    def __init__(self, name: str, eps: float, default_tol: float, use_dd: bool):
        self.name = name
        self.eps = eps
        self.default_tol = default_tol
        self._dd = use_dd

    def __repr__(self):
        return f"Precision({self.name!r})"

    def real(self, value):
        """Parse a scalar (int, float, decimal string, or Fraction) at this precision."""
        if isinstance(value, np.ndarray):
            value = value.item()
        if self._dd:
            return DoubleDouble.from_any(value)
        if isinstance(value, DoubleDouble):
            return float(value)
        if isinstance(value, (str, Fraction)):
            return float(Fraction(value))
        return float(value)

    def pi(self):
        return PI_DD if self._dd else math.pi

    @property
    def dtype(self):
        return object if self._dd else np.float64

    def asarray(self, data) -> np.ndarray:
        if not self._dd:
            return np.asarray(data, dtype=np.float64)
        raw = np.asarray(data, dtype=object)
        out = np.empty(raw.shape, dtype=object)
        for idx in np.ndindex(raw.shape):
            out[idx] = self.real(raw[idx])
        return out

    def zeros(self, shape) -> np.ndarray:
        if not self._dd:
            return np.zeros(shape, dtype=np.float64)
        out = np.empty(shape, dtype=object)
        out[...] = DoubleDouble(0.0)
        return out


NATIVE = Precision("double", eps=2.220446049250313e-16, default_tol=1e-14, use_dd=False)
DDOUBLE = Precision("ddouble", eps=4.93e-32, default_tol=1e-30, use_dd=True)
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


def sin(x):
    if isinstance(x, DoubleDouble):
        return x.sin()
    if isinstance(x, np.ndarray):
        return np.sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, DoubleDouble):
        return x.cos()
    if isinstance(x, np.ndarray):
        return np.cos(x)
    return math.cos(x)


def log(x):
    if isinstance(x, DoubleDouble):
        return x.log()
    if isinstance(x, np.ndarray):
        return np.log(x)
    return math.log(x)


def max_abs(arr) -> float:
    """Max-norm of an array (or scalar) of either backend, as a float."""
    if isinstance(arr, np.ndarray):
        if arr.dtype == object:
            return max((abs(float(v)) for v in arr.flat), default=0.0)
        return float(np.abs(arr).max()) if arr.size else 0.0
    return abs(float(arr))


def all_finite(arr) -> bool:
    if isinstance(arr, np.ndarray) and arr.dtype != object:
        return bool(np.isfinite(arr).all())
    if isinstance(arr, np.ndarray):
        return all(math.isfinite(float(v)) for v in arr.flat)
    return math.isfinite(float(arr))
