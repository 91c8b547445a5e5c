"""Structural-equation coefficients for the ZD and ZDS block formulations.

A structural equation is a linear relation among the values and derivative
approximations of a smooth function on a block of R+1 uniformly spaced grid
nodes, built so that the relation annihilates every polynomial up to a
formulation-dependent degree.  The coefficients carry all discretization
information and no physics; they are exact rationals on the unit grid, found
once per (R, formulation) and shared by every step size and solver instance.

Pipeline
--------
1. The exactness system on the unit grid (nodes 0..R, step 1) holds the
   monomial derivatives d^s/dt^s t**l in exact integers.  Keeping its rows
   up to the exactness degree leaves an R-dimensional null space: the
   structural equations.
2. ``_unit_table`` finds that kernel in closed form, once per
   (R, formulation): the quadrature Z_r - Z_0 = int_0^r p' of the
   interpolant p' of the derivative data, in Python integers.  Its rows,
   normalized by the A_z slice, are (B_d, B_s, b_z, b_d, b_s).  The
   extrapolation that predicts a block from the previous node and the
   anchor is the same kind of interpolant, two-point Taylor interpolation,
   also in integers (``_unit_extrapolation``).
3. ``assemble_tables`` multiplies derivative-order-s entries of both by
   dt**s, exactly, and rounds once into the requested backend.
4. ``kernel_basis`` reduces the table's kernel rows to the identity on the
   last R columns, orthonormalizes them by Gram-Schmidt in exact
   rationals, with a deterministic order and sign convention, and rounds
   each entry to double-double once its norm is taken; it serves the CSV
   dump and checks against the printed equations, not the solver tables.

Working on the unit grid and rescaling afterwards avoids the severe
ill-conditioning of the Vandermonde-type system at small physical steps.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numerics import NATIVE, DoubleDouble, Precision

__all__ = [
    "Formulation",
    "CoeffTable",
    "ConfigurationError",
    "kernel_basis",
    "assemble_tables",
    "coeff_table",
    "exactness_residual",
    "dump_coeff_csv",
]


MAX_BLOCK_SIZE = 12  # conditioning degrades beyond the tested range


class ConfigurationError(ValueError):
    """Invalid scheme configuration (unusable R, overflowing dt, bad options)."""


class Formulation(enum.Enum):
    """Block formulation: which derivative levels enter the structural equations."""

    ZD = "zd"    # values and first derivatives
    ZDS = "zds"  # values, first and second derivatives

    @property
    def levels(self) -> int:
        return 2 if self is Formulation.ZD else 3

    def exactness_degree(self, R: int) -> int:
        """Highest polynomial degree annihilated by the R structural equations.

        The construction retains the first levels*(R+1) - R monomial rows,
        i.e. degrees 0 .. levels*(R+1) - R - 1: R+1 for ZD and 2R+2 for ZDS.
        """
        return self.levels * (R + 1) - R - 1

    @staticmethod
    def parse(tag) -> "Formulation":
        if isinstance(tag, Formulation):
            return tag
        try:
            return Formulation(str(tag).lower())
        except ValueError:
            raise ConfigurationError(f"unknown formulation {tag!r}") from None


def _check_block_size(R: int) -> None:
    if not 1 <= R <= MAX_BLOCK_SIZE:
        raise ConfigurationError(f"block size R={R} outside supported range 1..{MAX_BLOCK_SIZE}")


def _orthonormalize(vectors: list[list[Fraction]]) -> np.ndarray:
    """Gram-Schmidt in exact rationals, in the given order, then each vector
    divided by its norm in double-double; the first entry of largest
    magnitude is made positive."""
    basis: list[list[Fraction]] = []
    for vec in vectors:
        u = list(vec)
        for q in basis:
            c = sum(a * b for a, b in zip(vec, q)) / sum(b * b for b in q)
            u = [a - c * b for a, b in zip(u, q)]
        basis.append(u)
    out = np.empty((len(basis), len(basis[0])), dtype=object)
    for i, u in enumerate(basis):
        mags = [abs(a) for a in u]
        sign = 1 if u[mags.index(max(mags))] > 0 else -1
        norm = DoubleDouble.from_fraction(sum(a * a for a in u)).sqrt()
        out[i, :] = [DoubleDouble.from_fraction(sign * a) / norm for a in u]
    return out


def _unit_kernel(R: int, form: Formulation) -> list[list[Fraction]]:
    """The kernel rows [T_r | e_r] of ``_unit_table`` in the column order of
    ``kernel_basis``, reduced to the identity on the last R columns
    (D_1..D_R for ZD, S_1..S_R for ZDS) by Gauss-Jordan over R rows."""
    T = _unit_table(R, form)
    A = [[t[0], *(Fraction(int(m == r)) for m in range(R)), *t[1:]] for r, t in enumerate(T)]
    for i, c in enumerate(range(len(A[0]) - R, len(A[0]))):
        p = next(k for k in range(i, R) if A[k][c])  # the last R columns are free: never exhausted
        A[i], A[p] = A[p], A[i]
        pivot = [a / A[i][c] for a in A[i]]
        A = [pivot if k == i else [a - row[c] * b for a, b in zip(row, pivot)] for k, row in enumerate(A)]
    return A


@lru_cache(maxsize=None)
def _kernel_basis_cached(R: int, form: Formulation) -> np.ndarray:
    V = _orthonormalize(_unit_kernel(R, form))
    V.flags.writeable = False
    return V


def kernel_basis(R: int, formulation) -> np.ndarray:
    """Deterministic orthonormal kernel basis of the reduced exactness system.

    A read-only (R, levels*(R+1)) array of double-double entries; column
    s*(R+1) + r holds derivative order s at node r.
    """
    form = Formulation.parse(formulation)
    _check_block_size(R)
    return _kernel_basis_cached(R, form)


# ---------------------------------------------------------------------------
# solver-ready tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoeffTable:
    """Solver-ready structural coefficients for one (R, formulation, dt).

    The R structural equations, normalized by the invertible slice A_z, read

        Z[r] + sum_m B_d[r,m] D[m] (+ sum_m B_s[r,m] S[m])
             + b_z[r] Z_n + b_d[r] D_n (+ b_s[r] S_n) = 0

    for the block nodes r, m = 1..R with anchor values at node 0.  Each entry
    is the exact rational unit-grid coefficient times dt**s (s the derivative
    order of its column), rounded once into the requested backend (float64,
    or object dtype of DoubleDouble); exact zeros stay 0.  ZD has no B_s and
    b_s.  ``C`` (read-only) is minus the R x (1 + (L-1)(R+1)) matrix
    [b_z | b_d, B_d | (b_s, B_s)] for L levels: the node values Z[1..R]
    are C applied to the stacked rows [Z_n | D_n, D_1..D_R | (S_n,
    S_1..S_R)].  ``E`` (R x 2L), scaled and rounded the same way,
    extrapolates Z[1..R] from the L levels at the previous node t_n - dt
    and at the anchor, columns [W_-1 | W_0].
    """

    R: int
    formulation: Formulation
    dt: float
    C: np.ndarray
    E: np.ndarray
    precision: Precision


@lru_cache(maxsize=None)
def _unit_table(R: int, form: Formulation) -> tuple[tuple[Fraction, ...], ...]:
    """Exact normalized table [b_z | b_d, B_d | (b_s, B_s)] at dt = 1.

    Row r is minus Z_r = Z_0 + int_0^r p', p' the Lagrange (ZD) or Hermite
    (ZDS) interpolant of the D (and S) data at nodes 0..R (Hairer, Norsett and
    Wanner, Solving ODEs I, III.1).  With P_j(t) = prod_{m != j} (t - m),
    w_j = P_j(j) and a_j = P_j'(j) / w_j, D_j weighs P_j / w_j (ZD) or
    (1 - 2 a_j (t - j)) P_j**2 / w_j**2 (ZDS) and S_j (t - j) P_j**2 / w_j**2,
    each integrated in integers over lcm(1..deg+1) and evaluated at r.
    The relation is exact through the exactness degree and holds Z_1..Z_R
    only as Z_r, so it is the kernel vector [T_r | e_r] of the retained rows;
    those columns are always free (A_z invertible), since Z_0 and Hermite
    data of p' at distinct nodes are poised.
    """
    d_cols, s_cols = [], []  # (integrand, denominator) per D_j and per S_j
    for j in range(R + 1):
        P = [1]
        for m in range(R + 1):
            if m != j:  # P <- P * (t - m)
                P = [b - m * a for a, b in zip(P + [0], [0] + P)]
        w = math.prod(j - m for m in range(R + 1) if m != j)
        if form is Formulation.ZD:
            d_cols.append((P, w))
            continue
        dP = sum(k * c * j ** (k - 1) for k, c in enumerate(P) if k)
        P2 = np.convolve(*[np.array(P, dtype=object)] * 2).tolist()  # Python ints: no int64 wrap
        # (w - 2 dP (t - j)) P**2 / w**3 and (t - j) P**2 / w**2
        d_cols.append(([b * (w + 2 * dP * j) - 2 * dP * a for a, b in zip([0] + P2, P2 + [0])], w**3))
        s_cols.append(([a - j * b for a, b in zip([0] + P2, P2 + [0])], w**2))
    n = len(d_cols[0][0])
    L = math.lcm(*range(1, n + 1))
    columns = [([0] + [c * (L // (k + 1)) for k, c in enumerate(f)], L * d) for f, d in d_cols + s_cols]
    return tuple((Fraction(-1), *(Fraction(-sum(map(operator.mul, f, powers)), d) for f, d in columns))
                 for powers in ([r**k for k in range(n + 1)] for r in range(1, R + 1)))


@lru_cache(maxsize=None)
def _unit_extrapolation(R: int, form: Formulation) -> tuple[tuple[Fraction, ...], ...]:
    """Exact two-node Hermite extrapolation at dt = 1: row r-1 gives p(r).

    p is the polynomial of degree 2L-1 through the L levels (value and
    derivatives) at t = -1 and t = 0, columns [W_-1 | W_0].  In x = t + 1 it
    is two-point Taylor interpolation: level k at x = 0 weighs
    x**k (1-x)**L sum_{j<L-k} C(L-1+j, j) x**j / k!, and at x = 1 the mirror
    image (x-1)**k x**L sum_{j<L-k} C(L-1+j, j) (1-x)**j / k!; each is an
    integer at x = r + 1, divided by k! once.
    """
    L = form.levels

    def weights(a: int, b: int, c: int) -> list[Fraction]:
        # a**k b**L sum_j C(L-1+j, j) c**j / k! for the levels k of one node
        return [Fraction(a**k * b**L * sum(math.comb(L - 1 + j, j) * c**j for j in range(L - k)),
                         math.factorial(k)) for k in range(L)]

    return tuple(tuple(weights(x, 1 - x, x) + weights(x - 1, x, 1 - x)) for x in range(2, R + 2))


def assemble_tables(R: int, formulation, dt: float, precision: Precision = NATIVE) -> CoeffTable:
    """Rescale the exact unit-grid table to step dt and round it into a backend.

    Derivative-order-s entries are multiplied by dt**s in exact rational
    arithmetic (B_d and b_d by dt, B_s and b_s by dt**2, b_z unchanged; E's
    columns alike), then rounded once: correctly to float64, or to within
    2**-104 relative for double-double (above the subnormal range).  A step
    that takes an entry past the float range is a ConfigurationError.
    """
    form = Formulation.parse(formulation)
    _check_block_size(R)
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"step dt={dt} must be positive and finite")
    unit = _unit_table(R, form)
    S = form.levels
    num, den = dt.as_integer_ratio()
    pows = [(num**s, den**s) for s in range(S)]

    def scaled(x: Fraction, s: int):
        # x * dt**s = (n a**s) / (d b**s): one correctly rounded int division
        try:
            return precision.ratio(x.numerator * pows[s][0], x.denominator * pows[s][1])
        except OverflowError:
            raise ConfigurationError(f"step dt={dt} overflows the order-{s} coefficients") from None

    orders = [0] + [s for s in range(1, S) for _ in range(R + 1)]
    M = np.array([[scaled(x, s) for x, s in zip(row, orders)] for row in unit], dtype=precision.dtype)
    E = np.array([[scaled(x, j % S) for j, x in enumerate(row)]
                  for row in _unit_extrapolation(R, form)], dtype=precision.dtype)
    C = -M
    C.flags.writeable = E.flags.writeable = False
    return CoeffTable(R=R, formulation=form, dt=dt, C=C, E=E, precision=precision)


@lru_cache(maxsize=None)
def _coeff_table_cached(R: int, form: Formulation, dt: float, precision: Precision) -> CoeffTable:
    return assemble_tables(R, form, dt, precision)


def coeff_table(R: int, formulation, dt: float, precision: Precision = NATIVE) -> CoeffTable:
    """Cached canonical table for (R, formulation, dt, precision)."""
    form = Formulation.parse(formulation)
    return _coeff_table_cached(R, form, float(dt), precision)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def exactness_residual(table: CoeffTable, degree: int) -> float:
    """Normalized residual of the structural relations on phi(t) = t**degree.

    Samples the monomial on the physical grid (nodes 0..R, step dt), applies
    each of the R normalized equations, and returns the largest |residual|
    divided by (coefficient 1-norm of the equation) * max |phi| on the grid.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    t = np.arange(table.R + 1) * table.dt
    # d^s/dt^s t**degree = degree!/(degree - s)! t**(degree - s), 0 for s > degree
    phi = [math.perm(degree, s) * t ** max(degree - s, 0) for s in range(table.formulation.levels)]
    C = np.asarray(table.C, dtype=float)  # minus the coefficients, rows [Z_0 | D_0..D_R | S_0..S_R]
    residual = phi[0][1:] - (C * np.concatenate([phi[0][:1], *phi[1:]])).sum(axis=1)
    norm1 = 1.0 + np.abs(C).sum(axis=1)
    return float(np.max(np.abs(residual) / norm1)) / (float(np.max(np.abs(phi[0]))) or 1.0)


def dump_coeff_csv(table: CoeffTable, stream) -> None:
    """Write the dt-rescaled orthonormal kernel basis as CSV (32 significant digits).

    Basis entries of derivative order s are multiplied by dt**s in
    double-double, then rounded to the table's backend before printing.
    """
    stream.write("formulation,R,m,r,s,value\n")
    R, form = table.R, table.formulation
    V = kernel_basis(R, form)
    dt = DoubleDouble.from_any(table.dt)
    pows = [DoubleDouble(1.0), dt, dt * dt]
    for m in range(R):
        for s in range(form.levels):
            for r in range(R + 1):
                v = DoubleDouble.from_any(table.precision.real(V[m, s * (R + 1) + r] * pows[s]))
                stream.write(f"{form.value},{R},{m + 1},{r},{s},{v.to_decimal_string(32)}\n")
