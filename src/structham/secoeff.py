"""Structural-equation coefficients for the ZD and ZDS block formulations.

A structural equation is a linear relation among the values and derivative
approximations of a smooth function on a block of R+1 uniformly spaced grid
nodes, built so that the relation annihilates every polynomial up to a
formulation-dependent degree.  The coefficients carry all discretization
information and no physics; they are generated once per (R, formulation,
step) and shared by every solver instance.

Pipeline
--------
1. ``exactness_matrix`` tabulates monomial derivatives on the unit grid
   (nodes 0..R, step 1).  Entries are exact integers.
2. ``kernel_basis`` drops the R highest-degree rows and extracts the
   R-dimensional null space of what remains -- exactly, by rational
   Gauss-Jordan elimination -- then orthonormalizes in double-double with a
   deterministic order and sign convention.
3. ``assemble_tables`` converts a basis into the solver-ready form
   (B_d, B_s, b_z, b_d, b_s) by R x R linear solves carried out in
   double-double, rescales from the unit grid to the physical step, and
   rounds once into the requested backend.

Working on the unit grid and rescaling afterwards (entries of derivative
order s pick up a factor dt**s) avoids the severe ill-conditioning of the
Vandermonde-type system at small physical steps.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numerics import NATIVE, DoubleDouble, Precision

__all__ = [
    "Formulation",
    "RawBasis",
    "CoeffTable",
    "ConfigurationError",
    "KernelRankError",
    "exactness_matrix",
    "kernel_basis",
    "assemble_tables",
    "coeff_table",
    "exactness_residual",
    "dump_coeff_csv",
]

log = logging.getLogger(__name__)

MAX_BLOCK_SIZE = 12  # conditioning degrades beyond the tested range


class ConfigurationError(ValueError):
    """Invalid scheme configuration (unusable R, singular A_z, bad options)."""


class KernelRankError(RuntimeError):
    """The retained exactness rows do not leave an R-dimensional kernel."""


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


def exactness_matrix(R: int, formulation) -> np.ndarray:
    """Full square monomial-derivative matrix on the unit grid.

    Row ``l`` (0-based) corresponds to the monomial t**l; the column for node
    r and derivative order s sits at index s*(R+1) + r and holds
    d^s/dt^s [t**l] evaluated at t = r.  Entries are exact Python integers
    (object dtype: high rows overflow int64 for large R).
    """
    form = Formulation.parse(formulation)
    _check_block_size(R)
    S = form.levels
    n = S * (R + 1)
    M = np.empty((n, n), dtype=object)
    for ell in range(n):  # monomial t**ell
        for s in range(S):
            # falling factorial ell*(ell-1)*...*(ell-s+1)
            fall = 1
            for j in range(s):
                fall *= ell - j
            for r in range(R + 1):
                power = ell - s
                if power < 0 or fall == 0:
                    val = 0
                elif power == 0:
                    val = fall  # r**0 == 1, also at the node r = 0
                else:
                    val = fall * r**power
                M[ell, s * (R + 1) + r] = val
    return M


@dataclass(frozen=True)
class RawBasis:
    """Orthonormal basis of the structural-equation kernel on the unit grid.

    ``vectors_dd`` has shape (R, levels*(R+1)) with double-double entries in
    the (node, derivative-order) layout of :func:`exactness_matrix`.
    """

    R: int
    formulation: Formulation
    vectors_dd: np.ndarray

    @property
    def vectors(self) -> np.ndarray:
        """float64 view of the basis."""
        return np.array([[float(v) for v in row] for row in self.vectors_dd])

    def rotated(self, mix: np.ndarray) -> "RawBasis":
        """Basis re-mixed by an invertible R x R matrix (for invariance checks)."""
        mixed = np.empty_like(self.vectors_dd)
        for i in range(self.R):
            acc = [DoubleDouble(0.0)] * self.vectors_dd.shape[1]
            for j in range(self.R):
                w = float(mix[i, j])
                for c in range(self.vectors_dd.shape[1]):
                    acc[c] = acc[c] + self.vectors_dd[j, c] * w
            mixed[i, :] = acc
        return RawBasis(self.R, self.formulation, mixed)


def _rational_kernel(reduced: np.ndarray) -> list[list[Fraction]]:
    """Exact null-space basis of an integer matrix via Gauss-Jordan over Q."""
    rows, cols = reduced.shape
    A = [[Fraction(int(reduced[i, j])) for j in range(cols)] for i in range(rows)]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if A[i][col] != 0), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = 1 / A[rank][col]
        A[rank] = [v * inv for v in A[rank]]
        for i in range(rows):
            if i != rank and A[i][col] != 0:
                factor = A[i][col]
                A[i] = [a - factor * b for a, b in zip(A[i], A[rank])]
        pivot_cols.append(col)
        rank += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    kernel = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            v[pc] = -A[i][f]
        kernel.append(v)
    return kernel


def _orthonormalize_dd(vectors: list[list[Fraction]]) -> np.ndarray:
    """Modified Gram-Schmidt in double-double, deterministic order and sign."""
    n = len(vectors[0])
    basis: list[list[DoubleDouble]] = []
    for vec in vectors:
        v = [DoubleDouble.from_fraction(x) for x in vec]
        for q in basis:
            dot = DoubleDouble(0.0)
            for a, b in zip(v, q):
                dot = dot + a * b
            for c in range(n):
                v[c] = v[c] - dot * q[c]
        norm2 = DoubleDouble(0.0)
        for a in v:
            norm2 = norm2 + a * a
        inv = DoubleDouble(1.0) / norm2.sqrt()
        v = [a * inv for a in v]
        # sign convention: first entry of largest magnitude is positive
        mags = [abs(float(a)) for a in v]
        lead = mags.index(max(mags))
        if float(v[lead]) < 0.0:
            v = [-a for a in v]
        basis.append(v)
    out = np.empty((len(basis), n), dtype=object)
    for i, v in enumerate(basis):
        out[i, :] = v
    return out


@lru_cache(maxsize=None)
def _kernel_basis_cached(R: int, form: Formulation) -> RawBasis:
    M = exactness_matrix(R, form)
    keep = form.levels * (R + 1) - R
    reduced = M[:keep, :]
    kernel = _rational_kernel(reduced)
    if len(kernel) != R:
        raise KernelRankError(
            f"kernel dimension {len(kernel)} != R={R} for {form.value} "
            f"(retained rows are rank deficient)"
        )
    vectors = _orthonormalize_dd(kernel)
    return RawBasis(R, form, vectors)


def kernel_basis(R: int, formulation) -> RawBasis:
    """Deterministic orthonormal kernel basis of the reduced exactness system."""
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

    for the block nodes r, m = 1..R with anchor values at node 0.  Arrays are
    realized in the requested backend (float64, or object dtype of
    DoubleDouble); B_s and b_s are None for ZD.  They are read-only views of
    one R x (1 + (L-1)(R+1)) matrix [b_z | b_d, B_d | (b_s, B_s)] for L
    levels, and ``C`` is its negative: the node values Z[1..R] are C applied
    to the stacked rows [Z_n | D_n, D_1..D_R | (S_n, S_1..S_R)].
    """

    R: int
    formulation: Formulation
    dt: float
    B_d: np.ndarray
    b_z: np.ndarray
    b_d: np.ndarray
    B_s: np.ndarray | None
    b_s: np.ndarray | None
    C: np.ndarray
    condition_Az: float
    raw_rescaled: np.ndarray  # kernel basis with dt**s factors applied
    precision: Precision

    @property
    def has_second(self) -> bool:
        return self.B_s is not None


def _dd_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on double-double arrays."""
    n = A.shape[0]
    m = B.shape[1]
    a = A.copy()
    b = B.copy()
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(float(a[i, col])))
        if float(a[piv, col]) == 0.0:
            raise ConfigurationError("singular A_z slice in structural basis")
        if piv != col:
            a[[col, piv], :] = a[[piv, col], :]
            b[[col, piv], :] = b[[piv, col], :]
        inv = DoubleDouble(1.0) / a[col, col]
        for i in range(col + 1, n):
            f = a[i, col] * inv
            if float(f) != 0.0:
                for j in range(col, n):
                    a[i, j] = a[i, j] - f * a[col, j]
                for j in range(m):
                    b[i, j] = b[i, j] - f * b[col, j]
    x = np.empty((n, m), dtype=object)
    for i in range(n - 1, -1, -1):
        inv = DoubleDouble(1.0) / a[i, i]
        for j in range(m):
            acc = b[i, j]
            for k in range(i + 1, n):
                acc = acc - a[i, k] * x[k, j]
            x[i, j] = acc * inv
    return x


def _realize(arr_dd: np.ndarray, precision: Precision) -> np.ndarray:
    if precision.dtype == object:
        return arr_dd.copy()
    return np.array([[float(v) for v in row] for row in arr_dd], dtype=np.float64)


def assemble_tables(basis: RawBasis, dt: float, precision: Precision = NATIVE) -> CoeffTable:
    """Solve for the normalized coefficient matrices and rescale to step dt.

    The linear solves run in double-double regardless of the target backend;
    the result is rounded once at the end.  Rescaling from the unit grid
    multiplies derivative-order-s entries by dt**s, i.e. B_d and b_d by dt,
    B_s and b_s by dt**2, leaving b_z unchanged.
    """
    if dt <= 0:
        raise ConfigurationError(f"step dt={dt} must be positive")
    R = basis.R
    form = basis.formulation
    S = form.levels
    V = basis.vectors_dd  # (R, S*(R+1))

    # level-s value at block node r sits in column s*(R+1) + r.  The node
    # values (columns 1..R) form A_z; the rest, in the same order, are the
    # right-hand sides: [a_z | a_d, A_d | (a_s, A_s)], the order of CoeffTable.C.
    A_z = V[:, 1:R + 1]
    rhs = np.concatenate([V[:, :1], V[:, R + 1:]], axis=1)
    levels = [0] + [s for s in range(1, S) for _ in range(R + 1)]

    cond = float(np.linalg.cond(np.array([[float(v) for v in row] for row in A_z])))
    log.debug("A_z condition for %s R=%d: %.3e", form.value, R, cond)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConfigurationError(
            f"A_z ill-conditioned (cond={cond:.2e}) for formulation {form.value}, R={R}"
        )

    X = _dd_solve(A_z, rhs)
    dt_dd = DoubleDouble.from_any(dt)
    dt_pows = np.array([DoubleDouble(1.0), dt_dd, dt_dd * dt_dd][:S], dtype=object)
    M = _realize(X * dt_pows[levels], precision)  # [b_z | b_d, B_d | (b_s, B_s)]
    M.flags.writeable = False
    second = S == 3
    return CoeffTable(
        R=R,
        formulation=form,
        dt=float(dt),
        B_d=M[:, 2:R + 2],
        b_z=M[:, 0],
        b_d=M[:, 1],
        B_s=M[:, R + 3:] if second else None,
        b_s=M[:, R + 2] if second else None,
        C=-M,
        condition_Az=cond,
        raw_rescaled=_realize(V * dt_pows.repeat(R + 1), precision),
        precision=precision,
    )


@lru_cache(maxsize=None)
def _coeff_table_cached(R: int, form: Formulation, dt: float, prec_name: str) -> CoeffTable:
    from .numerics import PRECISIONS

    return assemble_tables(kernel_basis(R, form), dt, PRECISIONS[prec_name])


def coeff_table(R: int, formulation, dt: float, precision: Precision = NATIVE) -> CoeffTable:
    """Cached canonical table for (R, formulation, dt, precision)."""
    form = Formulation.parse(formulation)
    return _coeff_table_cached(R, form, float(dt), precision.name)


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
    R = table.R
    dt = table.dt

    def phi(r, s):
        fall = 1.0
        for j in range(s):
            fall *= degree - j
        power = degree - s
        if power < 0 or fall == 0.0:
            return 0.0
        t = r * dt
        return fall * t**power if power > 0 else fall

    B_d = np.asarray(table.B_d, dtype=float) if table.B_d.dtype == object else table.B_d
    b_z = np.asarray([float(v) for v in table.b_z])
    b_d = np.asarray([float(v) for v in table.b_d])
    if table.has_second:
        B_s = np.array([[float(v) for v in row] for row in table.B_s])
        b_s = np.asarray([float(v) for v in table.b_s])
    if table.B_d.dtype == object:
        B_d = np.array([[float(v) for v in row] for row in table.B_d])

    phi0 = np.array([phi(r, 0) for r in range(R + 1)])
    phi1 = np.array([phi(r, 1) for r in range(R + 1)])
    phi2 = np.array([phi(r, 2) for r in range(R + 1)]) if table.has_second else None
    scale = max(abs(v) for v in phi0) or 1.0

    worst = 0.0
    for m in range(R):
        res = phi0[m + 1] + b_z[m] * phi0[0] + b_d[m] * phi1[0]
        norm1 = 1.0 + abs(b_z[m]) + abs(b_d[m])
        for j in range(R):
            res += B_d[m, j] * phi1[j + 1]
            norm1 += abs(B_d[m, j])
        if table.has_second:
            res += b_s[m] * phi2[0]
            norm1 += abs(b_s[m])
            for j in range(R):
                res += B_s[m, j] * phi2[j + 1]
                norm1 += abs(B_s[m, j])
        worst = max(worst, abs(res) / (norm1 * scale))
    return worst


def dump_coeff_csv(table: CoeffTable, stream) -> None:
    """Write the dt-rescaled raw kernel basis as CSV (32 significant digits)."""
    stream.write("formulation,R,m,r,s,value\n")
    R = table.R
    S = table.formulation.levels
    for m in range(R):
        for s in range(S):
            for r in range(R + 1):
                v = table.raw_rescaled[m, s * (R + 1) + r]
                if isinstance(v, DoubleDouble):
                    text = v.to_decimal_string(32)
                else:
                    text = DoubleDouble(float(v)).to_decimal_string(32)
                stream.write(f"{table.formulation.value},{R},{m + 1},{r},{s},{text}\n")
