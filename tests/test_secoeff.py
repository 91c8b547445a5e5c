"""Tests for structural-equation generation: kernels, tables, exactness."""

import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from structham.numerics import DDOUBLE, NATIVE, DoubleDouble
from structham.secoeff import (
    ConfigurationError,
    Formulation,
    _unit_extrapolation,
    _unit_kernel,
    _unit_table,
    assemble_tables,
    coeff_table,
    dump_coeff_csv,
    exactness_residual,
    kernel_basis,
)

from oracles import _extrapolation_kernel, _monomial_derivatives, _structural_kernel, coefficient_blocks

ALL_FORMS = [Formulation.ZD, Formulation.ZDS]

# steps of the benchmarks and acceptance runs, and 1e-170, whose square is subnormal
STEPS = [1 / 3, 1 / 24, 0.0123, 1e-3, 1e5 / 1920, 1e-170]


def dd_bound(exact: Fraction) -> Fraction:
    """Double-double error bound: 2**-104 relative, or half the least subnormal
    where both words are rounded at float64's subnormal spacing."""
    return max(abs(exact) * Fraction(1, 2**104), Fraction(1, 2**1075))


def as_fraction(v: DoubleDouble) -> Fraction:
    return Fraction(v.hi) + Fraction(v.lo)


def exactness_matrix(R: int, form: Formulation) -> np.ndarray:
    """Square monomial-derivative matrix on the unit grid: row l is t**l, the
    column s*(R+1) + r holds d^s/dt^s t**l at t = r (the oracle's integers)."""
    L = form.levels
    return _monomial_derivatives(L * (R + 1), L, range(R + 1))


class TestExactnessMatrix:
    """The exactness system on the unit grid, and the block sizes it is built for."""

    def test_zd_r1_constant_row(self):
        M = exactness_matrix(1, Formulation.ZD)
        assert list(M[0]) == [1, 1, 0, 0]

    def test_zd_r1_quadratic_row(self):
        M = exactness_matrix(1, Formulation.ZD)
        assert list(M[2]) == [0, 1, 0, 2]

    def test_zds_r1_quartic_row(self):
        M = exactness_matrix(1, Formulation.ZDS)
        assert list(M[4]) == [0, 1, 0, 4, 0, 12]

    def test_square_and_exact_integers(self):
        M = exactness_matrix(3, Formulation.ZDS)
        assert M.shape == (12, 12)
        assert all(isinstance(v, int) for v in M.flat)

    def test_r_range_guard(self):
        for R in (0, 13):
            for form in ("zd", "zds"):
                with pytest.raises(ConfigurationError, match=f"block size R={R} outside supported range 1..12"):
                    coeff_table(R, form, 0.1)
                with pytest.raises(ConfigurationError, match=f"block size R={R} outside"):
                    kernel_basis(R, form)


def monomial_residual(basis, degree):
    """Independent check: apply each raw kernel vector to phi(t) = t**degree
    on the unit grid and return the largest normalized residual."""
    R = len(basis)
    S = basis.shape[1] // (R + 1)
    V = basis.astype(float)
    worst = 0.0
    for m in range(R):
        res = 0.0
        for s in range(S):
            fall = 1.0
            for j in range(s):
                fall *= degree - j
            for r in range(R + 1):
                power = degree - s
                if power < 0 or fall == 0.0:
                    val = 0.0
                else:
                    val = fall * (float(r) ** power if power else 1.0)
                res += V[m, s * (R + 1) + r] * val
        scale = max(1.0, float(R) ** degree)
        worst = max(worst, abs(res) / scale)
    return worst


class TestKernelBasis:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 9))
    def test_dimension_orthonormality_nullspace(self, R, form):
        basis = kernel_basis(R, form)
        V = basis.astype(float)
        assert V.shape == (R, form.levels * (R + 1))
        G = V @ V.T
        assert np.max(np.abs(G - np.eye(R))) <= 1e-12
        # annihilates the retained monomial rows
        M = exactness_matrix(R, form)
        keep = form.levels * (R + 1) - R
        reduced = np.array([[float(v) for v in row] for row in M[:keep]])
        resid = np.abs(reduced @ V.T)
        rowscale = np.max(np.abs(reduced), axis=1)[:, None]
        assert np.max(resid / rowscale) <= 1e-10

    def test_zds_r1_matches_printed_equation(self):
        # one-dimensional kernel proportional to (-12, 12, -6, -6, -1, 1)
        v = kernel_basis(1, "zds").astype(float)[0]
        ref = np.array([-12.0, 12.0, -6.0, -6.0, -1.0, 1.0])
        ref /= np.linalg.norm(ref)
        sign = np.sign(v @ ref)
        assert np.max(np.abs(v - sign * ref)) <= 1e-10

    def test_zd_r1_degree_sweep(self):
        basis = kernel_basis(1, "zd")
        for deg in range(3):  # exact through degree R+1 = 2
            assert monomial_residual(basis, deg) <= 1e-12
        assert monomial_residual(basis, 3) > 1e-3

    def test_zds_r2_degree_sweep(self):
        basis = kernel_basis(2, "zds")
        assert basis.shape[0] == 2
        for deg in range(7):  # t^0 .. t^6 on nodes {0,1,2}
            assert monomial_residual(basis, deg) <= 1e-12

    def test_deterministic(self):
        # the cached basis every caller shares is read-only, as C and E are
        a = kernel_basis(4, "zds").astype(float)
        b = kernel_basis(4, "zds").astype(float)
        assert np.array_equal(a, b)
        assert not kernel_basis(4, "zds").flags.writeable

    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_entries_within_1e30_of_exact(self, R, form):
        # reference: a 60-digit Householder QR of the exact kernel vectors,
        # whose Q columns are the Gram-Schmidt basis up to sign; the kernel
        # has exact zeros, which the reference resolves to about 1e-60
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        _, kernel = _structural_kernel(R, form)
        Q, _ = mp.qr(mp.matrix([[mp.mpf(x.numerator) / x.denominator for x in v] for v in kernel]).T)
        V = kernel_basis(R, form)
        for i in range(R):
            ref = [Q[c, i] for c in range(Q.rows)]
            lead = max(range(len(ref)), key=lambda c: (abs(ref[c]), -c))
            sign = 1 if ref[lead] > 0 else -1
            for v, x in zip(V[i], ref):
                got = mp.mpf(v.hi) + mp.mpf(v.lo)
                if abs(x) < 1e-50:
                    assert got == 0
                else:
                    assert abs(got - sign * x) <= 1e-30 * abs(x)

    def test_sign_convention(self):
        for R in range(1, 6):
            for form in ALL_FORMS:
                V = kernel_basis(R, form).astype(float)
                for row in V:
                    lead = np.argmax(np.abs(row))
                    assert row[lead] > 0


class TestAssembleTables:
    def test_zds_r1_closed_form(self):
        t = coefficient_blocks(coeff_table(1, "zds", 1.0))
        assert t.b_z[0] == pytest.approx(-1.0, abs=1e-14)
        assert t.B_d[0, 0] == pytest.approx(-0.5, abs=1e-14)
        assert t.b_d[0] == pytest.approx(-0.5, abs=1e-14)
        assert t.B_s[0, 0] == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert t.b_s[0] == pytest.approx(-1.0 / 12.0, abs=1e-15)

    def test_dt_scaling_law(self):
        for form in ALL_FORMS:
            t1 = coefficient_blocks(coeff_table(3, form, 1.0))
            t2 = coefficient_blocks(coeff_table(3, form, 2.0))
            assert np.array_equal(t2.B_d, 2.0 * t1.B_d)
            assert np.array_equal(t2.b_z, t1.b_z)
            assert np.array_equal(t2.b_d, 2.0 * t1.b_d)
            if form is Formulation.ZDS:
                assert np.array_equal(t2.B_s, 4.0 * t1.B_s)
                assert np.array_equal(t2.b_s, 4.0 * t1.b_s)
            else:
                assert t1.B_s is t1.b_s is None
        # non-dyadic steps agree to rounding
        t1 = coefficient_blocks(coeff_table(2, "zds", 1.0))
        t3 = coefficient_blocks(coeff_table(2, "zds", 0.3))
        assert np.allclose(t3.B_d, 0.3 * t1.B_d, rtol=1e-15)
        assert np.allclose(t3.B_s, 0.09 * t1.B_s, rtol=1e-15)

    def test_deterministic_tables(self):
        a = assemble_tables(5, "zd", 0.125)
        b = assemble_tables(5, "zd", 0.125)
        assert np.array_equal(a.C, b.C)
        assert np.array_equal(a.E, b.E)

    def test_bad_dt(self):
        with pytest.raises(ConfigurationError):
            assemble_tables(1, "zd", 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError):
            assemble_tables(2, "zds", dt)
        with pytest.raises(ConfigurationError):
            coeff_table(2, "zds", dt)
        with pytest.raises(ConfigurationError):
            coeff_table(2, "zds", dt, DDOUBLE)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("R, form, dt, order", [(2, "zds", 1e200, 2), (4, "zd", 1e308, 1)])
    def test_overflowing_dt_rejected(self, R, form, dt, order, prec):
        # dt**order times a unit-grid entry past the float range: no OverflowError, no inf
        with pytest.raises(ConfigurationError, match=rf"dt={re.escape(str(dt))} overflows the order-{order} "):
            assemble_tables(R, form, dt, prec)

    def test_largest_finite_dt_still_builds(self):
        t = assemble_tables(2, "zds", 1e150, DDOUBLE)
        assert all(math.isfinite(float(v)) for v in [*t.C.ravel(), *t.E.ravel()])

    def test_ddouble_realization(self):
        t = coefficient_blocks(coeff_table(2, "zds", 0.5, DDOUBLE))
        assert t.B_d.dtype == object
        tn = coefficient_blocks(coeff_table(2, "zds", 0.5, NATIVE))
        assert np.allclose([[float(v) for v in row] for row in t.B_d], tn.B_d, rtol=1e-15)


def exact_solve(A, B):
    """A^-1 B by Gauss-Jordan over Fractions."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for c in range(n):
        p = next(i for i in range(c, n) if M[i][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [v / M[c][c] for v in M[c]]
        for i in range(n):
            if i != c and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return [row[n:] for row in M]


class TestExactTables:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_unit_table_annihilates_retained_rows(self, R, form):
        # columns reordered [Z_0 | D_0..D_R | (S_0..S_R) | Z_1..Z_R]: the
        # reduced exactness matrix times [T | I]^T is exactly zero
        T = _unit_table(R, form)
        S = form.levels
        keep = S * (R + 1) - R
        order = [0, *range(R + 1, S * (R + 1)), *range(1, R + 1)]
        M = exactness_matrix(R, form)[:keep, order]
        K = [list(row) + [Fraction(int(m == r)) for m in range(R)] for r, row in enumerate(T)]
        assert all(isinstance(x, Fraction) for row in T for x in row)
        assert all(sum(int(a) * b for a, b in zip(mrow, k)) == 0 for mrow in M for k in K)

    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_quadrature_equals_elimination(self, R, form):
        # fraction-free elimination is the oracle of the closed forms,
        # Fraction for Fraction: the kernel with Z_1..Z_R free is the table,
        S = form.levels
        keep = S * (R + 1) - R
        order = [0, *range(R + 1, S * (R + 1)), *range(1, R + 1)]
        free, kernel = _structural_kernel(R, form, order)
        assert free == list(range(keep, keep + R))
        assert _unit_table(R, form) == tuple(tuple(v[:keep]) for v in kernel)
        # in natural column order (its last R columns free) the rows that
        # kernel_basis orthonormalizes,
        free, kernel = _structural_kernel(R, form)
        assert free == list(range(keep, keep + R))
        assert _unit_kernel(R, form) == kernel
        # and over the nodes -1..R, with Z_1..Z_R free, the extrapolation
        free, kernel = _extrapolation_kernel(R, form)
        assert free == list(range(2 * S, 2 * S + R))
        assert _unit_extrapolation(R, form) == tuple(tuple(-x for x in v[:2 * S]) for v in kernel)

    @pytest.mark.parametrize("dt", STEPS)
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_rounded_once_from_exact(self, R, form, dt):
        T = _unit_table(R, form)
        # exact dt**s factor of each column [Z_0 | D_0..D_R | (S_0..S_R)]
        scale = [Fraction(1)] + [Fraction(dt) ** s for s in range(1, form.levels) for _ in range(R + 1)]
        native = -coeff_table(R, form, dt).C
        dd = -coeff_table(R, form, dt, DDOUBLE).C
        for i, row in enumerate(T):
            for j, x in enumerate(row):
                exact = x * scale[j]
                assert native[i, j].hex() == float(exact).hex()  # the word, signed zeros too
                got = as_fraction(dd[i, j])
                if exact == 0:
                    assert got == 0 and native[i, j] == 0.0
                else:
                    assert abs(got - exact) <= dd_bound(exact)

    def test_exact_zero_stays_zero(self):
        # the former double-double pipeline left residue near 1e-26 here
        assert _unit_table(12, Formulation.ZDS)[11][20] == 0
        for prec in (NATIVE, DDOUBLE):
            v = coeff_table(12, "zds", 0.01, prec).C[11, 20]
            assert float(v) == 0.0
            if prec is DDOUBLE:
                assert v.hi == 0.0 and v.lo == 0.0

    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 9))
    def test_basis_rotation_invariance(self, R, form):
        # A_z^-1 [a_z | a_d, A_d | (a_s, A_s)] does not depend on the kernel
        # basis: solve it exactly from the orthonormal basis and from a
        # double-double rotation of it, and compare with the table
        table = -coeff_table(R, form, 1.0, DDOUBLE).C
        V = kernel_basis(R, form)
        mix, _ = np.linalg.qr(np.random.default_rng(R).standard_normal((R, R)))
        rotated = np.empty_like(V)
        for i in range(R):
            for c in range(V.shape[1]):
                acc = DoubleDouble(0.0)
                for j in range(R):
                    acc = acc + V[j, c] * float(mix[i, j])
                rotated[i, c] = acc
        for W in (V, rotated):
            F = [[as_fraction(v) for v in row] for row in W]
            X = exact_solve([row[1:R + 1] for row in F], [row[:1] + row[R + 1:] for row in F])
            for xrow, trow in zip(X, table):
                ref = [as_fraction(t) for t in trow]
                err = max(abs(x - t) for x, t in zip(xrow, ref))
                assert err <= Fraction(1e-28) * max(abs(t) for t in ref)


class TestExtrapolation:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_reproduces_hermite_degree_exactly(self, R, form):
        # columns [W_-1 | W_0], each the L levels d^s/dt^s t**k at t = -1, 0
        L = form.levels
        E = _unit_extrapolation(R, form)
        assert len(E) == R and all(len(row) == 2 * L for row in E)

        def levels(k, t):
            return [math.perm(k, s) * Fraction(t) ** max(k - s, 0) for s in range(L)]

        for k in range(2 * L + 1):
            data = levels(k, -1) + levels(k, 0)
            got = [sum(e * w for e, w in zip(row, data)) for row in E]
            exact = [Fraction(r) ** k for r in range(1, R + 1)]
            if k < 2 * L:
                assert got == exact
            else:  # degree 2L is past the two-node interpolant
                assert got != exact

    @pytest.mark.parametrize("dt", STEPS)
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 13))
    def test_rounded_once_from_exact(self, R, form, dt):
        L = form.levels
        native = coeff_table(R, form, dt).E
        dd = coeff_table(R, form, dt, DDOUBLE).E
        assert native.shape == dd.shape == (R, 2 * L)
        for i, row in enumerate(_unit_extrapolation(R, form)):
            for j, x in enumerate(row):
                exact = x * Fraction(dt) ** (j % L)
                assert native[i, j].hex() == float(exact).hex()
                got = as_fraction(dd[i, j])
                assert abs(got - exact) <= dd_bound(exact)


class TestExactnessResidual:
    @pytest.mark.parametrize("form", ALL_FORMS)
    @pytest.mark.parametrize("R", range(1, 9))
    def test_exact_through_design_degree_sharp_above(self, R, form):
        # the construction retains monomials t^0..t^d with d = levels*(R+1)-R-1,
        # i.e. d = R+1 for ZD and d = 2R+2 for ZDS (the printed R=1 ZDS
        # equation is exact at degree 4); one degree beyond is not annihilated.
        t = coeff_table(R, form, 0.75)
        d = form.exactness_degree(R)
        within = max(exactness_residual(t, deg) for deg in range(d + 1))
        assert within <= 1e-9, (form, R)
        above = exactness_residual(t, d + 1)
        # sharpness is scale-free: the normalized residual one degree beyond
        # shrinks with R (the next monomial is *almost* annihilated, which is
        # what makes large blocks high order), so a uniform absolute floor
        # only exists for small R.
        assert above > 1e6 * max(within, 1e-16), (form, R)
        if (form is Formulation.ZD and R <= 3) or (form is Formulation.ZDS and R <= 2):
            assert above > 1e-3

    def test_degree_zero_always_annihilated(self):
        assert exactness_residual(coeff_table(4, "zd", 0.3), 0) <= 1e-12

    def test_zds_r1_degree4_exact_degree5_not(self):
        t = coeff_table(1, "zds", 1.0)
        assert exactness_residual(t, 4) <= 1e-12
        assert exactness_residual(t, 5) > 1e-3

    def test_zd_r4_degree5_exact(self):
        assert exactness_residual(coeff_table(4, "zd", 0.2), 5) <= 1e-10

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="^degree must be >= 0$"):
            exactness_residual(coeff_table(2, "zd", 0.1), -1)


class TestCsvDump:
    def test_dump_shape_and_precision(self):
        t = coeff_table(2, "zds", 0.5)
        buf = io.StringIO()
        dump_coeff_csv(t, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "formulation,R,m,r,s,value"
        assert len(lines) == 1 + 2 * 3 * 3  # R * levels * (R+1)
        value = lines[1].split(",")[-1]
        mantissa = value.split("E")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 32
