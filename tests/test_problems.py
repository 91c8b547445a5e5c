"""Problem catalog tests: derivative oracles, invariants, closed forms."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from structham.baselines import integrate_sv
from structham.blocksolver import integrate
from structham.harness import RunConfig, run
from structham.numerics import DDOUBLE, NATIVE, DoubleDouble, max_abs, sin_cos
from structham.problems import (
    PROBLEM_NAMES,
    HamiltonianProblem,
    InvariantSpec,
    SingularityError,
    build_problem,
    lrl_gradient,
    lrl_scalar,
    make_em_particle,
    make_kepler,
    make_mass_spring,
    make_nbody,
    make_outer_solar,
    make_pendulum,
    make_three_body_eight,
    make_two_spring,
    pendulum_period,
    project_lrl,
)
from structham.secoeff import ConfigurationError

from oracles import reference_em, reference_kepler, reference_pendulum

ALL_PROBLEMS = list(PROBLEM_NAMES)


def random_states(problem, n, rng, scale=0.05):
    """Random phase-space points near the initial condition.

    Momentum noise is scaled by the problem's own momentum magnitude (with a
    unit floor only when the initial momenta vanish), so that bodies with
    tiny masses keep physically meaningful velocities.
    """
    X0 = np.asarray(problem.x0, float)
    P0 = np.asarray(problem.p0, float)
    sx = scale * (np.max(np.abs(X0)) + 1.0)
    pmag = np.max(np.abs(P0))
    sp = scale * (pmag if pmag > 0 else 1.0)
    for _ in range(n):
        yield X0 + sx * rng.standard_normal(X0.shape), P0 + sp * rng.standard_normal(P0.shape)


def rhs(problem, X, P):
    """D, the first-order right-hand side, from the problem's physical equations."""
    return problem.derivatives(X, P, 1)[0]


def fd_gradient(f, X, P, h=1e-6):
    """Central finite differences of a scalar map on both state slots."""
    gX = np.zeros(X.shape)
    gP = np.zeros(P.shape)
    for idx in np.ndindex(X.shape):
        Xp, Xm = X.copy(), X.copy()
        Xp[idx] += h
        Xm[idx] -= h
        gX[idx] = (f(Xp, P) - f(Xm, P)) / (2 * h)
        Pp, Pm = P.copy(), P.copy()
        Pp[idx] += h
        Pm[idx] -= h
        gP[idx] = (f(X, Pp) - f(X, Pm)) / (2 * h)
    return gX, gP


class TestFirstRhsMatchesHamiltonian:
    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_gradient_structure(self, name):
        prob = build_problem(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        checked = 0
        for X, P in random_states(prob, 100, rng):
            try:
                DX, DP = rhs(prob, X, P)
                gX, gP = fd_gradient(lambda a, b: float(prob.hamiltonian(a, b)), X, P)
            except SingularityError:
                continue
            scale = max(np.max(np.abs(gX)), np.max(np.abs(gP)), 1.0)
            assert np.max(np.abs(np.asarray(DX, float) - gP)) <= 1e-5 * scale
            assert np.max(np.abs(np.asarray(DP, float) + gX)) <= 1e-5 * scale
            checked += 1
        assert checked >= 90

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_second_rhs_is_flow_derivative(self, name):
        # S must equal d/dt D along the flow: compare with
        # (D(Z + eps*dZ) - D(Z - eps*dZ)) / (2 eps), whose error decays
        # quadratically in eps
        prob = build_problem(name)
        rng = np.random.default_rng(hash(name) % 2**31)

        def fd_second(X, P, DX, DP, eps):
            ax, ap = rhs(prob, X + eps * DX, P + eps * DP)
            bx, bp = rhs(prob, X - eps * DX, P - eps * DP)
            return (ax - bx) / (2 * eps), (ap - bp) / (2 * eps)

        checked = 0
        decay_checked = 0
        for X, P in random_states(prob, 12, rng):
            try:
                (DX, DP), (SX, SP) = prob.derivatives(X, P, 2)
                # keep the FD excursion state-scale bounded when the flow is fast
                speed = max(np.max(np.abs(np.asarray(DX, float))),
                            np.max(np.abs(np.asarray(DP, float))), 1.0)
                eps0 = 3e-2 / speed
                errs = []
                for eps in (eps0, eps0 / 8):
                    fx, fp = fd_second(X, P, DX, DP, eps)
                    errs.append(max(np.max(np.abs(fx - SX)), np.max(np.abs(fp - SP))))
            except SingularityError:
                continue
            scale = max(np.max(np.abs(SX)), np.max(np.abs(SP)), 1.0)
            # FD cancellation noise ~ eps_mach * |D| / eps
            noise0 = 1e-15 * speed / eps0
            assert errs[0] <= 5e-2 * scale + 10 * noise0
            if errs[0] > 100 * (8 * noise0) and errs[0] > 1e-12 * scale:
                # quadratic decay observable above the noise floor
                assert errs[1] <= errs[0] / 16 + 5 * 8 * noise0
                decay_checked += 1
            checked += 1
        assert checked >= 10
        # linear problems (mass_spring, two_spring) difference exactly, and
        # outer_solar / em_scb are noise-bound at double precision (they get
        # a double-double spot check below); the rest must show the decay
        if name in ("pendulum", "kepler", "three_body_eight", "em_challenging"):
            assert decay_checked >= 5

    @pytest.mark.parametrize("name", ["outer_solar", "em_scb"])
    def test_second_rhs_flow_derivative_dd_spotcheck(self, name):
        # the two problems whose scales defeat double-precision differencing
        # get a double-double spot check instead
        prob = build_problem(name, precision=DDOUBLE)
        native = build_problem(name)
        rng = np.random.default_rng(hash(name) % 2**29)
        for Xf, Pf in random_states(native, 2, rng):
            X = DDOUBLE.asarray(Xf)
            P = DDOUBLE.asarray(Pf)
            (DX, DP), (SX, SP) = prob.derivatives(X, P, 2)
            speed = max(max_abs(DX), max_abs(DP), 1.0)
            eps = DoubleDouble(1e-8 / speed)
            ax, ap = rhs(prob, X + eps * DX, P + eps * DP)
            bx, bp = rhs(prob, X - eps * DX, P - eps * DP)
            fx = (ax - bx) / (2 * eps)
            fp = (ap - bp) / (2 * eps)
            scale = max(max_abs(SX), max_abs(SP), 1.0)
            assert max_abs(fx - SX) <= 1e-10 * scale
            assert max_abs(fp - SP) <= 1e-10 * scale

    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_energy_stationary_along_flow(self, name):
        # directional derivative of H along the flow vanishes; measured with
        # double-double finite differences to reach the 1e-12 scale bound
        prob = build_problem(name, precision=DDOUBLE)
        h = DoubleDouble(1e-12)
        rng = np.random.default_rng(hash(name) % 2**30)
        native = build_problem(name)
        checked = 0
        for Xf, Pf in random_states(native, 10, rng):
            X = DDOUBLE.asarray(Xf)
            P = DDOUBLE.asarray(Pf)
            try:
                DX, DP = rhs(prob, X, P)
                Hp = prob.hamiltonian(X + h * DX, P + h * DP)
                Hm = prob.hamiltonian(X - h * DX, P - h * DP)
            except SingularityError:
                continue
            deriv = abs(float((Hp - Hm) / (2 * h)))
            scale = 1.0 + abs(float(prob.hamiltonian(X, P)))
            assert deriv <= 1e-12 * scale
            checked += 1
        assert checked >= 8


class TestMassSpring:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_mass_spring(m=0.0)

    @pytest.mark.parametrize("kappa", ["2.5", "0.1"])
    def test_twin_holds_float_parameters(self, kappa):
        # a DoubleDouble argument rounds to float64 in the float64 twin
        value = DoubleDouble.from_any(kappa)
        prob = make_mass_spring(kappa=value, precision=DDOUBLE)
        twin = prob.native
        assert twin.precision is NATIVE and twin.native is None
        held = twin.parameters["kappa"]
        assert type(held) is float and held == float(Fraction(kappa)) == float(value)

    def test_exact_solution_period(self):
        prob = make_mass_spring()
        X, P = prob.exact_solution(2 * math.pi)
        assert float(X[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert float(P[0, 0]) == pytest.approx(0.0, abs=1e-12)
        X, P = prob.exact_solution(math.pi / 2)
        assert float(X[0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert float(P[0, 0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hamiltonian_constant_on_exact(self):
        prob = make_mass_spring()
        for t in np.linspace(0.0, 10.0, 50):
            X, P = prob.exact_solution(t)
            assert float(prob.hamiltonian(X, P)) == pytest.approx(0.5, abs=1e-13)

    def test_exact_solution_satisfies_pe1(self):
        prob = make_mass_spring()
        h = 1e-5
        for t in (0.3, 1.7, 9.2):
            X, P = prob.exact_solution(t)
            DX, DP = rhs(prob, X, P)
            Xp, Pp = prob.exact_solution(t + h)
            Xm, Pm = prob.exact_solution(t - h)
            assert abs((Xp[0, 0] - Xm[0, 0]) / (2 * h) - DX[0, 0]) <= 1e-10
            assert abs((Pp[0, 0] - Pm[0, 0]) / (2 * h) - DP[0, 0]) <= 1e-10

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_velocity_words(self, prec, m):
        # at m = 1 the velocity is no division: its words are float64's v / 1.0,
        # a -0.0 included, and equal the quotient's; other masses still divide
        vals = [0.0, -0.0, 0.3, -1.7, 1e-300, -5e-324, 1e300]
        V = prec.asarray(np.reshape(vals, (-1, 1, 1)))
        prob = make_mass_spring(m=m, precision=prec)
        m_ = prob.parameters["m"]

        def hex_words(A):
            return [(v.hi.hex(), v.lo.hex()) if prec is DDOUBLE else v.hex() for v in A.ravel()]

        for got in (prob.first_rhs(V, V)[0], prob.second_rhs(V, V, V, V)[0]):
            assert hex_words(got) == hex_words(V / m_)
            if m == 1.0:
                want = [float(np.float64(v) / 1.0).hex() for v in vals]
                assert hex_words(got) == (want if prec is NATIVE else [(w, "0x0.0p+0") for w in want])

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_exact_solution_words_match_written_out_formula(self, prec):
        # the closed form's t-independent coefficients are computed once, at
        # build time, with the words of the formula written out per call
        prob = make_mass_spring(m=2.0, kappa=3.0, x0=0.5, p0=-0.25, precision=prec)
        m_, w = prob.parameters["m"], prob.parameters["omega"]
        x0_, p0_ = prob.x0[0, 0], prob.p0[0, 0]
        for t in (prec.real("0.7"), prec.real(13)):
            s, c = sin_cos(t * w)
            X, P = prob.exact_solution(t)
            assert repr(X[0, 0]) == repr(x0_ * c + (p0_ / (m_ * w)) * s)
            assert repr(P[0, 0]) == repr(p0_ * c - (m_ * w * x0_) * s)


class TestTwoSpring:
    def test_frequencies_closed_form(self):
        prob = make_two_spring()
        w1 = float(prob.parameters["omega1"])
        w2 = float(prob.parameters["omega2"])
        assert w1 == pytest.approx(math.sqrt((8 - 3 * math.sqrt(6)) / 2), rel=1e-12)
        assert w2 == pytest.approx(math.sqrt((8 + 3 * math.sqrt(6)) / 2), rel=1e-12)

    def test_quartic_root_residual(self):
        prob = make_two_spring()
        k1, k2 = 1.0, 5.0
        m1, m2 = 2.0, 1.0
        for w in (prob.parameters["omega1"], prob.parameters["omega2"]):
            w2 = float(w) ** 2
            res = m1 * m2 * w2 * w2 - (m1 * k2 + m2 * k1 + m2 * k2) * w2 + k1 * k2
            assert abs(res) <= 1e-12 * k1 * k2 * 10

    def test_hamiltonian_constant_on_exact(self):
        prob = make_two_spring()
        H0 = float(prob.hamiltonian(prob.x0, prob.p0))
        for t in np.linspace(0.0, 10.0, 100):
            X, P = prob.exact_solution(t)
            assert float(prob.hamiltonian(X, P)) == pytest.approx(H0, abs=1e-12 * (1 + abs(H0)))

    def test_exact_solution_satisfies_pe1(self):
        prob = make_two_spring()
        h = 1e-5
        for t in (0.4, 2.9):
            X, P = prob.exact_solution(t)
            DX, DP = rhs(prob, X, P)
            Xp, _ = prob.exact_solution(t + h)
            Xm, _ = prob.exact_solution(t - h)
            fd = (np.asarray(Xp, float) - np.asarray(Xm, float)) / (2 * h)
            assert np.max(np.abs(fd - np.asarray(DX, float))) <= 1e-9

    @pytest.mark.parametrize("name", ["k1", "k2", "m1", "m2"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_parameter_validation(self, name, value):
        with pytest.raises(ValueError, match="^all two-spring parameters must be positive$"):
            make_two_spring(**{name: value})

    def test_equal_frequencies_rejected(self):
        # k1 / m1 = 1e30 and k2 / m2 = 1e30: the two modes coincide in float64
        with pytest.raises(ValueError, match="w1 == w2$"):
            make_two_spring(k1=1e30, k2=1, m1=1, m2=1e-30)

    def test_resonant_configuration_rejected(self):
        # equal masses and stiffnesses k1 = 0 would degenerate; pick a case
        # with k2 == m2 w2^2 instead: m1 -> infinity limit approximated
        with pytest.raises(ValueError):
            make_two_spring(k1=1, k2=1, m1=1e30, m2=1)


class TestPendulum:
    def test_reference_values_attached(self):
        prob = make_pendulum()
        assert any(r.quantity == "x" and r.t == 100.0 for r in prob.reference_values)
        custom = make_pendulum(x0=0.3)
        assert custom.reference_values == ()

    def test_equilibrium_is_fixed_point(self):
        prob = make_pendulum(x0=0.0, p0=0.0)
        for level in prob.derivatives(prob.x0, prob.p0, 2):
            assert max_abs(level[0]) == 0.0 and max_abs(level[1]) == 0.0

    def test_period_agm_value(self):
        Tp = pendulum_period()
        assert Tp == pytest.approx(6.53, abs=5e-3)  # printed 3-digit value
        assert Tp == pytest.approx(6.534, abs=1e-3)

    def test_period_harmonic_limit(self):
        assert pendulum_period(modulus=0.0) == pytest.approx(2 * math.pi, rel=1e-15)
        assert pendulum_period(m=2.0, g=3.0, length=1.5, modulus=0.0) == pytest.approx(
            2 * math.pi * math.sqrt(1.5 / 6.0), rel=1e-14
        )

    def test_period_against_quadrature_oracle(self):
        # 400-point Gauss-Legendre quadrature of the defining integral
        nodes, weights = np.polynomial.legendre.leggauss(400)
        u = 0.25 * math.pi * (nodes + 1.0)
        w = 0.25 * math.pi * weights
        for omega in (0.1, 0.5, 0.9):
            integral = np.sum(w / np.sqrt(1.0 - omega**2 * np.sin(u) ** 2))
            assert pendulum_period(modulus=omega) == pytest.approx(4.0 * integral, rel=1e-12)

    def test_modulus_domain(self):
        with pytest.raises(ValueError):
            pendulum_period(modulus=1.0)

    @pytest.mark.parametrize("kwargs", [{"g": 0}, {"m": -1.0}, {"length": 0.0}])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError, match="^pendulum parameters must be positive$"):
            make_pendulum(**kwargs)


def kepler_ellipse_state(a, e, t):
    """Analytic Kepler orbit (mu = 1) via Newton on the eccentric anomaly."""
    n = a**-1.5
    M = n * t
    E = M
    for _ in range(60):
        f = E - e * math.sin(E) - M
        E -= f / (1.0 - e * math.cos(E))
        if abs(f) < 1e-15:
            break
    x = np.array([[a * (math.cos(E) - e)], [a * math.sqrt(1 - e * e) * math.sin(E)]])
    Edot = n / (1.0 - e * math.cos(E))
    p = np.array([[-a * math.sin(E) * Edot], [a * math.sqrt(1 - e * e) * math.cos(E) * Edot]])
    return x, p


class TestKepler:
    def test_initial_invariants(self):
        prob = make_kepler()
        assert float(prob.hamiltonian(prob.x0, prob.p0)) == pytest.approx(-0.5, abs=1e-14)
        H, L, A = prob.invariants
        assert float(L.evaluator(prob.x0, prob.p0)) == pytest.approx(0.8, abs=1e-14)
        assert float(A.evaluator(prob.x0, prob.p0)) == pytest.approx(0.6, abs=1e-14)

    def test_circular_orbit_balance(self):
        prob = make_kepler(x0=(1.0, 0.0), p0=(0.0, 1.0))
        assert float(prob.hamiltonian(prob.x0, prob.p0)) == pytest.approx(-0.5, abs=1e-14)
        _, (SX, _) = prob.derivatives(prob.x0, prob.p0, 2)
        assert np.allclose(np.asarray(SX, float), -np.asarray(prob.x0, float), atol=1e-14)

    def test_singularity(self):
        prob = make_kepler()
        for levels in (1, 2):
            with pytest.raises(SingularityError):
                prob.derivatives(np.array([[0.0], [0.0]]), prob.p0, levels)
        with pytest.raises(SingularityError):
            prob.force(np.array([[0.0], [0.0]]))

    def test_zero_initial_position_rejected(self):
        with pytest.raises(ValueError, match="^Kepler initial position must be nonzero$"):
            make_kepler(x0=(0, 0))

    def test_lrl_constant_on_analytic_ellipse(self):
        a, e = 1.3, 0.4
        x0, p0 = kepler_ellipse_state(a, e, 0.0)
        R0 = float(lrl_scalar(x0[:, 0], p0[:, 0]))
        T_orb = 2 * math.pi * a**1.5
        for t in np.linspace(0.0, 2 * T_orb, 64):
            x, p = kepler_ellipse_state(a, e, t)
            assert abs(float(lrl_scalar(x[:, 0], p[:, 0])) - R0) <= 1e-10

    def test_lrl_gradient_against_fd(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(20):
            z = np.array([0.4, 0.0, 0.0, 2.0]) + 0.2 * rng.standard_normal(4)

            def R_of(z):
                return float(lrl_scalar(z[:2], z[2:]))

            g = lrl_gradient(z[:2], z[2:])
            for i in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd = (R_of(zp) - R_of(zm)) / (2 * h)
                assert float(g[i]) == pytest.approx(fd, abs=2e-8 * (1 + abs(fd)))

    def test_lrl_gradient_reference_point(self):
        # frozen from the central-difference oracle at x=(0.4,0), p=(0,2)
        g = lrl_gradient(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
        assert [float(v) for v in g] == pytest.approx([4.0, -2.5, -0.8, 1.6], abs=1e-14)

    def test_projection_identity_on_manifold(self):
        prob = make_kepler()
        R0 = float(lrl_scalar(prob.x0[:, 0], prob.p0[:, 0]))
        Xn, Pn = project_lrl(prob.x0, prob.p0, R0)
        assert np.array_equal(np.asarray(Xn, float), np.asarray(prob.x0, float))
        assert np.array_equal(np.asarray(Pn, float), np.asarray(prob.p0, float))

    def test_projection_reduces_deviation(self):
        prob = make_kepler()
        R0 = float(lrl_scalar(prob.x0[:, 0], prob.p0[:, 0])) + 1e-6
        before = abs(float(lrl_scalar(prob.x0[:, 0], prob.p0[:, 0])) - R0)
        Xn, Pn = project_lrl(prob.x0, prob.p0, R0)
        after = abs(float(lrl_scalar(Xn[:, 0], Pn[:, 0])) - R0)
        assert after <= before / 100

    def test_projection_skipped_on_tiny_gradient(self):
        X = np.array([[1.0], [1.0]])
        P = np.array([[0.0], [0.0]])
        # gradient of R at p=0 along +diagonal positions: dR/dp nonzero...
        # build a genuinely vanishing-gradient point instead: symmetric state
        # x1=x2, p1=p2=0 makes the p-gradient zero but not the x-gradient;
        # fabricate zero gradient by scaling positions to infinity is not
        # possible, so directly exercise the guard with a monkeypatched state
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Xn, Pn = project_lrl(X * 1e300, P, 0.0)  # gradient underflows
            assert caught, "expected a skip warning"
        assert np.array_equal(Xn, X * 1e300)


class TestNBody:
    def test_circular_binary_acceleration(self):
        X0 = [[0.5, -0.5], [0.0, 0.0]]
        P0 = [[0.0, 0.0], [0.5, -0.5]]
        prob = make_nbody([1.0, 1.0], 1.0, X0, P0)
        _, (SX, _) = prob.derivatives(prob.x0, prob.p0, 2)
        acc = np.asarray(SX, float)
        assert acc[:, 0] == pytest.approx([-1.0, 0.0], abs=1e-14)
        assert acc[:, 1] == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_figure_eight_data(self):
        prob = make_three_body_eight()
        P = np.asarray(prob.p0, float)
        assert np.max(np.abs(P.sum(axis=1))) == 0.0  # total linear momentum
        L0 = prob.invariants[1].evaluator(prob.x0, prob.p0)
        assert abs(float(L0)) <= 1e-12
        assert prob.parameters["period"] == pytest.approx(6.32591401228)
        assert float(prob.x0[0, 0]) == 0.97000436

    def test_momentum_telescoping(self):
        rng = np.random.default_rng(31)
        prob = make_nbody([1.0, 2.0, 0.5, 3.0], 1.0,
                          rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        for _ in range(20):
            X = rng.standard_normal((3, 4)) * 2
            P = rng.standard_normal((3, 4))
            _, DP = rhs(prob, X, P)
            force_scale = np.max(np.abs(np.asarray(DP, float))) + 1e-30
            assert np.max(np.abs(np.asarray(DP, float).sum(axis=1))) <= 1e-13 * force_scale

    def test_collision_raises(self):
        prob = make_nbody([1.0, 1.0], 1.0, [[0.5, -0.5], [0.0, 0.0]], [[0.0] * 2] * 2)
        X = np.array([[0.3, 0.3], [0.1, 0.1]])
        with pytest.raises(SingularityError):
            prob.force(X)
        for levels in (1, 2):
            with pytest.raises(SingularityError):
                prob.derivatives(X, np.zeros((2, 2)), levels)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_nbody([1.0], 1.0, [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            make_nbody([1.0, -1.0], 1.0, [[0.0, 1.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):  # P0 would broadcast P / m to (2, 2)
            make_nbody([1, 1], 1, [[0, 1], [0, 0]], [[0], [0]])
        with pytest.raises(ValueError, match="shape"):  # fewer columns than masses
            make_nbody([1, 1, 1], 1, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="shape"):  # more columns than masses
            make_nbody([1, 1], 1, [[0, 1, 2], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="shape"):  # P0 in another dimension
            make_nbody([1, 1], 1, [[0, 1], [0, 0]], [[0, 0], [0, 0], [0, 0]])
        with pytest.raises(ValueError, match="^n-body supports I = 2 or 3$"):  # a line
            make_nbody([1, 1], 1, [[0, 1]], [[0, 0]])


def reference_nbody(masses, G, precision):
    """The n-body maps term by term: diagonal fills and Python pair loops."""
    m = precision.asarray(masses)
    K = m.shape[0]
    G_ = precision.real(G)
    mm = m[:, None] * m[None, :]
    one = precision.real(1)

    def geometry(X):
        diff = X[:, None, :] - X[:, :, None]
        d2 = (diff * diff).sum(axis=0)
        for k in range(K):
            for l in range(k + 1, K):
                if float(d2[k, l]) == 0.0:
                    raise SingularityError(f"bodies {k} and {l} collide")
        d2 = d2.copy()
        np.fill_diagonal(d2, one)
        return diff, d2

    def hamiltonian(X, P):
        kin = ((P * P).sum(axis=0) / (2 * m)).sum()
        pot = 0 * kin
        for k in range(K):
            for l in range(k + 1, K):
                dx = X[:, k] - X[:, l]
                r2 = (dx * dx).sum()
                pot = pot - G_ * m[k] * m[l] / (r2.sqrt() if precision is DDOUBLE else math.sqrt(r2))
        return kin + pot

    def first_rhs(X, P):
        diff, d2 = geometry(X)
        d = np.sqrt(d2)
        w = (G_ * mm) / (d2 * d)
        np.fill_diagonal(w, 0 * one)
        return P / m[None, :], (w[None, :, :] * diff).sum(axis=2)

    def second_rhs(X, P, DX, DP):
        diff, d2 = geometry(X)
        d = np.sqrt(d2)
        d3 = d2 * d
        vdiff = DX[:, None, :] - DX[:, :, None]
        w3 = (G_ * mm) / d3
        np.fill_diagonal(w3, 0 * one)
        inner = (diff * vdiff).sum(axis=0)
        w5 = 3 * (G_ * mm) * inner / (d3 * d2)
        np.fill_diagonal(w5, 0 * one)
        return DP / m[None, :], (w3[None, :, :] * vdiff - w5[None, :, :] * diff).sum(axis=2)

    def angular_momentum(X, P):
        if X.shape[0] == 2:
            return (X[0, :] * P[1, :] - X[1, :] * P[0, :]).sum()
        out = np.empty(3, dtype=X.dtype)
        out[0] = (X[1, :] * P[2, :] - X[2, :] * P[1, :]).sum()
        out[1] = (X[2, :] * P[0, :] - X[0, :] * P[2, :]).sum()
        out[2] = (X[0, :] * P[1, :] - X[1, :] * P[0, :]).sum()
        return out

    return hamiltonian, first_rhs, second_rhs, angular_momentum


def words(value):
    """Every float64 word of a result as hex, signed zeros included: (hi, lo) for double-double."""
    out = []
    for v in np.ravel(np.asarray(value, dtype=object)):
        out.append((v.hi.hex(), v.lo.hex()) if isinstance(v, DoubleDouble) else float(v).hex())
    return out


class TestNBodyKernel:
    """The vectorized kernel against the term-by-term reference, bit for bit."""

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("I", [2, 3])
    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_bit_identical_to_reference(self, prec, I, K):
        rng = np.random.default_rng(100 * K + I)

        def state():
            A = prec.asarray(rng.standard_normal((I, K)) * rng.uniform(0.1, 10))
            if prec is DDOUBLE:  # nonzero low words
                A = A + prec.asarray(rng.standard_normal((I, K)) * 1e-17)
            return A

        for _ in range(12 if prec is NATIVE else 2):
            masses = list(rng.uniform(0.01, 3.0, K))
            G = rng.uniform(0.1, 2.0)
            prob = make_nbody(masses, G, state(), state(), precision=prec)
            ref_h, ref_f, ref_s, ref_l = reference_nbody(masses, G, prec)
            X, P = state(), state()
            Z = prec.asarray(np.zeros((I, K)))  # H is then the potential alone, whose sum order shows
            assert words(prob.hamiltonian(X, Z)) == words(ref_h(X, Z))
            assert words(prob.hamiltonian(X, P)) == words(ref_h(X, P))
            assert words(prob.invariants[1].evaluator(X, P)) == words(ref_l(X, P))
            D = ref_f(X, P)
            for got, want in zip(prob.derivatives(X, P, 2), (D, ref_s(X, P, *D))):
                assert [words(a) for a in got] == [words(a) for a in want]

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("columns, pair", [
        ((0, 1, 0), (0, 2)),
        ((0, 1, 1), (1, 2)),
        ((0, 0, 0), (0, 1)),
    ])
    def test_collision_names_first_pair(self, prec, columns, pair):
        base = np.array([[0.5, -1.0, 2.0], [0.25, 1.5, -0.75], [1.0, 0.0, -2.0]])
        prob = make_nbody([1.0, 2.0, 3.0], 1.0, base, np.zeros((3, 3)), precision=prec)
        X = prec.asarray(base[:, list(columns)])
        Z = prec.asarray(np.zeros((3, 3)))
        message = f"bodies {pair[0]} and {pair[1]} collide"
        for call in (lambda: prob.force(X), lambda: prob.derivatives(X, Z, 1),
                     lambda: prob.derivatives(X, Z, 2)):
            with pytest.raises(SingularityError, match=message):
                call()

    # The test_memo_* cases run the call patterns of the block solver and the
    # leapfrog, in which a kernel that kept state between calls would give a
    # stale or aliased result: D and S from ``derivatives``, F from ``force``
    # and V from ``velocity``, each checked against the reference called node
    # by node, which keeps nothing.

    @staticmethod
    def kernel(prec, seed, I=3, K=4):
        rng = np.random.default_rng(seed)
        masses = list(rng.uniform(0.1, 3.0, K))
        G = rng.uniform(0.1, 2.0)

        def state(*lead):
            A = prec.asarray(rng.standard_normal(lead + (I, K)))
            if prec is DDOUBLE:  # nonzero low words
                A = A + prec.asarray(rng.standard_normal(lead + (I, K)) * 1e-17)
            return A

        prob = make_nbody(masses, G, state(), state(), precision=prec)
        _, ref_f, ref_s, _ = reference_nbody(masses, G, prec)

        def reference(ref, *args):
            # ref called node by node on (..., I, K) arguments, stacked
            lead = args[0].shape[:-2]
            nodes = [ref(*(A[idx] for A in args)) for idx in np.ndindex(lead)]
            return [np.stack([pair[c] for pair in nodes]).reshape(args[0].shape) for c in range(2)]

        def check(got, want):
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape
                assert words(g) == words(w)
            return got

        def derivatives(X, P, levels=2):
            got = prob.derivatives(X, P, levels)
            D = check(got[0], reference(ref_f, X, P))
            if levels == 2:
                check(got[1], reference(ref_s, X, P, *D))
            assert len(got) == levels
            return got

        def first(X, P):
            # (velocity, force), checked half by half
            return check((prob.velocity(P), prob.force(X)), reference(ref_f, X, P))

        return state, derivatives, first

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_leapfrog_pattern(self, prec):
        state, _, first = self.kernel(prec, 1)
        X, P = state(), state()
        h = prec.real(0.01)
        F = first(X, P)[1]
        for _ in range(3):  # each stage's closing force opens the next one
            Ph = P + h * F
            X = X + h * first(X, Ph)[0]
            F = first(X, Ph)[1]
            P = Ph + h * F

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_block_pattern(self, prec):
        state, derivatives, _ = self.kernel(prec, 2)
        X, P = state(3), state(3)
        derivatives(X, P)
        derivatives(X, state(3))  # same positions, other momenta
        derivatives(X, P, 1)
        X2, P2 = X.reshape((1, 3) + X.shape[1:]), P.reshape((1, 3) + X.shape[1:])
        derivatives(X2, P2)  # the same values under another shape

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_node_call_between_block_calls(self, prec):
        state, derivatives, first = self.kernel(prec, 3)
        X, P = state(2), state(2)
        derivatives(X, P, 1)
        first(X[1], P[1])
        derivatives(X, P)
        derivatives(X[0], P[0])
        derivatives(X, P, 1)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_misses_after_in_place_change(self, prec):
        state, derivatives, first = self.kernel(prec, 4)
        X, P = state(2), state(2)
        derivatives(X, P)
        X[1, 0, 2] = X[1, 0, 2] + prec.real(0.5)  # the same array, one entry new
        derivatives(X, P)
        first(X, P)
        X[...] = state(2)  # every entry new
        derivatives(X, P, 1)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_returns_fresh_arrays(self, prec):
        state, derivatives, first = self.kernel(prec, 5)
        X, P = state(), state()
        V, F = first(X, P)
        V[...] = prec.real(7)
        F[...] = prec.real(7)
        D, S = derivatives(X, P)
        for A in D + S:
            A += prec.real(1)
        F2 = first(X, P)[1]
        (_, DP), _ = derivatives(X, P)
        assert not np.shares_memory(DP, F2)
        for A in (V, F, F2, DP, *D, *S):
            assert not (np.shares_memory(A, X) or np.shares_memory(A, P))

    def test_memo_ddouble_state_rebuilt_from_equal_values(self):
        state, derivatives, first = self.kernel(DDOUBLE, 6)
        P = state()
        X = state()
        D, S = derivatives(X, P)
        rebuilt = DDOUBLE.asarray([[DoubleDouble(v.hi, v.lo) for v in row] for row in X])
        for got, want in zip(derivatives(rebuilt, P), (D, S)):
            for g, w in zip(got, want):
                assert words(g) == words(w)
        assert words(first(rebuilt, P)[1]) == words(D[1])

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_memo_untouched_by_a_collision(self, prec):
        state, derivatives, first = self.kernel(prec, 7)
        X, P = state(), state()
        derivatives(X, P)
        Xc = X.copy()
        Xc[:, 3] = Xc[:, 1]
        for _ in range(2):
            for levels in (1, 2):
                with pytest.raises(SingularityError, match="^bodies 1 and 3 collide$"):
                    derivatives(Xc, P, levels)
            with pytest.raises(SingularityError, match="^bodies 1 and 3 collide$"):
                first(Xc, P)
        derivatives(X, P)
        first(X, P)
        derivatives(state(), P)

    @pytest.mark.parametrize("scheme, R, pe1_calls, nb_call_avg", [
        ("sv6", None, 865, 9.010416666666666),  # 96 * 9 stages + 1
        ("zds", 2, 783, 8.145833333333334),  # 1371 and 14.27 before float64 blocks built M
    ])
    def test_call_counts_unchanged_by_memo(self, scheme, R, pe1_calls, nb_call_avg):
        # SV counts one force per stage and one at t = 0; ZDS R nodes per sweep
        prob = make_three_body_eight()
        T = prob.parameters["period"]
        traj = integrate(prob, scheme, R, 96, T) if R else integrate_sv(prob, 6, 96, T)
        assert traj.pe1_calls == pe1_calls
        assert run(RunConfig("three_body_eight", scheme, 96, T, R=R)).nb_call_avg == nb_call_avg


class TestOuterSolar:
    def test_table_data(self):
        prob = make_outer_solar()
        m = prob.parameters["masses"]
        assert float(m[0]) == 1.00000597682
        assert float(m[5]) == pytest.approx(float(Fraction(10, 13) * Fraction(1, 10**8)), rel=1e-15)
        assert prob.x0.shape == (3, 6)

    def test_bound_system(self):
        prob = make_outer_solar()
        assert float(prob.hamiltonian(prob.x0, prob.p0)) < 0.0

    def test_momenta_are_mass_times_velocity(self):
        prob = make_outer_solar()
        # Jupiter row: p = m * v
        m1 = float(prob.parameters["masses"][1])
        assert float(prob.p0[0, 1]) == pytest.approx(m1 * 0.00565429, rel=1e-15)


class TestElectromagnetic:
    def test_scb_initial_velocity(self):
        prob = make_em_particle("scb")
        DX, _ = rhs(prob, prob.x0, prob.p0)
        v = np.asarray(DX, float).ravel()
        assert v == pytest.approx([0.0, -899.0, 0.0], abs=1e-12)

    def test_zero_charge_is_free_particle(self):
        prob = make_em_particle("scb", e=0.0)
        X = np.array([[0.3], [0.4], [0.5]])
        P = np.array([[1.0], [2.0], [3.0]])
        DX, DP = rhs(prob, X, P)
        assert np.array_equal(np.asarray(DX, float), np.asarray(P, float))
        assert np.max(np.abs(np.asarray(DP, float))) == 0.0

    def test_challenging_derivatives_against_fd(self):
        # analytic first/second derivatives of the potentials vs central
        # differences at the standard starting point
        prob = build_problem("em_challenging")
        x = np.array([0.5, -0.25, -0.25])
        h = 1e-6

        def H_of(xv, pv):
            return float(prob.hamiltonian(xv[:, None], pv[:, None]))

        p = np.array([0.0, 0.0, -1.0])
        DX, DP = rhs(prob, x[:, None], p[:, None])
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (H_of(xp, p) - H_of(xm, p)) / (2 * h)
            assert -float(DP[i, 0]) == pytest.approx(fd, rel=1e-6, abs=1e-6)
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (H_of(x, pp) - H_of(x, pm)) / (2 * h)
            assert float(DX[i, 0]) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_challenging_singular_at_x1_zero(self):
        prob = make_em_particle("challenging")
        X = np.array([[0.0], [0.2], [0.3]])
        for call in (lambda: prob.derivatives(X, np.zeros((3, 1)), 1),
                     lambda: prob.derivatives(X, np.zeros((3, 1)), 2),
                     lambda: prob.hamiltonian(X, np.zeros((3, 1)))):
            with pytest.raises(SingularityError):
                call()

    def test_nonseparable_flag(self):
        assert not build_problem("em_scb").separable
        assert not build_problem("em_challenging").separable
        assert build_problem("kepler").separable

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_em_particle("exotic")


def free_rhs(X, P, *_):
    """D (or S) of a free particle, H = p^2/2: hand-built problems' rhs."""
    return P.copy(), np.zeros_like(X)


class TestCatalog:
    def test_all_names_buildable(self):
        for name in PROBLEM_NAMES:
            prob = build_problem(name)
            assert prob.x0.ndim == 2 and prob.p0.shape == prob.x0.shape
            assert prob.invariants[0].name == "H"

    def test_sizes_follow_x0(self):
        # the sizes I and K are x0's shape: a problem has no field to
        # declare them, which could contradict x0
        hand = HamiltonianProblem(name="line", x0=np.zeros((1, 4)), p0=np.zeros((1, 4)), first_rhs=free_rhs)
        assert hand.x0.shape == (1, 4) and not hasattr(hand, "dim")
        for size in ("dim", "nbodies"):
            with pytest.raises(TypeError):
                HamiltonianProblem(name="line", x0=np.zeros((1, 4)), p0=np.zeros((1, 4)), first_rhs=free_rhs,
                                   **{size: 2})

    def test_separable_means_a_force(self):
        for name in PROBLEM_NAMES:
            prob = build_problem(name)
            assert prob.separable == (prob.velocity is not None) == (not name.startswith("em_"))
        hand = HamiltonianProblem(name="line", x0=np.zeros((1, 1)), p0=np.zeros((1, 1)), first_rhs=free_rhs)
        assert not hand.separable
        with pytest.raises(AttributeError):
            hand.separable = True
        with pytest.raises(TypeError):
            HamiltonianProblem(name="line", x0=np.zeros((1, 1)), p0=np.zeros((1, 1)), first_rhs=free_rhs, separable=True)
        for half in ("force", "velocity"):
            with pytest.raises(ValueError, match="^line: a separable problem gives both force and velocity$"):
                HamiltonianProblem(name="line", x0=np.zeros((1, 1)), p0=np.zeros((1, 1)), **{half: np.copy})

    def test_no_physical_equations_refused(self):
        # a problem with no map to D would build and then fail in the first
        # solver call; it fails at construction instead
        with pytest.raises(ValueError, match="^bare: a problem gives derivatives, first_rhs, or force and velocity$"):
            HamiltonianProblem("bare", np.ones((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="^bare: a problem gives derivatives, first_rhs, or force and velocity$"):
            HamiltonianProblem("bare", np.ones((1, 1)), np.zeros((1, 1)), second_rhs=lambda X, P, DX, DP: (DP, DX))

    def test_p0_of_another_shape_refused(self):
        # it would broadcast against x0, and the solvers would return momenta
        # of x0's shape
        with pytest.raises(ValueError, match=r"^line: p0 has shape \(1, 1\), x0 \(2, 1\)$"):
            HamiltonianProblem(name="line", x0=np.ones((2, 1)), p0=np.zeros((1, 1)), first_rhs=free_rhs)

    @pytest.mark.parametrize("maps", [
        dict(first_rhs=lambda X, P: (P.copy(), -X)),
        dict(force=lambda X: -X, velocity=lambda P: P.copy()),
    ], ids=["first_rhs", "force"])
    def test_zds_without_s_is_a_configuration_error(self, maps):
        # refused at the anchor's derivatives, before any sweep, naming the
        # missing S; ZD and Stormer-Verlet take D alone and still run
        prob = HamiltonianProblem(name="spring", x0=np.ones((1, 1)), p0=np.zeros((1, 1)), **maps)
        first, calls = prob.first_rhs, []
        prob.first_rhs = lambda X, P: calls.append(X.shape) or first(X, P)
        with pytest.raises(ConfigurationError, match="^spring: ZDS needs S, .* no second_rhs or derivatives$"):
            integrate(prob, "zds", 2, 4, 1.0)
        assert calls == []
        zd = integrate(prob, "zd", 2, 4, 1.0)
        sv = integrate_sv(prob, 2, 4, 1.0)
        for traj in (zd, sv):
            assert abs(traj.xs[-1][0, 0] - math.cos(1.0)) < 0.1

    @pytest.mark.parametrize("pair", ["first_rhs", "second_rhs"])
    def test_derivatives_with_an_rhs_refused(self, pair):
        # two definitions of the same physics, of which the solvers would use one
        def derivatives(X, P, levels):
            return free_rhs(X, P), free_rhs(X, P)

        with pytest.raises(ValueError, match="^both: a problem gives derivatives or first_rhs and second_rhs, not both$"):
            HamiltonianProblem("both", np.ones((1, 1)), np.zeros((1, 1)), derivatives=derivatives, **{pair: free_rhs})
        for name in PROBLEM_NAMES:
            prob = build_problem(name)
            assert (prob.first_rhs is None) == (prob.second_rhs is None) == (name not in ("mass_spring", "two_spring"))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_problem("lorenz")

    def test_ddouble_construction(self):
        for name in PROBLEM_NAMES:
            prob = build_problem(name, precision=DDOUBLE)
            assert prob.x0.dtype == object
            H = prob.hamiltonian(prob.x0, prob.p0)
            assert isinstance(H, DoubleDouble)


def node_stack(problem, n, rng):
    """n random nodes near the initial state, stacked as (n, I, K).

    In double-double every entry gets a nonzero low word.
    """
    prec = problem.precision
    Xs, Ps = [], []
    for X, P in random_states(problem, n, rng):
        for A, out in ((X, Xs), (P, Ps)):
            A_ = prec.asarray(A)
            if prec is DDOUBLE:
                A_ = A_ + prec.asarray(A * 1e-17 * rng.uniform(0.5, 1.0, A.shape))
            out.append(A_)
    return np.stack(Xs), np.stack(Ps)


class TestBatchedContract:
    """Every function of a problem acts node by node on (..., I, K) states."""

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_stack_equals_per_node_calls(self, name, prec):
        prob = build_problem(name, precision=prec)
        rng = np.random.default_rng([len(name), 7])
        for n in range(1, 5):
            X, P = node_stack(prob, n, rng)
            for levels in (1, 2):
                stacked = prob.derivatives(X, P, levels)
                nodes = [prob.derivatives(X[r], P[r], levels) for r in range(n)]
                assert len(stacked) == levels
                for level, got in enumerate(stacked):
                    for c in range(2):
                        assert got[c].shape == X.shape
                        assert words(got[c]) == words(np.stack([node[level][c] for node in nodes]))
        # more than one leading axis: the same values, node for node
        shape = (2, 2) + X.shape[1:]
        for got, want in zip(prob.derivatives(X.reshape(shape), P.reshape(shape), 2), stacked):
            assert [a.shape for a in got] == [shape] * 2
            assert [words(a) for a in got] == [words(a) for a in want]

    @staticmethod
    def reference_rhs(prob):
        """(first_rhs, second_rhs) of a catalog problem, written apart from
        its ``derivatives``: the linear problems' own pair, the n-body maps
        term by term, and the rest as they were before their maps were fused."""
        if prob.first_rhs is not None:
            return prob.first_rhs, prob.second_rhs
        if "masses" in prob.parameters:
            _, first_rhs, second_rhs, _ = reference_nbody(prob.parameters["masses"], prob.parameters["G"],
                                                           prob.precision)
            return first_rhs, second_rhs
        if prob.name.startswith("em_"):
            return reference_em(prob)
        return {"pendulum": reference_pendulum, "kepler": reference_kepler}[prob.name](prob)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_derivatives_force_and_velocity_give_the_rhs_words(self, name, prec):
        prob = build_problem(name, precision=prec)
        X, P = node_stack(prob, 3, np.random.default_rng([len(name), 11]))
        first_rhs, second_rhs = self.reference_rhs(prob)
        # the reference node by node: reference_nbody takes one (I, K) node
        D = [np.stack(c) for c in zip(*(first_rhs(X[r], P[r]) for r in range(3)))]
        S = [np.stack(c) for c in zip(*(second_rhs(X[r], P[r], D[0][r], D[1][r]) for r in range(3)))]
        (D1,) = prob.derivatives(X, P, 1)
        D2, S2 = prob.derivatives(X, P, 2)
        for got, want in ((D1, D), (D2, D), (S2, S)):
            assert [words(a) for a in got] == [words(a) for a in want]
        if prob.separable:
            assert words(prob.velocity(P)) == words(D[0]) and words(prob.force(X)) == words(D[1])

    # T of a four-step run that the block solver converges on at R = 2
    RUN_T = {"outer_solar": 200.0, "em_scb": 2e-3}

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_observables_stack_equals_per_node_calls(self, name, prec):
        """The Hamiltonian, the invariants and the exact solution, on the
        nodes of a short run and the initial node negated (its zeros -0.0)."""
        prob = build_problem(name, precision=prec)
        nodes = [(prec.real(0), -prob.x0, -prob.p0)]
        integrate(prob, "zds", 2, 4, self.RUN_T.get(name, 0.2),
                  observer=lambda idx, t, X, P: nodes.append((t, X.copy(), P.copy())))
        t = np.array([node[0] for node in nodes], dtype=prec.dtype)
        X, P = np.stack([node[1] for node in nodes]), np.stack([node[2] for node in nodes])
        n = len(nodes)
        assert n == 6
        shape = (2, 3) + X.shape[1:]  # more than one leading axis: the same values
        for inv in (InvariantSpec("H", prob.hamiltonian),) + prob.invariants:
            got = inv.evaluator(X, P)
            want = [inv.evaluator(Xr, Pr) for _, Xr, Pr in nodes]
            assert np.shape(got)[:1] == (n,) and words(got) == words(want), inv.name
            assert words(inv.evaluator(X.reshape(shape), P.reshape(shape))) == words(want)
        if prob.exact_solution is not None:
            got = prob.exact_solution(t)
            want = [prob.exact_solution(node[0]) for node in nodes]
            for c in range(2):
                assert got[c].shape == X.shape
                assert words(got[c]) == words(np.stack([pair[c] for pair in want]))
            for g, w in zip(prob.exact_solution(t.reshape(2, 3)), got):
                assert g.shape == shape and words(g) == words(w)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_collision_at_a_later_node_names_its_pair(self, prec):
        prob = make_three_body_eight(precision=prec)
        X = np.stack([prob.x0] * 3)
        X[1, :, 2] = X[1, :, 1]  # node 1: bodies 1 and 2
        X[2, :, 1] = X[2, :, 0]  # node 2: bodies 0 and 1
        P = np.stack([prob.p0] * 3)
        for call in (lambda: prob.force(X), lambda: prob.derivatives(X, P, 1), lambda: prob.derivatives(X, P, 2)):
            with pytest.raises(SingularityError, match="^bodies 1 and 2 collide$"):
                call()

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("name, node, message", [
        ("kepler", 1, r"^Kepler evaluation at \|x\| = 0$"),
        ("em_challenging", 2, "^EM challenging potential at x1 = 0$"),
    ])
    def test_pole_at_a_later_node(self, prec, name, node, message):
        prob = build_problem(name, precision=prec)
        X = np.stack([prob.x0] * 3)
        X[node, 0] = prec.real(0)
        P = np.stack([prob.p0] * 3)
        for levels in (1, 2):
            with pytest.raises(SingularityError, match=message):
                prob.derivatives(X, P, levels)
