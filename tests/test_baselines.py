"""Stormer-Verlet and composition baseline tests."""

import inspect
import math

import numpy as np
import pytest

from structham.baselines import integrate_sv, sv_step_nonseparable, sv_step_separable, yoshida_schedule
from structham.blocksolver import DivergenceError, NonConvergenceError, SolverConfig
from structham.numerics import DDOUBLE, NATIVE, DoubleDouble
from structham.problems import (
    HamiltonianProblem,
    build_problem,
    make_em_particle,
    make_mass_spring,
    make_pendulum,
)
from structham.secoeff import ConfigurationError


class TestYoshidaSchedule:
    def test_order_two(self):
        assert yoshida_schedule(2) == (1.0,)

    def test_order_four_closed_form(self):
        gammas = yoshida_schedule(4)
        g1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        assert gammas[0] == pytest.approx(1.3512071919596578, rel=1e-15)
        assert gammas == pytest.approx((g1, 1 - 2 * g1, g1))
        assert sum(gammas) == pytest.approx(1.0, abs=1e-15)
        assert sum(g**3 for g in gammas) == pytest.approx(0.0, abs=1e-15)

    def test_stage_counts(self):
        assert [len(yoshida_schedule(k)) for k in (2, 4, 6, 8)] == [1, 3, 9, 27]

    def test_sum_to_one_all_orders(self):
        for k in (4, 6, 8):
            assert sum(yoshida_schedule(k)) == pytest.approx(1.0, abs=1e-14)

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            yoshida_schedule(3)
        with pytest.raises(ConfigurationError):
            yoshida_schedule(10)

    @pytest.mark.parametrize("order", [4, 6])
    def test_composition_raises_trapezoid_order(self, order):
        # composing the symmetric trapezoid map for dx/dt = x must reproduce
        # exp(t) at the schedule's order under step halving
        gammas = yoshida_schedule(order)

        def trapezoid(x, h):
            return x * (1.0 + 0.5 * h) / (1.0 - 0.5 * h)

        def solve(n):
            x, h = 1.0, 1.0 / n
            for _ in range(n):
                for g in gammas:
                    x = trapezoid(x, g * h)
            return abs(x - math.e)

        e1, e2 = solve(16), solve(32)
        measured = math.log(e1 / e2) / math.log(2.0)
        assert abs(measured - order) <= 0.4


def leapfrog(prob, X, P, dt):
    X, P, _ = sv_step_separable(prob, X, P, prob.force(X), dt)
    return X, P


def kick_drift_kick(prob, X, P, dt):
    """The leapfrog from three evaluations of D: kick at X, drift at P_half, kick at X'."""
    _, F0 = prob.derivatives(X, P, 1)[0]
    Ph = P + (0.5 * dt) * F0
    V, _ = prob.derivatives(X, Ph, 1)[0]
    Xn = X + dt * V
    _, F1 = prob.derivatives(Xn, Ph, 1)[0]
    return Xn, Ph + (0.5 * dt) * F1


def words(A):
    """Every float64 word of an array as hex: (hi, lo) for double-double."""
    return [(v.hi.hex(), v.lo.hex()) if isinstance(v, DoubleDouble) else float(v).hex() for v in A.ravel()]


class TestSeparableStep:
    def test_hand_example(self):
        prob = make_mass_spring()
        force, forces = prob.force, []
        prob.force = lambda X: forces.append(X) or force(X)
        X, P, F = sv_step_separable(prob, prob.x0, prob.p0, force(prob.x0), 0.1)
        assert float(X[0, 0]) == pytest.approx(0.995)
        assert float(P[0, 0]) == pytest.approx(-0.09975)
        assert len(forces) == 1 and forces[0] is X and words(F) == words(force(X))

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    @pytest.mark.parametrize("name, T", [("outer_solar", 2000.0), ("pendulum", 4.0), ("kepler", 1.0)])
    def test_first_same_as_last_equals_kick_drift_kick(self, name, T, prec):
        # one force per stage, the last one carried into the next stage, gives
        # every word of the three-call leapfrog at every node
        prob = build_problem(name, prec)
        N, gammas = 6, yoshida_schedule(4)
        traj = integrate_sv(prob, 4, N, T)
        X, P = prob.x0, prob.p0
        for n in range(1, N + 1):
            for g in gammas:
                X, P = kick_drift_kick(prob, X, P, g * (T / N))
            assert words(traj.xs[n]) == words(X) and words(traj.ps[n]) == words(P)
        assert traj.pe1_calls == N * len(gammas) + 1

    def test_zero_step_identity(self):
        prob = make_pendulum()
        X, P = leapfrog(prob, prob.x0, prob.p0, 0.0)
        assert np.array_equal(np.asarray(X, float), np.asarray(prob.x0, float))
        assert np.array_equal(np.asarray(P, float), np.asarray(prob.p0, float))

    def _one_step_matrix(self, dt):
        prob = make_mass_spring()
        M = np.zeros((2, 2))
        for j, (x, p) in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            X, P = leapfrog(prob, np.array([[x]]), np.array([[p]]), dt)
            M[0, j] = X[0, 0]
            M[1, j] = P[0, 0]
        return M

    @pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 1.9])
    def test_oscillator_spectrum_on_unit_circle(self, dt):
        M = self._one_step_matrix(dt)
        for lam in np.linalg.eigvals(M):
            assert abs(abs(lam) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dt", [0.05, 0.37, 1.4])
    def test_symplecticity_determinant(self, dt):
        assert abs(np.linalg.det(self._one_step_matrix(dt)) - 1.0) <= 1e-12

    def test_reversibility(self):
        prob = make_pendulum()
        X, P = leapfrog(prob, prob.x0, prob.p0, 0.2)
        X, P = leapfrog(prob, X, P, -0.2)
        assert float(np.max(np.abs(X - prob.x0))) <= 1e-12
        assert float(np.max(np.abs(P - prob.p0))) <= 1e-12


def make_shear_problem():
    # H = (p - x)^2 / 2 is non-separable with exact flow
    # x(t) = x0 + (p0 - x0) t, p(t) = p0 + (p0 - x0) t
    def first_rhs(X, P):
        v = P - X
        return v, v

    def second_rhs(X, P, DX, DP):
        z = np.zeros_like(X)
        return z, z

    return HamiltonianProblem(
        name="shear",
        x0=np.array([[0.5]]), p0=np.array([[1.25]]),
        hamiltonian=lambda X, P: 0.5 * float((P[0, 0] - X[0, 0]) ** 2),
        first_rhs=first_rhs,
        second_rhs=second_rhs,
    )


class TestNonSeparableStep:
    def test_reduces_to_leapfrog_on_separable(self):
        prob = make_pendulum()
        Xa, Pa = leapfrog(prob, prob.x0, prob.p0, 0.1)
        (Xb, Pb, iters, _) = sv_step_nonseparable(prob, prob.x0, prob.p0, 0.1, tol=1e-14)
        assert float(np.max(np.abs(Xa - Xb))) <= 1e-13
        assert float(np.max(np.abs(Pa - Pb))) <= 1e-13

    def test_shear_order_two(self):
        prob = make_shear_problem()
        c0 = 0.75  # p0 - x0

        def endpoint_error(n):
            X, P = prob.x0, prob.p0
            h = 1.0 / n
            for _ in range(n):
                X, P, _, _ = sv_step_nonseparable(prob, X, P, h, tol=1e-15)
            xe = 0.5 + c0 * 1.0
            pe = 1.25 + c0 * 1.0
            return max(abs(float(X[0, 0]) - xe), abs(float(P[0, 0]) - pe))

        e1, e2 = endpoint_error(8), endpoint_error(16)
        measured = math.log(e1 / e2) / math.log(2.0)
        assert abs(measured - 2.0) <= 0.4

    def test_iteration_cap_matches_the_integrator(self):
        # integrate_sv passes SolverConfig().max_iter; a direct call gets the same cap
        default = inspect.signature(sv_step_nonseparable).parameters["max_iter"].default
        assert default == SolverConfig().max_iter

    def test_em_scb_one_step_converges_at_fine_dt(self):
        prob = make_em_particle("scb")
        X, P, iters, calls = sv_step_nonseparable(prob, prob.x0, prob.p0, 1e-3, tol=1e-14)
        assert iters <= 120  # ~55 observed; the 1/(2 - dt L) contraction is slow
        assert np.all(np.isfinite(np.asarray(X, float)))

    def test_reversibility(self):
        prob = make_em_particle("challenging")
        tol = 1e-14
        X, P, _, _ = sv_step_nonseparable(prob, prob.x0, prob.p0, 0.01, tol=tol)
        X, P, _, _ = sv_step_nonseparable(prob, X, P, -0.01, tol=tol)
        assert float(np.max(np.abs(X - prob.x0))) <= 10 * tol
        assert float(np.max(np.abs(P - prob.p0))) <= 10 * tol


class TestIntegrateSV:
    def max_err(self, prob, traj):
        worst = 0.0
        for t, X in zip(traj.times, traj.xs):
            Xe, _ = prob.exact_solution(t)
            worst = max(worst, float(np.max(np.abs(X - Xe))))
        return worst

    def test_mass_spring_sv2_magnitude(self):
        # the printed second-order reference row uses a different 2nd-order
        # scheme, so only an order-of-magnitude match is expected
        prob = make_mass_spring()
        traj = integrate_sv(prob, 2, 960, 100.0)
        err = self.max_err(prob, traj)
        assert 2.18e-1 / 5 <= err <= 2.18e-1 * 5

    @pytest.mark.parametrize("order,Ns", [(2, (240, 480)), (4, (240, 480)),
                                          (6, (240, 480)), (8, (480, 960))])
    def test_composition_orders_on_mass_spring(self, order, Ns):
        # measured in the asymptotic regime (the coarsest grids are
        # pre-asymptotic for the low orders at this step size)
        prob = make_mass_spring()
        errs = []
        for N in Ns:
            traj = integrate_sv(prob, order, N, 100.0)
            errs.append(self.max_err(prob, traj))
        measured = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert abs(measured - order) <= 0.4

    def test_pendulum_long_run_no_secular_drift(self):
        prob = make_pendulum()
        H0 = float(prob.hamiltonian(prob.x0, prob.p0))
        halves = [0.0, 0.0]
        T, N = 10_000.0, 30_000

        def observer(idx, t, X, P):
            dev = abs(float(prob.hamiltonian(X, P)) - H0)
            halves[idx > N // 2] = max(halves[idx > N // 2], dev)

        integrate_sv(prob, 2, N, T, observer=observer, store_every=N)
        assert halves[1] <= 1.2 * halves[0]  # bounded, no secular growth

    def test_counters(self):
        prob = make_em_particle("challenging")
        traj = integrate_sv(prob, 2, 16, 0.125, SolverConfig(tol=1e-13))
        assert traj.total_sweeps > 0
        assert traj.pe1_calls > 0
        assert traj.total_iter == traj.total_sweeps  # no per-block init units

    @pytest.mark.parametrize("name", ["em_challenging", "pendulum"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_counted_calls_are_the_calls_made(self, name, order):
        # the non-separable step counts its iterations plus two, the calls
        # derivatives sees; the separable path one force per stage and one at
        # t = 0, the calls force sees
        prob = build_problem(name)
        stages = 16 * len(yoshida_schedule(order))
        attr = "force" if prob.separable else "derivatives"
        rhs, seen = getattr(prob, attr), []
        setattr(prob, attr, lambda *args: seen.append(1) or rhs(*args))
        traj = integrate_sv(prob, order, 16, 0.125, SolverConfig(tol=1e-13))
        assert traj.pe1_calls == len(seen) > 0
        if prob.separable:
            assert traj.pe1_calls == stages + 1
        else:
            assert traj.pe1_calls == traj.total_sweeps + 2 * stages

    def test_invalid_config(self):
        prob = make_mass_spring()
        with pytest.raises(ConfigurationError):
            integrate_sv(prob, 2, 0, 1.0)
        with pytest.raises(ConfigurationError):
            integrate_sv(prob, 5, 10, 1.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_span_rejected(self, T):
        with pytest.raises(ConfigurationError, match="finite T"):
            integrate_sv(make_mass_spring(), 6, 10, T)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_store_every_below_one_rejected(self, store_every):
        with pytest.raises(ConfigurationError, match="store_every >= 1"):
            integrate_sv(make_mass_spring(), 2, 10, 1.0, store_every=store_every)

    def test_non_finite_state_refused(self):
        # dt = 3 is past the leapfrog's stability limit 2 for omega = 1: the
        # state grows about 6.85-fold per step and overflows at step 369
        with pytest.raises(DivergenceError, match="^SV step 369: non-finite state in SV step$"):
            integrate_sv(make_mass_spring(), 2, 1000, 3000.0)

    def test_nonconvergence_keeps_its_residual(self):
        # the step prefix is added to the raised error itself, so the
        # residual its fixed point measured survives
        prob = build_problem("em_challenging")
        with pytest.raises(NonConvergenceError) as info:
            integrate_sv(prob, 2, 600, 5.0, SolverConfig(max_iter=2))
        err = info.value
        assert err.residual is not None and err.residual > prob.precision.default_tol
        assert str(err).startswith("SV step 1: SV momentum half-step fixed point not converged after 2 ")
        # and the contraction of its last two changes (n/a after one)
        assert f"(last change {err.residual:.3e}, last contraction 0.00482)" in str(err)

    @pytest.mark.parametrize("prec", [NATIVE, DDOUBLE], ids=["double", "ddouble"])
    def test_times_and_observer_nodes(self, prec):
        # kept nodes at idx * dt, as floats; the observer sees every node at
        # idx * dt in the problem's precision
        N, T, seen = 7, 0.7, []
        traj = integrate_sv(make_mass_spring(precision=prec), 4, N, T, store_every=3,
                            observer=lambda idx, t, X, P: seen.append((idx, t)))
        dt = T / N
        assert [t.hex() for t in traj.times] == [(n * dt).hex() for n in (0, 3, 6, 7)]
        assert len(traj.xs) == len(traj.ps) == 4
        assert seen == [(n, prec.real(n) * prec.real(dt)) for n in range(N + 1)]
