"""The four benchmark workloads.

Each workload is a closed loop: one process runs one fixed unit of work
(one or a few integrations) after another.  Inputs come only from the seed:
it perturbs the initial state within a narrow range, or picks the order
sweep's N grid.  ``setup`` builds the problems and the first coefficient
table; ``unit`` runs the timed work and returns one record per integration;
``check`` compares the records with references computed outside the timed
section and returns one failure message (or None) per record.
"""

from __future__ import annotations

import math

import numpy as np

from structham import baselines, blocksolver, harness, numerics, problems, secoeff

# An error or invariant deviation may grow to FACTOR times the largest value
# seen over seeds 0-9 at the commit that added this benchmark (BASELINE).
FACTOR = 10.0

BASELINE = {
    "pendulum-long": {"x": 1.036e-03, "p": 3.663e-04, "H": 1.388e-05},
    "solar-nbody": {"zds.x": 9.099e-08, "zds.H": 2.280e-17, "zds.L": 1.391e-14,
                    "sv6.x": 4.450e-06, "sv6.H": 1.446e-16, "sv6.L": 2.711e-19},
    "ddouble-oscillator": {"x": 4.386e-12},
    "order-sweep": {"x": 1.910e-14, "H": 2.365e-14},
}

SOLVER_ERRORS = (
    blocksolver.NonConvergenceError,
    blocksolver.DivergenceError,
    problems.SingularityError,
    secoeff.ConfigurationError,
)


def clear_caches() -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for module in (numerics, secoeff, problems, blocksolver, baselines, harness):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def invariant_observer(problem):
    """Observer tracking the largest deviation of each invariant from t=0.

    The evaluators are looked up when the observer is made, so a traced
    problem's wrapped evaluators are the ones called.
    """
    specs = problem.invariants
    start = [None] * len(specs)
    dev = {spec.name: 0.0 for spec in specs}

    def observe(idx, t, X, P):
        for k, spec in enumerate(specs):
            q = spec.evaluator(X, P)
            if start[k] is None:
                start[k] = q
            d = numerics.max_abs(q - start[k])
            if d > dev[spec.name]:
                dev[spec.name] = d

    return observe, dev


class Workload:
    name = ""
    why = ""
    instances: list  # HamiltonianProblem objects the benchmark built (traced in --trace 1)
    sv_steps = 0  # Störmer-Verlet steps per unit

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = np.random.default_rng([seed, 20250123])

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> list:
        raise NotImplementedError

    def measure(self, records) -> list:
        """Per record: a failure message, or the errors to hold against BASELINE."""
        raise NotImplementedError

    def check(self, records) -> list:
        """Per record: None when it passes, else the first failure message."""
        base = BASELINE[self.name]
        out = []
        for errors in self.measure(records):
            if isinstance(errors, str):
                out.append(errors)
                continue
            over = [f"{key} error {value:.3e} exceeds {FACTOR:g} x baseline {base[key]:.3e}"
                    for key, value in errors.items() if not value <= FACTOR * base[key]]
            out.append(over[0] if over else None)
        return out



class PendulumLong(Workload):
    name = "pendulum-long"
    why = ("1x1 state, ~16 sweeps per block: per-call overhead of the SE update and convergence check "
           "dominates")

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        eps, self.p0 = self.rng.uniform(-1e-3, 1e-3, 2)
        self.x0 = math.pi / 4 * (1.0 + eps)
        self.R, self.N, self.T = (1, 30, 10.0) if smoke else (1, 300, 100.0)

    def config(self):
        return {"problem": "pendulum", "scheme": "zds", "R": self.R, "N": self.N, "T": self.T,
                "precision": "double", "x0": self.x0, "p0": self.p0,
                "perturbation": "x0 = pi/4 (1 + e), p0 = d, |e|, |d| <= 1e-3"}

    def setup(self):
        self.problem = problems.make_pendulum(x0=self.x0, p0=self.p0)
        self.instances = [self.problem]
        secoeff.coeff_table(self.R, "zds", self.T / self.N)

    def unit(self):
        observe, dev = invariant_observer(self.problem)
        try:
            traj = blocksolver.integrate(
                self.problem, "zds", self.R, self.N, self.T, observer=observe, store_every=self.N
            )
        except SOLVER_ERRORS as err:
            return [{"error": f"{type(err).__name__}: {err}"}]
        return [{"x": float(traj.xs[-1][0, 0]), "p": float(traj.ps[-1][0, 0]), "H": dev["H"]}]

    def measure(self, records):
        from scipy.integrate import solve_ivp

        ref = solve_ivp(
            lambda t, y: [y[1], -math.sin(y[0])], (0.0, self.T), [self.x0, self.p0],
            method="DOP853", rtol=1e-13, atol=1e-13,
        ).y[:, -1]
        return [
            rec.get("error") or {"x": abs(rec["x"] - ref[0]), "p": abs(rec["p"] - ref[1]), "H": rec["H"]}
            for rec in records
        ]


class SolarNbody(Workload):
    name = "solar-nbody"
    why = ("6-body RHS dominates; ZDS R=2 then SV6 at the same N, so batching PE calls cannot slow the "
           "baseline unseen")

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.scale_x = 1.0 + self.rng.uniform(-1e-6, 1e-6, (3, 6))
        self.scale_p = 1.0 + self.rng.uniform(-1e-6, 1e-6, (3, 6))
        self.R, self.N, self.T = (2, 24, 1250.0) if smoke else (2, 480, 25000.0)
        self.sv_steps = self.N

    def config(self):
        return {"problem": "outer_solar", "schemes": ["zds", "sv6"], "R": self.R, "N": self.N,
                "T": self.T, "precision": "double",
                "perturbation": "each x0, p0 entry scaled by (1 + e), |e| <= 1e-6"}

    def setup(self):
        self.problem = problems.make_outer_solar()
        self.problem.x0 = self.problem.x0 * self.scale_x
        self.problem.p0 = self.problem.p0 * self.scale_p
        self.instances = [self.problem]
        secoeff.coeff_table(self.R, "zds", self.T / self.N)

    def unit(self):
        records = []
        for scheme in ("zds", "sv6"):
            observe, dev = invariant_observer(self.problem)
            try:
                if scheme == "zds":
                    traj = blocksolver.integrate(
                        self.problem, "zds", self.R, self.N, self.T, observer=observe, store_every=self.N
                    )
                else:
                    traj = baselines.integrate_sv(
                        self.problem, 6, self.N, self.T, observer=observe, store_every=self.N
                    )
            except SOLVER_ERRORS as err:
                records.append({"scheme": scheme, "error": f"{type(err).__name__}: {err}"})
                continue
            records.append({"scheme": scheme, "X": np.array(traj.xs[-1], dtype=float), **dev})
        return records

    def measure(self, records):
        from scipy.integrate import solve_ivp

        masses = np.array([float(m) for m in self.problem.parameters["masses"]])
        G = float(self.problem.parameters["G"])
        x0 = np.asarray(self.problem.x0, dtype=float)
        v0 = np.asarray(self.problem.p0, dtype=float) / masses

        def rhs(t, y):
            X = y[:18].reshape(3, 6)
            diff = X[:, None, :] - X[:, :, None]
            d2 = (diff * diff).sum(axis=0)
            np.fill_diagonal(d2, 1.0)
            w = G * masses[None, :] / (d2 * np.sqrt(d2))
            np.fill_diagonal(w, 0.0)
            return np.concatenate([y[18:], (w[None] * diff).sum(axis=2).ravel()])

        ref = solve_ivp(
            rhs, (0.0, self.T), np.concatenate([x0.ravel(), v0.ravel()]),
            method="DOP853", rtol=1e-13, atol=1e-15,
        ).y[:18, -1].reshape(3, 6)
        return [
            rec.get("error") or {
                f"{rec['scheme']}.x": float(np.max(np.abs(rec["X"] - ref))),
                f"{rec['scheme']}.H": rec["H"],
                f"{rec['scheme']}.L": rec["L"],
            }
            for rec in records
        ]


class DdoubleOscillator(Workload):
    name = "ddouble-oscillator"
    why = "only workload where DoubleDouble does the work: mass_spring in ddouble at criterion 12's step"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        eps, self.p0 = self.rng.uniform(-1e-3, 1e-3, 2)
        self.x0 = 1.0 + eps
        self.R, self.N, self.T = (2, 24, 1.0) if smoke else (2, 240, 10.0)

    def config(self):
        return {"problem": "mass_spring", "scheme": "zds", "R": self.R, "N": self.N, "T": self.T,
                "precision": "ddouble", "x0": self.x0, "p0": self.p0,
                "perturbation": "x0 = 1 + e, p0 = d, |e|, |d| <= 1e-3"}

    def setup(self):
        self.problem = problems.make_mass_spring(x0=self.x0, p0=self.p0, precision=numerics.DDOUBLE)
        self.instances = [self.problem]
        secoeff.coeff_table(self.R, "zds", self.T / self.N, numerics.DDOUBLE)

    def unit(self):
        problem = self.problem
        exact = problem.exact_solution
        worst = [0.0]

        def observe(idx, t, X, P):
            Xe, _ = exact(t)
            worst[0] = max(worst[0], numerics.max_abs(X - Xe))

        config = blocksolver.SolverConfig(precision=numerics.DDOUBLE)
        try:
            traj = blocksolver.integrate(
                problem, "zds", self.R, self.N, self.T, config=config, observer=observe
            )
        except SOLVER_ERRORS as err:
            return [{"error": f"{type(err).__name__}: {err}"}]
        xs = tuple((X[0, 0].hi, X[0, 0].lo) for X in traj.xs)
        return [{"x": worst[0], "xs": xs}]

    def measure(self, records):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 40
        dt = mp.mpf(self.T / self.N)
        x0, p0 = mp.mpf(self.x0), mp.mpf(self.p0)
        errs = {}
        out = []
        for rec in records:
            if "error" in rec:
                out.append(rec["error"])
                continue
            if rec["xs"] not in errs:
                errs[rec["xs"]] = float(max(
                    abs(mp.mpf(hi) + mp.mpf(lo) - (x0 * mp.cos(i * dt) + p0 * mp.sin(i * dt)))
                    for i, (hi, lo) in enumerate(rec["xs"])
                ))
            err_mp = errs[rec["xs"]]
            if abs(rec["x"] - err_mp) <= 1e-6 * err_mp + 1e-30:
                out.append({"x": err_mp})
            else:
                out.append(f"observer error {rec['x']:.6e} disagrees with mpmath {err_mp:.6e}")
        return out


# N = R * k.  These k keep R=12 inside the fixed point's convergence region
# (k >= 6 at T = 1).
SWEEP_KS = (8, 10, 13, 15)


class OrderSweep(Workload):
    name = "order-sweep"
    why = ("every row has a new dt and builds its table cold: the only workload where secoeff and the "
           "harness CSV path carry weight")

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.Rs, self.ks = ((4, 12), SWEEP_KS[:2]) if smoke else ((4, 6, 8, 10, 12), SWEEP_KS)
        # the seed moves the step grid dt = T / N through T, not N: other N
        # grids change the sweeps per block and so the work of a unit
        self.T = 1.0 + self.rng.uniform(0.0, 0.01)

    def config(self):
        return {"problem": "mass_spring", "scheme": "zds", "R": list(self.Rs), "T": self.T,
                "N": {R: [R * k for k in self.ks] for R in self.Rs}, "precision": "double",
                "perturbation": "T = 1 + e, 0 <= e < 0.01: a new dt grid per seed"}

    def table_keys(self) -> set:
        """Distinct (R, dt) pairs, i.e. the tables one unit must build."""
        return {(R, self.T / (R * k)) for R in self.Rs for k in self.ks}

    def setup(self):
        self.instances = []
        harness.build_problem("mass_spring")  # harness.run builds its own; this one is set-up cost
        R = self.Rs[0]
        secoeff.coeff_table(R, "zds", self.T / (R * self.ks[0]))

    def unit(self):
        clear_caches()
        records = []
        for R in self.Rs:
            Ns = [R * k for k in self.ks]
            base = harness.RunConfig("mass_spring", "zds", N=Ns[0], T=self.T, R=R)
            result = harness.sweep(base, Ns)
            lines = result.to_csv().splitlines()
            if lines[0] != ",".join(harness.CSV_COLUMNS) or len(lines) != len(result.rows) + 1:
                records.append({"error": "CSV header or row count does not match the sweep"})
                continue
            for row, line in zip(result.rows, lines[1:]):
                records.append({**row, "csv": line})
        return records

    def measure(self, records):
        out = []
        for rec in records:
            if "error" in rec:
                out.append(rec["error"])
                continue
            where = f"R={rec['R']} N={rec['N']}"
            fields = dict(zip(harness.CSV_COLUMNS, rec["csv"].split(",")))
            if rec["status"] != "ok":
                out.append(f"{where}: {rec['status']}")
            elif not abs(rec["nb_call_avg"] - rec["R"] * rec["nb_iter_avg"]) <= 1e-12 * rec["nb_call_avg"]:
                out.append(f"{where}: nb_call_avg != R x nb_iter_avg")
            elif int(fields["N"]) != rec["N"] or float(fields["ex"]) != float(f"{rec['ex']:.5e}"):
                out.append(f"{where}: CSV row does not match the sweep row")
            else:
                out.append({"x": rec["ex"], "H": rec["eH"]})
        return out


WORKLOADS = {cls.name: cls for cls in (PendulumLong, SolarNbody, DdoubleOscillator, OrderSweep)}
