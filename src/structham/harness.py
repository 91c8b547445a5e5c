"""Run/measure layer: error series, convergence orders, sweeps, drift, CSV.

A run integrates one (problem, scheme, R, N, T, precision) configuration and
measures every accepted node:

* position error against the closed-form solution when one exists (max over
  all nodes), or against a reference endpoint when only that is known;
* deviation of each conserved quantity from its initial value (vector
  invariants in max-norm), as a maximum over all nodes.

The integrators keep only the end nodes.  The observer stacks the accepted
nodes in chunks of CHUNK and takes the metrics per chunk, with one call of
the exact solution and of each invariant on the stack (see the problems
module) reduced by max_abs: the values of one call per node.

Iteration accounting follows nb_iter_avg = total_iter / N (total_iter counts
one initialization unit per block plus all fixed-point sweeps) and
nb_call_avg = R * nb_iter_avg for the structural schemes.  Stormer-Verlet
rows report right-hand-side evaluations per step instead: for a separable
problem the forces, one per stage and one at t = 0 (N * stages + 1 in all),
and for a non-separable one a call per fixed-point iteration and two
explicit calls per stage.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import integrate_sv
from .blocksolver import DivergenceError, NonConvergenceError, SolverConfig, checked_step, integrate
from .numerics import PRECISIONS, max_abs
from .problems import PROBLEM_NAMES, SingularityError, build_problem, lrl_scalar, project_lrl
from .secoeff import ConfigurationError

__all__ = [
    "RunConfig",
    "ErrorReport",
    "run",
    "convergence_order",
    "sweep",
    "SweepResult",
    "CSV_COLUMNS",
]

STRUCTURAL_SCHEMES = ("zd", "zds")
SV_SCHEMES = ("sv2", "sv4", "sv6", "sv8")
NOISE_ULPS = 8  # roundoff per step, in units of u, below which a sweep prints no order
CHUNK = 256  # accepted nodes per evaluation of the metrics

CSV_COLUMNS = [
    "problem", "scheme", "R", "precision", "N", "dt",
    "ex", "ordx", "eH", "ordH", "eL", "ordL", "eA", "ordA",
    "total_iter", "nb_iter_avg", "nb_call_avg", "status",
]


@dataclass(frozen=True)
class RunConfig:
    problem: str
    scheme: str
    N: int
    T: float
    R: int | None = None
    tol: float | None = None
    precision: str = "double"
    project_lrl: bool = False
    max_iter: int = 200

    def validated(self) -> "RunConfig":
        if self.problem not in PROBLEM_NAMES:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.scheme not in STRUCTURAL_SCHEMES + SV_SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.scheme in STRUCTURAL_SCHEMES:
            if self.R is None or self.R < 1:
                raise ConfigurationError(f"scheme {self.scheme} requires a block size R >= 1")
        elif self.R is not None:
            raise ConfigurationError(f"scheme {self.scheme} does not take a block size R")
        checked_step(self.N, self.T, 1)
        if self.precision not in PRECISIONS:
            raise ConfigurationError(f"unknown precision {self.precision!r}")
        if self.project_lrl and self.problem != "kepler":
            raise ConfigurationError("LRL projection applies to the kepler problem only")
        if self.project_lrl and self.scheme in SV_SCHEMES:
            raise ConfigurationError(f"LRL projection applies to the structural schemes only, not {self.scheme}")
        SolverConfig(tol=self.tol, max_iter=self.max_iter)  # checks tol and max_iter
        return self


@dataclass
class ErrorReport:
    dt: float
    errors: dict = field(default_factory=dict)  # keys among 'x', 'H', 'L', 'A'
    total_iter: int = 0
    nb_iter_avg: float = 0.0
    nb_call_avg: float = 0.0
    drift: dict = field(default_factory=dict)  # quantity -> list[(t, deviation)]
    scales: dict = field(default_factory=dict)  # quantity -> magnitude (max |X| over the nodes, or q at t=0)


class _ChunkedMetrics:
    """Observer that stacks the accepted nodes 0, 1, ..., N and takes the
    metrics of each chunk of them in one vectorized call per quantity."""

    def __init__(self, problem, N, T, drift, samples):
        self.problem = problem
        dtype = problem.precision.dtype
        self.t = np.empty(CHUNK, dtype)
        self.X = np.empty((CHUNK,) + problem.x0.shape, dtype)
        self.P = np.empty_like(self.X)
        self.n = 0  # nodes in the chunk
        self.done = 0  # nodes of earlier chunks: node j of this one has index done + j
        # position references, used without an exact solution; by time, so
        # that the last hit is the last node's, as node by node
        refs = [r for r in problem.reference_values if r.quantity == "x"]
        self.refs = [] if problem.exact_solution else sorted(refs, key=lambda r: r.t)
        self.ref_tol = 1e-9 * max(1.0, T)
        self.x_err = None  # max position error, or the error at the last reference time
        self.x_scale = 0.0  # max |X| over the nodes so far
        self.q0 = {}  # name -> the first node's value, shaped (m,)
        self.max_dev = {inv.name: 0.0 for inv in problem.invariants}
        self.series = {inv.name: [] for inv in problem.invariants if inv.name in drift}
        if self.series:  # the ascending node indices the series sample
            self.picks = np.unique(np.round(np.linspace(0, N, min(samples, N + 1))).astype(int))

    def __call__(self, idx, t, X, P):
        n = self.n
        self.t[n], self.X[n], self.P[n] = t, X, P
        self.n = n + 1
        if self.n == CHUNK:
            self.flush()

    def flush(self):
        n, first = self.n, self.done
        if not n:
            return
        t, X, P = self.t[:n], self.X[:n], self.P[:n]
        self.x_scale = max(self.x_scale, max_abs(X))
        if self.problem.exact_solution is not None:
            err = max_abs(X - self.problem.exact_solution(t)[0])
            self.x_err = err if self.x_err is None else max(self.x_err, err)
        for ref in self.refs:
            hit = np.flatnonzero(np.abs(t.astype(float) - ref.t) <= self.ref_tol)
            if hit.size:
                self.x_err = max_abs(X[hit[-1]] - self.problem.precision.real(ref.value))
        for inv in self.problem.invariants:
            q = np.reshape(inv.evaluator(X, P), (n, -1))
            if inv.name not in self.q0:
                self.q0[inv.name] = q[0].copy()
            dev = q - self.q0[inv.name]
            self.max_dev[inv.name] = max(self.max_dev[inv.name], max_abs(dev))
            if inv.name in self.series:
                picks = self.picks[(self.picks >= first) & (self.picks < first + n)] - first
                self.series[inv.name] += [(float(t[j]), max_abs(dev[j])) for j in picks]
        self.n, self.done = 0, first + n


def run(config: RunConfig, drift_quantities=(), drift_samples: int = 200) -> ErrorReport:
    """Integrate one configuration and collect error metrics.

    ``drift_quantities`` selects invariants whose deviation series is sampled
    at ``drift_samples`` evenly spaced nodes and returned in the report; a
    name that is not an invariant of the problem, or ``drift_samples`` below
    1, is a ConfigurationError raised before integrating.
    """
    config = config.validated()
    problem = build_problem(config.problem, PRECISIONS[config.precision])
    names = [inv.name for inv in problem.invariants]
    for quantity in drift_quantities:
        if quantity not in names:
            raise ConfigurationError(f"quantity {quantity!r} is not an invariant of "
                                     f"{config.problem} (available: {names})")
    if drift_samples < 1:
        raise ConfigurationError(f"need drift_samples >= 1, got drift_samples={drift_samples}")
    N, T = config.N, config.T
    dt = float(T) / N

    observer = _ChunkedMetrics(problem, N, T, drift_quantities, drift_samples)

    solver_cfg = SolverConfig(tol=config.tol, max_iter=config.max_iter)
    structural = config.scheme in STRUCTURAL_SCHEMES
    if structural:
        project = None
        if config.project_lrl:
            R0 = lrl_scalar(problem.x0[:, 0], problem.p0[:, 0])
            project = lambda X, P: project_lrl(X, P, R0)
        traj = integrate(
            problem, config.scheme, config.R, N, T,
            config=solver_cfg, observer=observer, project=project, store_every=N,
        )
    else:
        traj = integrate_sv(
            problem, int(config.scheme[2:]), N, T, solver_cfg, observer=observer, store_every=N
        )
    observer.flush()
    total_iter = traj.total_iter
    nb_iter_avg = total_iter / N
    nb_call_avg = config.R * nb_iter_avg if structural else traj.pe1_calls / N

    report = ErrorReport(
        dt=dt, total_iter=total_iter, nb_iter_avg=nb_iter_avg, nb_call_avg=nb_call_avg,
    )
    if observer.x_err is not None:
        report.errors["x"] = float(observer.x_err)
        report.scales["x"] = observer.x_scale
    for inv in problem.invariants:
        report.errors[inv.name] = float(observer.max_dev[inv.name])
        report.scales[inv.name] = max_abs(observer.q0[inv.name])
    report.drift = observer.series
    return report


def convergence_order(e1: float, e2: float, dt1: float, dt2: float) -> float:
    """log(e1/e2) / log(dt1/dt2); NaN when an error underflows the metric floor."""
    if dt1 <= 0 or dt2 <= 0 or dt1 == dt2:
        raise ValueError("need positive, distinct step sizes")
    if e1 <= 0 or e2 <= 0:
        return math.nan
    return math.log(e1 / e2) / math.log(dt1 / dt2)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.5e}"
    return str(value)


@dataclass
class SweepResult:
    rows: list

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS) + "\n")
        return buf.getvalue()


def _report_row(config, report) -> dict:
    row = {
        "problem": config.problem,
        "scheme": config.scheme,
        "R": config.R,
        "precision": config.precision,
        "N": config.N,
        "dt": float(config.T) / config.N,
        "status": "ok",
    }
    if report is not None:
        for q in ("x", "H", "L", "A"):
            if q in report.errors:
                row["e" + q] = report.errors[q]
        row["total_iter"] = report.total_iter
        row["nb_iter_avg"] = report.nb_iter_avg
        row["nb_call_avg"] = report.nb_call_avg
    return row


def sweep(base: RunConfig, Ns) -> SweepResult:
    """Run ``base`` at each N (strictly ascending) and tabulate errors with orders.

    A row whose run fails in the solver (NonConvergenceError, DivergenceError
    or SingularityError) is tagged in the status column and the sweep
    continues; order entries compare successive successful rows.  Any other
    error, a ConfigurationError such as N < R included, propagates.
    An order is left empty, as for an unavailable quantity, when both errors
    are roundoff: at most NOISE_ULPS N u (u the unit roundoff) times the
    quantity's scale (``ErrorReport.scales``).
    """
    Ns = list(Ns)
    if any(a >= b for a, b in zip(Ns, Ns[1:])):
        raise ConfigurationError("Ns must be strictly ascending")
    rows = []
    prev = None  # (dt, errors) of last successful row
    for N in Ns:
        config = replace(base, N=N).validated()
        try:
            report = run(config)
        except (NonConvergenceError, DivergenceError, SingularityError) as err:
            row = _report_row(config, None)
            row["status"] = f"error: {type(err).__name__}"
            rows.append(row)
            continue
        row = _report_row(config, report)
        dt = row["dt"]
        floor = NOISE_ULPS * N * PRECISIONS[config.precision].eps / 2
        noise = {q: e <= floor * report.scales[q] for q, e in report.errors.items()}
        if prev is not None:
            pdt, perrs, pnoise = prev
            for q in ("x", "H", "L", "A"):
                if q in report.errors and q in perrs and not (noise[q] and pnoise[q]):
                    row["ord" + q] = convergence_order(perrs[q], report.errors[q], pdt, dt)
        prev = (dt, dict(report.errors), noise)
        rows.append(row)
    return SweepResult(rows)
