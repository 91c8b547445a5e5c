"""Classical symplectic baselines: Stormer-Verlet raised by composition.

The separable path is the standard kick-drift-kick leapfrog, first same as
last: a stage's closing force opens the next one, so a composed step takes
one force per stage (Hairer, Lubich and Wanner, *Geometric Numerical
Integration*, II.4 and V.3).  The
non-separable path is the symmetric semi-implicit form (two adjoint
half-maps, each implicit relation solved by plain fixed point, for parity
with the structural solver's accounting), on D from the problem's
``derivatives`` at level 1.  Orders 4, 6 and 8 come from the
Yoshida triple jump applied recursively, so stage counts are 3, 9 and 27.
"""

from __future__ import annotations

import math

import numpy as np

from .blocksolver import (
    DivergenceError,
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    checked_step,
    contraction,
    node_recorder,
)
from .numerics import all_finite, max_abs
from .secoeff import ConfigurationError

__all__ = [
    "yoshida_schedule",
    "sv_step_separable",
    "sv_step_nonseparable",
    "integrate_sv",
]


def yoshida_schedule(order: int) -> tuple:
    """Triple-jump sub-step fractions for even orders 2..8.

    Order 2k+2 replays the order-2k schedule with weights
    g1 = 1/(2 - 2**(1/(2k+1))), g2 = 1 - 2 g1, g1; fractions sum to 1 and the
    order-4 jump satisfies sum of cubes = 0.
    """
    if order == 2:
        return (1.0,)
    if order not in (4, 6, 8):
        raise ConfigurationError(f"unsupported composition order {order}; use 2, 4, 6 or 8")
    inner = yoshida_schedule(order - 2)
    k = (order - 2) // 2
    g1 = 1.0 / (2.0 - 2.0 ** (1.0 / (2 * k + 1)))
    g2 = 1.0 - 2.0 * g1
    return tuple(w * g for w in (g1, g2, g1) for g in inner)


def sv_step_separable(problem, X, P, F, dt):
    """Kick-drift-kick leapfrog for H = T(P) + V(X); symmetric and symplectic.

    F is ``problem.force(X)``.  Returns (X', P', F') with F' = force(X'),
    the one force the step evaluates.
    """
    Ph = P + (0.5 * dt) * F
    Xn = X + dt * problem.velocity(Ph)
    Fn = problem.force(Xn)
    return Xn, Ph + (0.5 * dt) * Fn, Fn


def _fixed_point(update, start, tol, max_iter, tag):
    y = start
    iters = 0
    d = prev_d = math.inf
    while True:
        y_new = update(y)
        iters += 1
        if not all_finite(y_new):
            raise DivergenceError(f"non-finite value in SV {tag} ({contraction(d, prev_d)})")
        prev_d, d = d, max_abs(y_new - y)
        y = y_new
        if d <= tol:
            return y, iters
        if iters >= max_iter:
            raise NonConvergenceError(
                f"SV {tag} fixed point not converged after {max_iter} iterations "
                f"(last change {d:.3e}, {contraction(d, prev_d)})",
                residual=d,
            )


def sv_step_nonseparable(problem, X, P, dt, tol, max_iter=SolverConfig.max_iter):
    """Symmetric semi-implicit Stormer-Verlet step for general H(X, P).

    P_half solves  P_half = P + (dt/2) rhs_p(X, P_half)          (implicit),
    X' solves      X' = X + (dt/2)[rhs_x(X, P_half) + rhs_x(X', P_half)],
    then the mirrored momentum update is explicit.  For separable problems
    both implicit relations collapse and the step equals the leapfrog.
    Each relation may take ``max_iter`` iterations, ``integrate_sv``'s cap.

    Returns (X', P', fixed_point_iters, rhs_calls): one right-hand-side call
    per fixed-point iteration and the two explicit calls, fixed_point_iters + 2.
    """
    rhs = lambda x, p: problem.derivatives(x, p, 1)[0]  # D, the first-order right-hand side
    kick = lambda y: P + (0.5 * dt) * rhs(X, y)[1]
    Ph, it1 = _fixed_point(kick, P, tol, max_iter, "momentum half-step")

    A0, _ = rhs(X, Ph)
    drift = lambda y: X + (0.5 * dt) * (A0 + rhs(y, Ph)[0])
    Xn, it2 = _fixed_point(drift, X, tol, max_iter, "position half-step")

    _, Fp = rhs(Xn, Ph)
    Pn = Ph + (0.5 * dt) * Fp
    return Xn, Pn, it1 + it2, it1 + it2 + 2


def integrate_sv(
    problem,
    order: int,
    N: int,
    T: float,
    config: SolverConfig = SolverConfig(),
    observer=None,
    store_every: int = 1,
) -> Trajectory:
    """Composed Stormer-Verlet integration over [0, T] in N steps.

    ``config`` sets the implicit sub-steps' fixed points (non-separable
    path), as it sets the structural solver's block solves.  Counters match
    the harness accounting: total_sweeps accumulates the fixed-point
    iterations of the implicit sub-steps (zero on the separable path) and
    pe1_calls the right-hand-side evaluations, on the separable path the
    forces: one per stage and one at t = 0.
    """
    tol, max_iter = config.resolved_tol(problem), config.max_iter
    gammas = yoshida_schedule(order)
    dt = checked_step(N, T, store_every)
    real, dt_scalar = problem.precision.real, problem.precision.real(dt)

    X, P = problem.x0, problem.p0
    traj = Trajectory()
    record = node_recorder(traj, N, store_every, observer)
    record(0, real(0) * dt_scalar, X, P)
    # overflow in a diverging sub-step is handled by the finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        separable = problem.separable
        if separable:
            F = problem.force(X)
            traj.pe1_calls += 1
        for n in range(1, N + 1):
            try:
                for g in gammas:
                    h = g * dt
                    if separable:
                        X, P, F = sv_step_separable(problem, X, P, F, h)
                        traj.pe1_calls += 1
                    else:
                        X, P, iters, calls = sv_step_nonseparable(problem, X, P, h, tol, max_iter)
                        traj.total_sweeps += iters
                        traj.pe1_calls += calls
                if not (all_finite(X) and all_finite(P)):
                    raise DivergenceError("non-finite state in SV step")
            except (NonConvergenceError, DivergenceError) as err:
                err.args = (f"SV step {n}: {err}",)  # keeps .residual
                raise
            record(n, real(n) * dt_scalar, X, P)
    return traj
