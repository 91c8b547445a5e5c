"""Block fixed-point engine for the ZD/ZDS structural schemes.

One implicit solve advances the trajectory R steps at a time.  The unknowns
are the position and momentum blocks (values plus first, and for ZDS second,
derivative approximations at the R future nodes).  Each fixed-point sweep
alternates:

* a structural update -- new Z blocks from the coefficient table, pure
  linear algebra, no physics;
* a physical update -- derivative blocks refreshed from the problem's
  Hamiltonian right-hand sides, no discretization; one call per level
  evaluates all R nodes.

The x and p blocks use the same structural coefficients and couple only
through the physical equations, so a block is one phase-space array ``Y`` of
shape (2, L*(R+1), I, K): x then p, body space (K bodies in dimension I) last,
and for the L levels Z, D (and, for ZDS, S) the rows

    Z_0 | D_0, D_1..D_R | (S_0, S_1..S_R) | Z_1..Z_R

(node 0 is the anchor).  The structural update applies the table's matrix C
to the rows before Z_1..Z_R, for x and p together.  An anchor stacks its
values as (2, L, I, K); the ``Zx`` .. ``Sp`` attributes are views.

A block writes its anchor rows once, in the predictor; no sweep touches
them.  Each sweep takes one max-norm of the change of Z, which is also its
finiteness test: Z is finite on entry (the predictor and every accepted
sweep checked it), so a finite norm proves the new Z finite.  Only a
non-finite norm, which an overflowing difference of finite values also
gives, needs a scan of the new Z.

A problem in extended precision solves each block in two phases, as in
mixed-precision iterative refinement.  Its float64 twin
(``problem.native``) presolves the block from the rounded anchor, with the
same sweep loop on a float64 table; the lifted result is then polished by
sweeps in the problem's precision, which alone decide convergence and get
the full iteration budget.  A twin that is wrong, or a float64 phase that
diverges, costs sweeps, not accuracy.  Both kinds of sweep count in
``IterStats``, and the lift's PE refresh counts as one sweep, so that
every sweep makes R node evaluations per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import NATIVE, Precision, all_finite, max_abs
from .secoeff import CoeffTable, ConfigurationError, Formulation, coeff_table

__all__ = [
    "SolverConfig",
    "IterStats",
    "BlockAnchor",
    "BlockState",
    "Trajectory",
    "NonConvergenceError",
    "DivergenceError",
    "make_anchor",
    "init_block",
    "se_update",
    "pe_update",
    "solve_block",
    "integrate",
]


class NonConvergenceError(RuntimeError):
    """Fixed point failed to meet the tolerance within the iteration cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(RuntimeError):
    """Non-finite values or runaway growth during a block solve."""


@dataclass
class SolverConfig:
    tol: float | None = None  # None: precision default (1e-14 double, 1e-30 ddouble)
    max_iter: int = 200
    precision: Precision = NATIVE
    growth_limit: float = 1e6

    def resolved_tol(self) -> float:
        return self.precision.default_tol if self.tol is None else self.tol


@dataclass
class IterStats:
    """Fixed-point effort for one block: sweeps and PE calls.

    Sweeps exclude the predictor's Taylor step, but include a float64
    presolve's sweeps and its refresh (see ``init_block``).
    """

    iterations: int = 0
    pe1_calls: int = 0
    second: bool = False  # second derivatives evaluated (ZDS)

    @property
    def pe2_calls(self) -> int:
        return self.pe1_calls if self.second else 0


class _PhaseSpace:
    """Views Zx .. Sp into a stacked array; ``level(s)`` gives (x, p) of level s."""

    def _view(self, s: int, c: int):
        return self.level(s)[c] if s < self.levels else None

    Zx = property(lambda self: self._view(0, 0))
    Zp = property(lambda self: self._view(0, 1))
    Dx = property(lambda self: self._view(1, 0))
    Dp = property(lambda self: self._view(1, 1))
    Sx = property(lambda self: self._view(2, 0))
    Sp = property(lambda self: self._view(2, 1))


def _pairs(Zx, Zp, Dx, Dp, Sx, Sp):
    return [(Zx, Zp), (Dx, Dp)] + ([(Sx, Sp)] if Sx is not None else [])


class BlockAnchor(_PhaseSpace):
    """Known values at the block's entry node t_n, stacked as ``W`` (2, L, I, K)."""

    def __init__(self, t, Zx, Zp, Dx, Dp, Sx=None, Sp=None):
        self.t = t
        self.W = np.stack([np.stack(pair) for pair in _pairs(Zx, Zp, Dx, Dp, Sx, Sp)], axis=1)

    @classmethod
    def stacked(cls, t, W: np.ndarray) -> "BlockAnchor":
        anchor = cls.__new__(cls)
        anchor.t, anchor.W = t, W
        return anchor

    @property
    def levels(self) -> int:
        return self.W.shape[1]

    def level(self, s: int) -> np.ndarray:
        return self.W[:, s]


class BlockState(_PhaseSpace):
    """One block's stacked array ``Y`` (layout in the module docstring).

    ``Z`` (2, R, I, K) and ``DS`` (2, L-1, R+1, I, K: per derivative level
    the anchor, then the R nodes) are views into ``Y``.
    """

    def __init__(self, Zx, Zp, Dx, Dp, Sx=None, Sp=None):
        pairs = _pairs(Zx, Zp, Dx, Dp, Sx, Sp)
        self._allocate(len(pairs), len(Zx), Zx[0])
        for s, pair in enumerate(pairs):
            self.level(s)[...] = pair

    @classmethod
    def empty(cls, levels: int, R: int, like: np.ndarray) -> "BlockState":
        """Unfilled block for node values shaped and typed like ``like``."""
        state = cls.__new__(cls)
        state._allocate(levels, R, like)
        return state

    def _allocate(self, levels, R, like):
        self.levels = levels
        self.sweeps = 0  # spent by the predictor (see init_block)
        self.Y = np.empty((2, levels * (R + 1)) + like.shape, dtype=like.dtype)
        self.DS = self.Y[:, 1:-R].reshape((2, levels - 1, R + 1) + like.shape)
        self.Z = self.Y[:, -R:]

    def set_anchor(self, W: np.ndarray) -> None:
        self.Y[:, 0], self.DS[:, :, 0] = W[:, 0], W[:, 1:]

    def level(self, s: int) -> np.ndarray:
        return self.DS[:, s - 1, 1:] if s else self.Z

    def node(self, r: int) -> np.ndarray:
        """Copy of the values at block node r (0-based), stacked like an anchor."""
        return np.concatenate([self.Z[:, r, None], self.DS[:, :, r + 1]], axis=1)


def make_anchor(problem, t, X, P, formulation) -> BlockAnchor:
    """Anchor with derivatives computed from the physical equations at (X, P)."""
    form = Formulation.parse(formulation)
    Dx, Dp = problem.first_rhs(X, P)
    Sx = Sp = None
    if form is Formulation.ZDS:
        Sx, Sp = problem.second_rhs(X, P, Dx, Dp)
    return BlockAnchor(t=t, Zx=X, Zp=P, Dx=Dx, Dp=Dp, Sx=Sx, Sp=Sp)


def init_block(
    anchor: BlockAnchor, problem, table: CoeffTable, config: SolverConfig | None = None
) -> BlockState:
    """Predicted block with its derivatives refreshed from the PE.

    Without a float64 twin (``problem.native`` is None): a Taylor predictor
    swept node by node in the problem's precision.  With one: the float64
    phase of the two-phase solve (module docstring).  The anchor is rounded
    to float64, and the Taylor predictor and the sweep loop run on the twin
    and its float64 table until the change is at most max(tol, 1e-14) or
    stops falling.  The last finite iterate is lifted to the problem's
    precision and the PE refreshed once.  Should the float64 predictor go
    non-finite, the Taylor predictor in the problem's precision is used.

    ``state.sweeps`` counts the float64 sweeps plus one for the refresh (0
    without a presolve); each made R PE calls.  ``config`` defaults to the
    precision's.
    """
    if problem.native is not None:
        if config is None:
            config = SolverConfig(precision=problem.precision)
        state = _presolve(anchor, problem, table, config)
        if state is not None:
            return state
    return _taylor(anchor, problem, table)


def _taylor(anchor: BlockAnchor, problem, table: CoeffTable) -> BlockState:
    R = table.R
    dt = problem.precision.real(table.dt)
    second = table.has_second
    half_dt2 = dt * dt * 0.5 if second else None

    state = BlockState.empty(anchor.levels, R, anchor.Zx)
    state.set_anchor(anchor.W)
    Zb, DS = state.Z, state.DS
    Z, D = anchor.level(0), anchor.level(1)
    S = anchor.level(2) if second else None
    for r in range(R):
        Z = Z + dt * D
        if second:
            Z = Z + half_dt2 * S
        if not all_finite(Z):
            raise DivergenceError(f"non-finite predictor value at block node {r + 1}")
        Zb[:, r] = Z
        D = DS[:, 0, r + 1]
        D[0], D[1] = problem.first_rhs(Z[0], Z[1])
        if second:
            S = DS[:, 1, r + 1]
            S[0], S[1] = problem.second_rhs(Z[0], Z[1], D[0], D[1])
    return state


def _presolve(anchor: BlockAnchor, problem, table: CoeffTable, config: SolverConfig):
    # the float64 phase of init_block; None when its predictor goes non-finite
    twin = problem.native
    table64 = coeff_table(table.R, table.formulation, table.dt, NATIVE)
    anchor64 = BlockAnchor.stacked(anchor.t, NATIVE.asarray(anchor.W))
    stats64 = IterStats()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            state64 = _taylor(anchor64, twin, table64)
        except DivergenceError:
            return None
        tol64 = max(config.resolved_tol(), NATIVE.default_tol)
        _sweep(twin, table64, state64, stats64, tol64, config, anchor64, presolve=True)

        state = BlockState.empty(anchor.levels, table.R, anchor.Zx)
        state.set_anchor(anchor.W)
        state.Z[...] = problem.precision.asarray(state64.Z)
        Zx, Zp = state.Z
        pe_update(problem, Zx, Zp, table.has_second, out=state.DS[:, :, 1:])
    state.sweeps = stats64.iterations + 1
    return state


def se_update(table: CoeffTable, state: BlockState) -> np.ndarray:
    """New Z block from the structural equations (no physics evaluated).

    Applies the table's matrix C to ``Y``; the (2, R, I, K) result unpacks
    as ``Zx, Zp``.  The anchor rows of ``Y`` are written once per block, by
    ``init_block`` (or ``set_anchor``), and no sweep writes them.  The
    products are summed strictly in column order by ``np.add.accumulate``:
    matmul and sum may pair the terms differently depending on how Y lies in
    memory, while this order gives the same bits every time and, at R = 1,
    those of the term-by-term formula.
    """
    m = table.C.shape[1]
    terms = table.C[:, :, None, None] * state.Y[:, None, :m]
    return np.add.accumulate(terms, axis=2)[:, :, -1]


def pe_update(problem, Zx_blk: np.ndarray, Zp_blk: np.ndarray, second: bool, out=None):
    """Derivative blocks refreshed from the physical equations at all R nodes.

    One ``first_rhs`` call (and, if ``second``, one ``second_rhs`` call)
    takes the (R, I, K) node blocks at once; the right-hand sides act node
    by node.  D (and S) are written into ``out`` -- (2, L-1, R, I, K), such
    as the node part of ``BlockState.DS`` -- or into a new array.  Returns
    views (Dx, Dp, Sx, Sp) into it and the node evaluations per level, R.
    """
    shape = Zx_blk.shape
    ox, op = np.empty((2, 1 + second) + shape, dtype=Zx_blk.dtype) if out is None else out
    Dx, Dp = problem.first_rhs(Zx_blk, Zp_blk)
    if getattr(Dx, "shape", None) != shape or getattr(Dp, "shape", None) != shape:
        _refuse_node_block(problem, "first_rhs", shape, Dx, Dp)
    ox[0], op[0] = Dx, Dp
    if not second:
        return ox[0], op[0], None, None, len(Zx_blk)
    Sx, Sp = problem.second_rhs(Zx_blk, Zp_blk, Dx, Dp)
    if getattr(Sx, "shape", None) != shape or getattr(Sp, "shape", None) != shape:
        _refuse_node_block(problem, "second_rhs", shape, Sx, Sp)
    ox[1], op[1] = Sx, Sp
    return ox[0], op[0], ox[1], op[1], len(Zx_blk)


def _refuse_node_block(problem, name: str, shape: tuple, a, b):
    # a right-hand side written for one (I, K) node would broadcast node 0's
    # values over the whole block
    raise ConfigurationError(
        f"{problem.name} {name} returned shapes {np.shape(a)} and {np.shape(b)} for "
        f"node block {shape}: right-hand sides must act node by node on (..., I, K) states"
    )


def solve_block(anchor: BlockAnchor, problem, table: CoeffTable, config: SolverConfig):
    """Fixed-point solve of one R-block.

    Alternates se_update / pe_update from the predictor (``init_block``)
    until the max-norm difference of successive Z blocks (positions and
    momenta, all nodes) drops to tol.  The returned state satisfies the
    physical equations exactly at every node and the structural equations
    to tolerance.  Only these sweeps, in the problem's precision, decide
    convergence; they get the full ``max_iter`` budget after the predictor.
    """
    # overflow during a diverging sweep is expected and handled via the
    # finiteness checks; keep numpy quiet about it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = init_block(anchor, problem, table, config)
        stats = IterStats(state.sweeps, table.R * (1 + state.sweeps), table.has_second)
        _sweep(problem, table, state, stats, config.resolved_tol(), config, anchor)
    return state, stats


def _sweep(problem, table: CoeffTable, state: BlockState, stats: IterStats, tol: float,
           config: SolverConfig, anchor: BlockAnchor, presolve: bool = False):
    """Sweeps on ``state`` until the change is at most tol; counts them in ``stats``.

    A non-finite block, a norm grown more than ``growth_limit``-fold in one
    sweep, or ``max_iter`` sweeps without convergence raise.  A
    ``presolve`` (the float64 phase) raises none of these: it drops the
    failing sweep, keeping the last finite iterate, and also stops once the
    change stops falling.
    """
    second = table.has_second
    Z, derivs = state.Z, state.DS[:, :, 1:]
    Zx, Zp = Z

    scale_ref = max(max_abs(anchor.level(0)), 1.0)
    prev_norm = max_abs(Z)
    diff = prev_diff = math.inf
    for _ in range(config.max_iter):
        Z_new = se_update(table, state)
        # both components enter the stopping norm: the x-block alone can
        # stagnate for one sweep of the alternating map while p still moves;
        # a finite diff proves Z_new finite (module docstring)
        diff = max_abs(Z_new - Z)
        if not math.isfinite(diff) and not all_finite(Z_new):
            if presolve:
                return
            raise DivergenceError("non-finite block value during fixed-point sweep")
        if diff > tol:  # checked before Z is overwritten: a presolve keeps it
            norm = max_abs(Z_new)
            if norm > config.growth_limit * max(prev_norm, scale_ref):
                if presolve:
                    return
                raise DivergenceError(
                    f"block norm grew from {prev_norm:.3e} to {norm:.3e} in one sweep"
                )
            prev_norm = norm
        Z[...] = Z_new
        stats.pe1_calls += pe_update(problem, Zx, Zp, second, out=derivs)[-1]
        stats.iterations += 1
        if diff <= tol or presolve and diff >= prev_diff:
            return
        prev_diff = diff
    if presolve:
        return
    raise NonConvergenceError(
        f"fixed point not converged after {config.max_iter} sweeps (last change "
        f"{diff:.3e} in positions and momenta over all {table.R} block nodes, "
        f"tol {tol:.1e})",
        residual=diff,
    )


@dataclass
class Trajectory:
    """Recorded nodes plus aggregate fixed-point effort for one integration."""

    times: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    n_steps: int = 0
    r_block: int = 0
    n_blocks: int = 0
    total_sweeps: int = 0
    pe1_calls: int = 0
    second: bool = False  # second derivatives evaluated (ZDS)

    @property
    def pe2_calls(self) -> int:
        """Second right-hand-side evaluations: ``pe1_calls`` for ZDS, else 0."""
        return self.pe1_calls if self.second else 0

    @property
    def total_iter(self) -> int:
        """Fixed-point iterations including one initialization unit per block."""
        return self.total_sweeps + self.n_blocks


def integrate(
    problem,
    formulation,
    R: int,
    N: int,
    T: float,
    config: SolverConfig | None = None,
    observer=None,
    project=None,
    store_every: int = 1,
) -> Trajectory:
    """Advance the problem over [0, T] in N uniform steps by R-sized blocks.

    The trajectory has N+1 nodes including t=0.  When R does not divide N the
    final block uses a freshly assembled table of size N mod R.  ``observer``
    (if given) receives every accepted node as (step_index, t, X, P).
    ``project``, if set, maps (X, P) -> (X, P) after each accepted node; the
    anchor of the next block is then rebuilt from the projected state.
    ``store_every`` decimates what the returned Trajectory keeps (metrics
    consumers should stream through observers instead).
    """
    form = Formulation.parse(formulation)
    if config is None:
        config = SolverConfig(precision=problem.precision)
    if config.precision is not problem.precision:
        raise ConfigurationError(
            f"solver precision {config.precision.name} does not match "
            f"problem precision {problem.precision.name}"
        )
    if N < 1 or not 0 < float(T) < math.inf:
        raise ConfigurationError(f"need N >= 1 and finite T > 0, got N={N}, T={T}")
    if N < R:
        raise ConfigurationError(f"need N >= R, got N={N}, R={R}")
    if store_every < 1:
        raise ConfigurationError(f"need store_every >= 1, got store_every={store_every}")

    precision = problem.precision
    dt = float(T) / N
    dt_scalar = precision.real(dt)
    main_table = coeff_table(R, form, dt, precision)

    X = problem.x0
    P = problem.p0
    anchor = make_anchor(problem, precision.real(0), X, P, form)
    traj = Trajectory(n_steps=N, r_block=R, pe1_calls=1, second=form is Formulation.ZDS)

    def record(idx, t, Xv, Pv):
        if observer is not None:
            observer(idx, t, Xv, Pv)
        if idx % store_every == 0 or idx == N:
            traj.times.append(float(t))
            traj.xs.append(Xv.copy())
            traj.ps.append(Pv.copy())

    record(0, anchor.t, X, P)

    step = 0
    while step < N:
        r_this = min(R, N - step)
        table = main_table if r_this == R else coeff_table(r_this, form, dt, precision)
        try:
            state, stats = solve_block(anchor, problem, table, config)
        except (NonConvergenceError, DivergenceError) as err:
            err.args = (f"block starting at step {step}: {err}",)  # keeps .residual
            raise
        traj.n_blocks += 1
        traj.total_sweeps += stats.iterations
        traj.pe1_calls += stats.pe1_calls

        Xl = Pl = None
        for r in range(1, r_this + 1):
            idx = step + r
            t_r = precision.real(idx) * dt_scalar
            Xr, Pr = state.Zx[r - 1], state.Zp[r - 1]
            if project is not None:
                Xr, Pr = project(Xr, Pr)
            record(idx, t_r, Xr, Pr)
            Xl, Pl = Xr, Pr

        step += r_this
        if project is not None:
            anchor = make_anchor(problem, precision.real(step) * dt_scalar, Xl, Pl, form)
            traj.pe1_calls += 1
        else:
            anchor = BlockAnchor.stacked(
                precision.real(step) * dt_scalar, state.node(r_this - 1)
            )
    return traj
