"""Block fixed-point engine for the ZD/ZDS structural schemes.

One implicit solve advances the trajectory R steps at a time.  The unknowns
are the position and momentum blocks (values plus first, and for ZDS second,
derivative approximations at the R future nodes).  Each fixed-point sweep
alternates:

* a structural update -- new Z blocks from the coefficient table, pure
  linear algebra, no physics;
* a physical update -- derivative blocks refreshed from the problem's
  Hamiltonian right-hand sides, no discretization; one call evaluates
  every level at all R nodes.

The x and p blocks use the same structural coefficients and couple only
through the physical equations, so a block is one phase-space array ``Y`` of
shape (2, L*(R+1), I, K): x then p, body space (K bodies in dimension I) last,
and for the L levels Z, D (and, for ZDS, S) the rows

    Z_0 | D_0, D_1..D_R | (S_0, S_1..S_R) | Z_1..Z_R

(node 0 is the anchor).  The structural update applies the table's matrix C
to the rows before Z_1..Z_R, for x and p together.  An anchor stacks its
values as (2, L, I, K).

``integrate`` allocates one ``BlockState`` per block size (and one for a
float64 twin): the workspace every block of that size writes in place.
The predictor writes the anchor rows, which no sweep touches, and Z; each
sweep the SE buffers, the float64 step and correction, Z and the node
derivatives; after the block, the hand-over copies its last node and the
node before into the next block's anchor and history.  A sweep takes the
max-norm of its step only, of both rows in one reduction while M is held.
The change's norm is also the finiteness test: Z is finite on entry, so a
finite norm proves the new Z finite; only a non-finite norm, which an
overflowing difference of finite values also gives, needs a scan of the
new Z.  The loop keeps no norm of the block: as |Z_new| <= |Z| + |step|,
only a step above half GROWTH_LIMIT times the anchor scale takes the
norms of Z and the new Z for the growth test, and as that scale is at
least 1, only a step above half GROWTH_LIMIT reads it (``_sweep``).

Every block after the first starts from the Hermite polynomial through
the previous node and the anchor, as implicit Runge-Kutta codes extrapolate
their last step (``init_block``).

One loop (``_sweep``) solves every block, at any precision, by sweeps
Z <- G(Z), G the sweep map (PE, then SE), corrected while a float64 matrix
M^-1 is held: Z <- Z + M^-1 (G(Z) - Z) (simplified Newton, M = I - G'
from probes of G; Hairer and Wanner, IV.8).  A sweep accepts the block when
its change G(Z) - Z, and while M is held the correction, is at most tol.  A
corrected change that does not at least halve, or a corrected block that is
not finite or outgrows the growth limit, drops M, and plain sweeps follow.
A float64 block whose plain sweeps contract slowly builds M from its own
sweep map and hands it to the next block of its state, so of its table.

A problem in extended precision has a float64 twin (``problem.native``),
and each of its blocks runs that loop twice, as in mixed-precision
iterative refinement: first the float64 block solve of the twin, from the
twin's predictor and an M built there, to max(tol, 1e-14), ended early by
any error it raises; then, from that solve's last finite iterate lifted
into the problem's precision, the block's own solve with the same M.  A
wrong twin costs sweeps, not accuracy.  Probes, float64 sweeps and the
lift's PE refresh each count in ``state.sweeps`` as one sweep of R node
evaluations per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import NATIVE, Precision, all_finite, max_abs
from .secoeff import CoeffTable, ConfigurationError, Formulation, coeff_table

__all__ = [
    "SolverConfig",
    "BlockState",
    "Trajectory",
    "NonConvergenceError",
    "DivergenceError",
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


# a sweep that grows the block's max-norm more than this factor diverges
GROWTH_LIMIT = 1e6
_UNIT_GATE = 0.5 * GROWTH_LIMIT  # the growth test's gate at anchor scale 1, the least scale


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of every implicit solve: a tolerance and a sweep cap.

    The working precision is the problem's.  ``tol`` None takes its default
    (1e-14 double, 1e-30 ddouble); ``precision``, if set, is only checked
    against it.  A tol that is not finite and positive, or a max_iter below
    1, is a ConfigurationError.
    """

    tol: float | None = None
    max_iter: int = 200
    precision: Precision | None = None

    def __post_init__(self):
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ConfigurationError(f"need a finite tol > 0, got tol={self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError(f"need max_iter >= 1, got max_iter={self.max_iter}")

    def resolved_tol(self, problem) -> float:
        """The tolerance for ``problem``; ConfigurationError if ``precision`` differs."""
        if self.precision is not None and self.precision is not problem.precision:
            raise ConfigurationError(
                f"solver precision {self.precision.name} does not match "
                f"problem precision {problem.precision.name}"
            )
        return problem.precision.default_tol if self.tol is None else self.tol


class BlockState:
    """The workspace of every block of one table in one integration, all
    allocated here and written in place by each block (module docstring).

    ``Y`` (layout in the module docstring) has the views ``Z`` (2, R, I, K)
    and ``DS`` (2, L-1, R+1, I, K: per derivative level the anchor, then
    the R nodes).  ``H`` is the predictor's input [``prev`` | ``W``], the
    anchor and, read while ``extrapolate`` is set, the node before it, each
    stacked as (2, L, I, K).  ``terms`` and ``sums`` hold the SE product
    and running sums; ``steps``, float64 at either precision, the step
    G(Z) - Z and its correction, also shaped like Z as ``step`` and
    ``correction``.  ``sweeps`` counts the block's sweeps of R PE nodes per
    level, probes included; ``newton`` is M^-1, which the sweeps may drop,
    build or hand on to the next block; ``twin`` is the float64 twin's
    state, if the problem has one.
    """

    def __init__(self, problem, table: CoeffTable):
        like, L, R = problem.x0, table.formulation.levels, table.R
        self.problem, self.table, self.levels = problem, table, L
        self.sweeps, self.newton, self.extrapolate = 0, None, False
        self.Y = np.empty((2, L * (R + 1)) + like.shape, dtype=like.dtype)
        self.DS = self.Y[:, 1:-R].reshape((2, L - 1, R + 1) + like.shape)
        self.Z = self.Y[:, -R:]
        self.H = np.zeros((2, 2 * L) + like.shape, dtype=like.dtype)  # a twin rounds all of it
        self.prev, self.W = self.H[:, :L], self.H[:, L:]
        self.terms = np.empty((2,) + table.C.shape + like.shape, dtype=like.dtype)
        self.sums = np.empty_like(self.terms)
        self.steps = np.empty((2, self.Z.size))
        self.step, self.correction = (row.reshape(self.Z.shape) for row in self.steps)
        self.twin = None if problem.native is None else BlockState(
            problem.native, coeff_table(R, table.formulation, table.dt, NATIVE))

    def start(self, X, P) -> None:
        """Anchor the next block at (X, P), with derivatives from the physical
        equations and no earlier node to extrapolate from."""
        self.W[0, 0], self.W[1, 0] = X, P
        pe_update(self.problem, self.W[:, None, 0], self.W[:, 1:, None])
        self.extrapolate = False

    def hand_on(self, nxt: BlockState) -> None:
        """Anchor ``nxt``, maybe this state, at this block's last node and the one before."""
        R = self.table.R
        if R > 1:
            nxt.prev[:, 0], nxt.prev[:, 1:] = self.Z[:, R - 2], self.DS[:, :, R - 1]
        else:  # the node before is this block's anchor
            nxt.prev[...] = self.W
        nxt.W[:, 0], nxt.W[:, 1:] = self.Z[:, R - 1], self.DS[:, :, R]
        nxt.extrapolate = True

    def load_anchor(self) -> None:
        """Copy the anchor ``W`` into the anchor rows of ``Y``."""
        self.Y[:, 0], self.DS[:, :, 0] = self.W[:, 0], self.W[:, 1:]


def init_block(state: BlockState, config: SolverConfig = SolverConfig()) -> None:
    """Predicted block with its derivatives refreshed from the PE, written
    into ``state`` from its anchor.

    The predictor evaluates the two-node Hermite polynomial through
    ``state.prev`` and the anchor (the table's ``E``) at the R nodes and
    refreshes them in one PE call.  Without ``state.extrapolate`` (the
    first block, or an anchor a projection moved), or when that is not
    finite, it takes Taylor steps node by node.  Without a float64 twin
    (``state.twin`` is None) it runs in the problem's precision.  With
    one, the float64 phase (module docstring): the twin's predictor from
    the rounded anchor and previous node; unless that leaves a non-finite
    derivative, M from one probe per unknown (2 R I K, one batched PE call;
    the base G(Z_0) is the first sweep's SE output); the float64 block
    solve (``_sweep``) to max(tol, 1e-14), ended by any error it raises;
    its last finite iterate lifted and its PE refreshed.  Should the float64
    predictor go non-finite, the predictor runs in the problem's precision.

    ``state.sweeps`` counts the probes, float64 sweeps and refresh, each R
    PE calls per level.  With a twin, ``state.newton`` becomes the M^-1
    built at the twin's predictor, or None; without one it is kept.
    """
    tol = config.resolved_tol(state.problem)
    twin = state.twin
    if twin is None:
        return _predict(state)
    twin.H[...], twin.extrapolate = state.H, state.extrapolate  # rounded as NATIVE.asarray rounds
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            _predict(twin)
        except DivergenceError:
            state.newton = None
            return _predict(state)
        twin.newton = None
        if all_finite(twin.DS):
            twin.sweeps = twin.Z.size  # one sweep per probe
            twin.newton = _newton_matrix(twin)
        newton = twin.newton
        try:
            _sweep(twin, max(tol, NATIVE.default_tol), config.max_iter)
        except (DivergenceError, NonConvergenceError):
            pass  # no refused sweep reaches Z: the last finite iterate is lifted
        state.load_anchor()
        state.Z[...] = state.problem.precision.asarray(twin.Z)
        pe_update(state.problem, state.Z, state.DS[:, :, 1:])
    state.sweeps, state.newton = twin.sweeps + 1, newton


def _predict(state: BlockState) -> None:
    # the predictor of init_block, in the state's precision
    state.sweeps = 0
    state.load_anchor()
    if state.extrapolate:
        # Z = E [prev | W], summed in column order as in se_update
        Z = np.add.accumulate(state.table.E[:, :, None, None] * state.H[:, None], axis=2)[:, :, -1]
        if all_finite(Z):
            state.Z[...] = Z
            pe_update(state.problem, state.Z, state.DS[:, :, 1:])
            return
    _taylor(state)


def _taylor(state: BlockState) -> None:
    problem, table = state.problem, state.table
    dt = problem.precision.real(table.dt)
    second = table.formulation is Formulation.ZDS
    half_dt2 = dt * dt * 0.5 if second else None
    Z, D = state.Y[:, 0], state.DS[:, 0, 0]
    S = state.DS[:, 1, 0] if second else None
    for r in range(table.R):
        Z = Z + dt * D
        if second:
            Z = Z + half_dt2 * S
        if not all_finite(Z):
            raise DivergenceError(f"non-finite predictor value at block node {r + 1}")
        state.Z[:, r] = Z
        pe_update(problem, state.Z[:, r, None], state.DS[:, :, r + 1, None])
        D = state.DS[:, 0, r + 1]
        if second:
            S = state.DS[:, 1, r + 1]


_PROBE_STEP = math.sqrt(NATIVE.eps)  # forward-difference step, relative to max(|z|, 1)
# the factor a corrected change must fall by to keep M: with a twin far too
# stiff, M^-1 ~ 1e-9 and the change falls by 1 - 1e-9 per sweep
_NEWTON_RATE = 0.5
# a run builds M (``_sweep``): single Kepler sweeps reach 0.24, slow pendulum blocks 11 over 0.1
_SLOW_RUN, _SLOW_RATE, _SLOW_FLOOR = 3, 0.1, 1e3


def _newton_matrix(state: BlockState):
    """M^-1 for M = I - G' at the float64 block ``state``; None when M is
    singular or not finite.

    Column j of G' is (G(Z + h_j e_j) - G(Z)) / h_j: C applied to the change
    of the node derivatives, SE being linear.
    """
    twin, table = state.problem, state.table
    Z, R = state.Z, table.R
    n, z = Z.size, Z.reshape(-1)
    h = (z + _PROBE_STEP * np.maximum(np.abs(z), 1.0)) - z  # exact: probe j is z + h_j e_j
    probes = np.moveaxis((z + np.diag(h)).reshape((n,) + Z.shape), 0, 1)
    nodes = probes.reshape((2, n * R) + Z.shape[2:])
    derivs = np.empty((2, state.levels - 1) + nodes.shape[1:])
    pe_update(twin, nodes, derivs)
    change = derivs.reshape(derivs.shape[:2] + (n,) + Z.shape[1:]) - state.DS[:, :, None, 1:]
    C_nodes = table.C[:, 1:].reshape(R, state.levels - 1, R + 1)[:, :, 1:]
    G_prime = np.einsum("rsq,csnq...->ncr...", C_nodes, change).reshape(n, n).T / h
    return _inverse(np.eye(n) - G_prime)


def _inverse(M: np.ndarray):
    """M^-1 by Gauss-Jordan elimination with partial pivoting; None when M is
    singular or not finite.  Elementwise numpy only: numpy.linalg would map
    LAPACK, about 1 MB of resident memory."""
    n = len(M)
    A = np.concatenate([M, np.eye(n)], axis=1)
    for j in range(n):
        p = j + np.abs(A[j:, j]).argmax()  # a NaN wins
        pivot = A[p, j]
        if not (pivot != 0.0 and math.isfinite(pivot)):
            return None
        if p != j:
            A[[j, p]] = A[[p, j]]
        row = A[j] / pivot
        A -= np.multiply.outer(A[:, j], row)
        A[j] = row
    inverse = A[:, n:]
    return inverse if all_finite(inverse) else None


def se_update(state: BlockState) -> np.ndarray:
    """New Z block from the structural equations (no physics evaluated).

    Applies the table's matrix C to ``Y``; the (2, R, I, K) result, a view
    into ``state.sums`` that the next call overwrites, unpacks as
    ``Zx, Zp``.  The anchor rows of ``Y`` are written once per block, by
    ``init_block``, and no sweep writes them.  The products are summed
    strictly in column order by ``np.add.accumulate``: matmul and sum may
    pair the terms differently depending on how Y lies in memory, while
    this order gives the same bits every time and, at R = 1, those of the
    term-by-term formula.
    """
    C = state.table.C
    np.multiply(C[:, :, None, None], state.Y[:, None, :C.shape[1]], out=state.terms)
    return np.add.accumulate(state.terms, axis=2, out=state.sums)[:, :, -1]


def pe_update(problem, Z: np.ndarray, out: np.ndarray) -> None:
    """Derivative blocks refreshed from the physical equations at all R nodes.

    One ``problem.derivatives`` call takes the (2, R, I, K) node block
    ``Z`` at once and acts node by node.  D (and, when ``out`` holds two
    levels, S) are written into ``out`` (2, L-1, R, I, K), such as the node
    part of ``BlockState.DS``.
    """
    Zx, Zp = Z[0], Z[1]  # two indexings: unpacking iterates and costs more
    shape, L = Zx.shape, out.shape[1]
    levels = problem.derivatives(Zx, Zp, L)
    Dx, Dp = levels[0]  # no loop over the levels: on a 1x1 state it costs as much as a ufunc
    if getattr(Dx, "shape", None) != shape or getattr(Dp, "shape", None) != shape:
        raise _node_block_error(problem, "D", shape, Dx, Dp)
    out[0, 0], out[1, 0] = Dx, Dp
    if L > 1:
        Sx, Sp = levels[1]
        if getattr(Sx, "shape", None) != shape or getattr(Sp, "shape", None) != shape:
            raise _node_block_error(problem, "S", shape, Sx, Sp)
        out[0, 1], out[1, 1] = Sx, Sp


def _node_block_error(problem, level: str, shape: tuple, a, b) -> ConfigurationError:
    # physical equations written for one (I, K) node would broadcast node 0's
    # values over the whole block
    return ConfigurationError(
        f"{problem.name} derivatives returned {level} shapes {np.shape(a)} and {np.shape(b)} for "
        f"node block {shape}: the physical equations must act node by node on (..., I, K) states"
    )


def solve_block(state: BlockState, config: SolverConfig = SolverConfig()) -> None:
    """Solve, in place, of the block anchored in ``state``.

    Alternates se_update / pe_update from the predictor (``init_block``)
    until the max-norm difference of successive Z blocks (positions and
    momenta, all nodes) drops to tol, the steps corrected through
    ``state.newton`` if set (module docstring).  The state then holds the
    SE output of that last sweep with the PE refreshed: it satisfies the
    physical equations exactly at every node and the structural equations
    to tolerance.  Only these sweeps, in the problem's precision, decide
    convergence, with the full ``max_iter`` budget after the predictor.
    A diverging sweep overflows: ``integrate`` silences numpy's warnings
    once for all its blocks.
    """
    init_block(state, config)
    _sweep(state, config.resolved_tol(state.problem), config.max_iter)


def _sweep(state: BlockState, tol: float, max_iter: int) -> None:
    """Sweeps on ``state`` until the change is at most tol, each added to
    ``state.sweeps``: the fixed-point loop of every block (module docstring).

    ``state.newton`` (M^-1) corrects the steps until it is dropped, and is
    left as the M^-1 still in use.  A float64 block without one builds one,
    once, after ``_SLOW_RUN`` plain sweeps in a row that fell by less than
    ``_SLOW_RATE`` to changes above ``_SLOW_FLOOR`` tol; its 2 R I K probes
    add to ``state.sweeps``.  A non-finite block, a norm grown more than
    ``GROWTH_LIMIT``-fold in one sweep, or ``max_iter`` sweeps raise, naming
    the last contraction factor and the fate of M; the refused sweep leaves
    Z as it was.

    No norm of the block is kept.  As |Z_new| <= |Z| + |step|, a sweep can
    pass the growth limit, GROWTH_LIMIT max(|Z|, scale), only by a step
    above (GROWTH_LIMIT - 1) scale, so only a step above the gate, 0.5
    GROWTH_LIMIT scale, takes the norms of Z and the candidate: the change
    on the plain path, the correction (whose norm the stop test reads too)
    on the corrected one.  The anchor's scale, max(|Y_0|, 1), is read only
    for a step past ``_UNIT_GATE``, the gate at scale 1.  An accepted
    correction is added to Z in place.
    """
    problem, Z, derivs, newton = state.problem, state.Z, state.DS[:, :, 1:], state.newton
    steps, step, correction = state.steps, state.step, state.correction
    slow = 0 if problem.precision is NATIVE else None  # slow plain sweeps in a row
    scale = None  # max(|anchor values|, 1), read at the first step past the unit gate
    diff = prev_diff = math.inf
    for _ in range(max_iter):
        if slow == _SLOW_RUN:
            slow, state.sweeps = None, state.sweeps + Z.size
            state.newton = newton = _newton_matrix(state)
            diff = math.inf  # the first corrected change need not halve the plain one
        Z_new = se_update(state)
        # both components enter the stopping norm: the x-block alone can
        # stagnate for one sweep of the alternating map while p still moves;
        # a finite change proves Z_new finite (module docstring).  A ddouble
        # step is rounded as NATIVE.asarray rounds it
        np.subtract(Z_new, Z, out=step, casting="unsafe")
        if newton is None:
            change = max_abs(step)
        else:  # the M^-1 step is float64 at any precision
            np.add.reduce(newton * steps[0], axis=1, out=steps[1])
            change, size = np.maximum.reduce(np.abs(steps), axis=1).tolist()
        if not math.isfinite(change) and not all_finite(Z_new):
            raise DivergenceError("non-finite block value during fixed-point sweep "
                                  f"({_verdict(diff, prev_diff, state.newton, newton)})")
        prev_diff, diff = diff, change
        done = diff <= tol
        if newton is not None:
            # the correction, too, bounds a corrected block's error: the map
            # moves x from p, and outer_solar's momenta (~1e-6) reach the
            # positions through dt/m ~ 5e4, so a change of 4e-31, all in p,
            # was followed by one of 9e-27
            done = done and size <= tol
            if not done:
                if not size <= _UNIT_GATE:
                    scale = scale or max(max_abs(state.Y[:, 0]), 1.0)
                # every comparison False for NaN: a NaN step drops M
                if diff <= _NEWTON_RATE * prev_diff and (size <= _UNIT_GATE * (scale or 1.0)
                        or max_abs(Z + correction) <= GROWTH_LIMIT * max(max_abs(Z), scale)):
                    Z += correction
                else:
                    newton = None
        if not done and newton is None and not diff <= _UNIT_GATE:  # a NaN change is tested
            scale = scale or max(max_abs(state.Y[:, 0]), 1.0)
            if not diff <= _UNIT_GATE * scale:
                old, norm = max_abs(Z), max_abs(Z_new)
                if norm > GROWTH_LIMIT * max(old, scale):
                    raise DivergenceError(
                        f"block norm grew from {old:.3e} to {norm:.3e} in one sweep "
                        f"({_verdict(diff, prev_diff, state.newton, newton)})"
                    )
        if done or newton is None:  # else Z holds the corrected step
            Z[...] = Z_new
        pe_update(problem, Z, derivs)
        state.sweeps += 1
        if done:
            state.newton = newton
            return
        if slow is not None and newton is None:
            slow = slow + 1 if diff > _SLOW_RATE * prev_diff and diff > _SLOW_FLOOR * tol else 0
    raise NonConvergenceError(
        f"fixed point not converged after {max_iter} sweeps (last change "
        f"{diff:.3e} in positions and momenta over all {state.table.R} block nodes, "
        f"tol {tol:.1e}; {_verdict(diff, prev_diff, state.newton, newton)})",
        residual=diff,
    )


def contraction(diff: float, prev_diff: float) -> str:
    """The last contraction factor diff / prev_diff of a fixed-point loop,
    as its errors print it ("n/a" while no finite change came before)."""
    theta = f"{diff / prev_diff:.3g}" if 0 < prev_diff < math.inf else "n/a"
    return f"last contraction {theta}"


def _verdict(diff: float, prev_diff: float, had, newton) -> str:
    matrix = "held" if newton is not None else "dropped" if had is not None else "none"
    return f"{contraction(diff, prev_diff)}, Newton matrix {matrix}"


@dataclass
class Trajectory:
    """Recorded nodes plus aggregate fixed-point effort for one integration."""

    times: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ps: list = field(default_factory=list)
    n_blocks: int = 0
    total_sweeps: int = 0
    pe1_calls: int = 0

    @property
    def total_iter(self) -> int:
        """Fixed-point iterations including one initialization unit per block."""
        return self.total_sweeps + self.n_blocks


def checked_step(N: int, T: float, store_every: int) -> float:
    """The step T / N of a run over [0, T] in N steps that keeps every
    ``store_every``-th node; ConfigurationError unless N >= 1, T is finite
    and positive, and store_every >= 1."""
    if N < 1 or not 0 < float(T) < math.inf:
        raise ConfigurationError(f"need N >= 1 and finite T > 0, got N={N}, T={T}")
    if store_every < 1:
        raise ConfigurationError(f"need store_every >= 1, got store_every={store_every}")
    return float(T) / N


def node_recorder(traj: Trajectory, N: int, store_every: int, observer=None):
    """``record(idx, t, X, P)`` for the accepted node idx at time t: passes
    it to ``observer``, if given, and keeps it in ``traj`` when idx is a
    multiple of ``store_every`` or N."""

    def record(idx, t, X, P):
        if observer is not None:
            observer(idx, t, X, P)
        if idx % store_every == 0 or idx == N:
            traj.times.append(float(t))
            traj.xs.append(X.copy())
            traj.ps.append(P.copy())

    return record


def integrate(
    problem,
    formulation,
    R: int,
    N: int,
    T: float,
    config: SolverConfig = SolverConfig(),
    observer=None,
    project=None,
    store_every: int = 1,
) -> Trajectory:
    """Advance the problem over [0, T] in N uniform steps by R-sized blocks.

    The trajectory has N+1 nodes including t=0.  When R does not divide N the
    final block uses a freshly assembled table of size N mod R, with its own
    workspace, and starts without the full blocks' M.  ``observer`` (if
    given) receives every accepted node as (step_index, t, X, P); X and P
    may be views that later blocks overwrite.  ``project``, if set, maps
    (X, P) -> (X, P) after each accepted node; the anchor of the next block
    is then rebuilt from the projected state.  ``store_every`` decimates
    what the returned Trajectory keeps (metrics consumers should stream
    through observers instead).
    """
    form = Formulation.parse(formulation)
    dt = checked_step(N, T, store_every)
    if N < R:
        raise ConfigurationError(f"need N >= R, got N={N}, R={R}")

    precision = problem.precision
    dt_scalar = precision.real(dt)
    state = BlockState(problem, coeff_table(R, form, dt, precision))
    state.start(problem.x0, problem.p0)
    traj = Trajectory(pe1_calls=1)
    record = node_recorder(traj, N, store_every, observer)
    record(0, precision.real(0), problem.x0, problem.p0)

    step = 0
    # a diverging sweep overflows, and the finiteness checks handle it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while step < N:
            r_this = state.table.R
            try:
                solve_block(state, config)
            except (NonConvergenceError, DivergenceError) as err:
                err.args = (f"block starting at step {step}: {err}",)  # keeps .residual
                raise
            traj.n_blocks += 1
            traj.total_sweeps += state.sweeps
            traj.pe1_calls += r_this * (1 + state.sweeps)

            for r in range(1, r_this + 1):
                idx = step + r
                t_r = precision.real(idx) * dt_scalar
                Xr, Pr = state.Z[0, r - 1], state.Z[1, r - 1]
                if project is not None:
                    Xr, Pr = project(Xr, Pr)
                record(idx, t_r, Xr, Pr)

            step += r_this
            short = 0 < N - step < R  # the last block, with its own table and workspace
            nxt = BlockState(problem, coeff_table(N - step, form, dt, precision)) if short else state
            if project is not None:
                # a projected node is off the block's polynomial: no extrapolation
                nxt.start(Xr, Pr)
                traj.pe1_calls += 1
            elif step < N:
                state.hand_on(nxt)
            state = nxt
    return traj
