"""Shared independent oracles used by solver and acceptance tests."""

import math

import numpy as np

from structham.blocksolver import GROWTH_LIMIT, DivergenceError, IterStats, NonConvergenceError, init_block
from structham.numerics import all_finite, max_abs


def probe_linear_rhs(problem):
    """Extract the (2n x 2n) matrix of a problem with linear first_rhs."""
    n = problem.dim * problem.nbodies
    shape = problem.x0.shape
    A = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        X = np.zeros(shape)
        P = np.zeros(shape)
        if j < n:
            X.flat[j] = 1.0
        else:
            P.flat[j - n] = 1.0
        DX, DP = problem.first_rhs(X, P)
        A[:n, j] = DX.ravel()
        A[n:, j] = DP.ravel()
    return A


def dense_block_oracle(problem, table, anchor):
    """Direct dense solve of the combined structural+physical linear system.

    Unknowns are node-major [Zx_r; Zp_r] stacked over r = 1..R; the physical
    equations enter through the probed linear map, the structural equations
    through kron products.  Entirely independent of the fixed-point path.
    """
    n = problem.dim * problem.nbodies
    R = table.R
    A = probe_linear_rhs(problem)
    Ex = np.hstack([np.eye(n), np.zeros((n, n))])
    Ep = np.hstack([np.zeros((n, n)), np.eye(n)])
    B_d = np.asarray(table.B_d, float)
    M_x = np.kron(np.eye(R), Ex) + np.kron(B_d, Ex @ A)
    M_p = np.kron(np.eye(R), Ep) + np.kron(B_d, Ep @ A)
    (x0, p0), (dx0, dp0) = anchor.level(0), anchor.level(1)
    rhs_x = -(np.kron(table.b_z, x0.ravel()) + np.kron(table.b_d, dx0.ravel()))
    rhs_p = -(np.kron(table.b_z, p0.ravel()) + np.kron(table.b_d, dp0.ravel()))
    if table.has_second:
        B_s = np.asarray(table.B_s, float)
        A2 = A @ A
        M_x += np.kron(B_s, Ex @ A2)
        M_p += np.kron(B_s, Ep @ A2)
        sx0, sp0 = anchor.level(2)
        rhs_x -= np.kron(table.b_s, sx0.ravel())
        rhs_p -= np.kron(table.b_s, sp0.ravel())
    M = np.vstack([M_x, M_p])
    rhs = np.concatenate([rhs_x, rhs_p])
    W = np.linalg.solve(M, rhs)
    Zx = np.array([W[2 * n * r: 2 * n * r + n] for r in range(R)])
    Zp = np.array([W[2 * n * r + n: 2 * n * (r + 1)] for r in range(R)])
    return Zx, Zp


def gram_eigenvalues(T: np.ndarray) -> list[float]:
    """Eigenvalues of T T^T, ascending, by cyclic Jacobi rotations in float64.

    Plain Python on the R x R Gram matrix, the loop that gave the package's
    tabulated cond(A_z) (``secoeff._CONDITION_AZ``) word for word.
    """
    A = (T[:, None, :] * T[None, :, :]).sum(axis=2).tolist()
    for _ in range(50):  # a sweep of rotations per pass; converges quadratically
        rotated = False
        for p in range(len(A) - 1):
            for q in range(p + 1, len(A)):
                Ap, Aq = A[p], A[q]
                if abs(Ap[q]) <= 1e-16 * math.sqrt(abs(Ap[p] * Aq[q])):
                    continue
                rotated = True
                zeta = (Aq[q] - Ap[p]) / (2.0 * Ap[q])
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for row in A:  # columns p and q, then rows p and q
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                A[p] = [c * a - s * b for a, b in zip(Ap, Aq)]
                A[q] = [s * a + c * b for a, b in zip(Ap, Aq)]
                A[p][q] = A[q][p] = 0.0
        if not rotated:
            break
    return sorted(A[k][k] for k in range(len(A)))


def condition_az(T) -> float:
    """cond(A_z) = sqrt((1 + s_max**2) / (1 + s_min**2)) over the singular values of T."""
    s2 = gram_eigenvalues(np.array(T, dtype=float))
    return math.sqrt((1 + s2[-1]) / (1 + s2[0]))


def reference_solve_block(anchor, problem, table, config, se=None):
    """The fixed-point loop as first written, a drop-in for ``solve_block``.

    Every sweep copies the anchor into the anchor rows of ``Y``, scans the
    new Z block for finiteness before taking the change norm, and reads the
    growth norm back from the strided Z view.  While the block holds its
    float64 matrix (``state.newton``, M^-1), a sweep is accepted only if the
    correction M^-1 times the change is within tol too; otherwise it steps
    by that correction, as long as the change at least halves and the
    corrected block passes the growth test.  The first time either fails,
    M is dropped.  ``se``, if given, takes the place of the structural
    product, called as ``se(table, state)``.
    """
    tol = config.resolved_tol(problem)
    second = table.has_second
    m = table.C.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        state = init_block(anchor, problem, table, config)
        # the predictor's own sweeps (a float64 presolve) count as sweeps
        stats = IterStats(state.sweeps, table.R * (1 + state.sweeps), second)
        Z, derivs = state.Z, state.DS[:, :, 1:]
        scale_ref = max(max_abs(anchor.level(0)), 1.0)
        prev_norm = max_abs(Z)
        diff = None
        newton, prev_diff = state.newton, math.inf
        for sweep in range(1, config.max_iter + 1):
            state.set_anchor(anchor.W)
            if se is None:
                terms = table.C[:, :, None, None] * state.Y[:, None, :m]
                Z_new = np.add.accumulate(terms, axis=2)[:, :, -1]
            else:
                Z_new = se(table, state)
            if not all_finite(Z_new):
                raise DivergenceError("non-finite block value during fixed-point sweep")
            diff = max_abs(Z_new - Z)
            verdict = diff <= tol
            if newton is not None:
                change = np.asarray(Z_new - Z, dtype=float).ravel()
                correction = (newton * change).sum(axis=1).reshape(Z.shape)
                verdict = verdict and max_abs(correction) <= tol
                corrected = Z + correction
                bound = GROWTH_LIMIT * max(prev_norm, scale_ref)
                if verdict:
                    newton = None
                elif diff <= 0.5 * prev_diff and max_abs(corrected) <= bound:
                    Z_new = corrected
                else:
                    newton = None
            prev_diff = diff
            Z[...] = Z_new
            Dx, Dp = problem.first_rhs(Z[0], Z[1])
            derivs[0, 0], derivs[1, 0] = Dx, Dp
            if second:
                derivs[0, 1], derivs[1, 1] = problem.second_rhs(Z[0], Z[1], Dx, Dp)
            stats.pe1_calls += table.R
            stats.iterations = state.sweeps + sweep
            if verdict:
                return state, stats
            norm = max_abs(Z)
            if norm > GROWTH_LIMIT * max(prev_norm, scale_ref):
                raise DivergenceError(
                    f"block norm grew from {prev_norm:.3e} to {norm:.3e} in one sweep"
                )
            prev_norm = norm
    raise NonConvergenceError(f"reference loop not converged (last change {diff:.3e})", diff)
