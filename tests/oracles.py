"""Shared independent oracles used by solver and acceptance tests."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from structham.blocksolver import (
    _PROBE_STEP,
    GROWTH_LIMIT,
    DivergenceError,
    NonConvergenceError,
    init_block,
    pe_update,
)
from structham.numerics import NATIVE, all_finite, log as nlog, max_abs, sin_cos, sqrt as nsqrt
from structham.problems import _EYE3, SingularityError, _at, _has_zero, _lift, _mv, _vec
from structham.secoeff import Formulation


def coefficient_blocks(table):
    """The named coefficients of ``table``, read as column blocks of -C:
    b_z | b_d, B_d | (b_s, B_s), the last two None for ZD."""
    M, R = -table.C, table.R
    second = table.formulation is Formulation.ZDS
    return SimpleNamespace(b_z=M[:, 0], b_d=M[:, 1], B_d=M[:, 2:R + 2],
                           b_s=M[:, R + 2] if second else None, B_s=M[:, R + 3:] if second else None)


def probe_linear_rhs(problem):
    """Extract the (2n x 2n) matrix of a problem with a linear first-order right-hand side."""
    n = problem.x0.size
    shape = problem.x0.shape
    A = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        X = np.zeros(shape)
        P = np.zeros(shape)
        if j < n:
            X.flat[j] = 1.0
        else:
            P.flat[j - n] = 1.0
        (DX, DP), = problem.derivatives(X, P, 1)
        A[:n, j] = DX.ravel()
        A[n:, j] = DP.ravel()
    return A


def dense_block_oracle(problem, table, W):
    """Direct dense solve of the combined structural+physical linear system.

    Unknowns are node-major [Zx_r; Zp_r] stacked over r = 1..R; the physical
    equations enter through the probed linear map, the structural equations
    through kron products.  Entirely independent of the fixed-point path.
    ``W`` is the block's anchor, stacked as (2, L, I, K).
    """
    n = problem.x0.size
    R = table.R
    A = probe_linear_rhs(problem)
    Ex = np.hstack([np.eye(n), np.zeros((n, n))])
    Ep = np.hstack([np.zeros((n, n)), np.eye(n)])
    c = coefficient_blocks(table)
    B_d = np.asarray(c.B_d, float)
    M_x = np.kron(np.eye(R), Ex) + np.kron(B_d, Ex @ A)
    M_p = np.kron(np.eye(R), Ep) + np.kron(B_d, Ep @ A)
    (x0, p0), (dx0, dp0) = W[:, 0], W[:, 1]
    rhs_x = -(np.kron(c.b_z, x0.ravel()) + np.kron(c.b_d, dx0.ravel()))
    rhs_p = -(np.kron(c.b_z, p0.ravel()) + np.kron(c.b_d, dp0.ravel()))
    if c.B_s is not None:
        B_s = np.asarray(c.B_s, float)
        A2 = A @ A
        M_x += np.kron(B_s, Ex @ A2)
        M_p += np.kron(B_s, Ep @ A2)
        sx0, sp0 = W[:, 2]
        rhs_x -= np.kron(c.b_s, sx0.ravel())
        rhs_p -= np.kron(c.b_s, sp0.ravel())
    M = np.vstack([M_x, M_p])
    rhs = np.concatenate([rhs_x, rhs_p])
    W = np.linalg.solve(M, rhs)
    Zx = np.array([W[2 * n * r: 2 * n * r + n] for r in range(R)])
    Zp = np.array([W[2 * n * r + n: 2 * n * (r + 1)] for r in range(R)])
    return Zx, Zp


def _monomial_derivatives(rows: int, levels: int, nodes) -> np.ndarray:
    """d^s/dt^s [t**l] at t = nodes[i] in row l, column s*len(nodes) + i,
    as exact Python integers (object dtype)."""
    nodes = list(nodes)
    M = np.empty((rows, levels * len(nodes)), dtype=object)
    for ell in range(rows):  # monomial t**ell
        for s in range(levels):
            # falling factorial ell*(ell-1)*...*(ell-s+1)
            fall = 1
            for j in range(s):
                fall *= ell - j
            for i, r in enumerate(nodes):
                power = ell - s
                if power < 0 or fall == 0:
                    val = 0
                elif power == 0:
                    val = fall  # r**0 == 1, also at the node r = 0
                else:
                    val = fall * r**power
                M[ell, s * len(nodes) + i] = val
    return M


def _rational_kernel(reduced: np.ndarray) -> tuple[list[int], list[list[Fraction]]]:
    """Exact null space of an integer matrix by fraction-free Gauss-Jordan.

    Bareiss's elimination keeps every entry an integer (a minor of the
    input): each step replaces row i by (p * row_i - a_ic * pivot_row) / p',
    with p the new pivot and p' the previous one, and the division is exact.
    At the end every pivot row holds the last pivot d on its pivot column,
    so the reduced row echelon form is the integer matrix divided by d.
    Returns the free columns and, for each free column f, the kernel vector
    with 1 at f, 0 at the other free columns and -rref[i][f] at pivot i.
    """
    rows, cols = reduced.shape
    A = [[int(v) for v in row] for row in reduced]
    pivot_cols: list[int] = []
    prev = 1
    for col in range(cols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, rows) if A[i][col]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        top = A[rank]
        p = top[col]
        for i in range(rows):
            if i != rank:
                f = A[i][col]
                A[i] = [(p * a - f * b) // prev for a, b in zip(A[i], top)]
        prev = p
        pivot_cols.append(col)
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    kernel = []
    for f in free_cols:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, pc in zip(A, pivot_cols):
            v[pc] = Fraction(-row[f], prev)
        kernel.append(v)
    return free_cols, kernel


def _structural_kernel(R: int, form, order=slice(None)) -> tuple[list[int], list[list[Fraction]]]:
    """Exact kernel of the retained exactness rows (monomials up to the
    exactness degree on nodes 0..R) with columns taken in ``order``, by
    elimination: the oracle of ``secoeff._unit_table`` and ``kernel_basis``."""
    keep = form.levels * (R + 1) - R
    free, kernel = _rational_kernel(_monomial_derivatives(keep, form.levels, range(R + 1))[:, order])
    assert len(kernel) == R, f"kernel dimension {len(kernel)} != R={R} for {form.value}"
    return free, kernel


def _extrapolation_kernel(R: int, form) -> tuple[list[int], list[list[Fraction]]]:
    """Exact kernel over the extrapolation's node layout, by elimination: the
    2L monomials on nodes -1, 0, 1..R, columns the L levels at t = -1 and at
    t = 0, then the values at 1..R.  The kernel vector of free column Z_r is
    row r-1 of ``secoeff._unit_extrapolation``, negated, then e_r."""
    L = form.levels
    n = R + 2  # nodes -1, 0, 1..R
    order = [s * n + i for i in (0, 1) for s in range(L)] + list(range(2, n))
    return _rational_kernel(_monomial_derivatives(2 * L, L, range(-1, R + 1))[:, order])


def reference_se(state):
    """The structural product C Y as first written: a (2, R, columns, I, K)
    broadcast of fresh views, summed in column order."""
    C = state.table.C
    terms = C[:, :, None, None] * state.Y[:, None, :C.shape[1]]
    return np.add.accumulate(terms, axis=2)[:, :, -1]


def reference_predictor(state):
    """The extrapolated predictor E [prev | W] as first written, the same
    broadcast over ``state.H``."""
    terms = state.table.E[:, :, None, None] * state.H[:, None]
    return np.add.accumulate(terms, axis=2)[:, :, -1]


def reference_newton_matrix(state):
    """M^-1 for M = I - G' at the float64 block ``state`` as first written:
    every operand allocated per call, the probes z + diag(h) moved to node
    blocks, G' transposed and scaled, and [M | I] concatenated
    (``reference_inverse``)."""
    twin, table = state.problem, state.table
    Z, R = state.Z, table.R
    n, z = Z.size, Z.reshape(-1)
    h = (z + _PROBE_STEP * np.maximum(np.abs(z), 1.0)) - z  # exact: probe j is z + h_j e_j
    probes = np.moveaxis((z + np.diag(h)).reshape((n,) + Z.shape), 0, 1)
    nodes = probes.reshape((2, n * R) + Z.shape[2:])
    derivs = np.empty((2, state.levels - 1) + nodes.shape[1:])
    pe_update(twin, *nodes, tuple(zip(*derivs)))
    change = derivs.reshape(derivs.shape[:2] + (n,) + Z.shape[1:]) - state.DS[:, :, None, 1:]
    C_nodes = table.C[:, 1:].reshape(R, state.levels - 1, R + 1)[:, :, 1:]
    G_prime = np.einsum("rsq,csnq...->ncr...", C_nodes, change).reshape(n, n).T / h
    return reference_inverse(np.eye(n) - G_prime)


def reference_inverse(M):
    """M^-1 by Gauss-Jordan elimination with partial pivoting on a fresh
    [M | I]; None when M is singular or not finite."""
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


def reference_solve_block(state, config, se=None):
    """The fixed-point loop as first written, a drop-in for ``solve_block``.

    Every sweep copies the anchor into the anchor rows of ``Y``, scans the
    new Z block for finiteness before taking the change norm, and reads the
    growth norm back from the strided Z view.  While the block holds a
    float64 matrix M^-1 (a twin's from ``init_block``, or for a float64
    problem the one ``state`` held from its block before), a sweep is accepted
    only if the correction M^-1 times the change is within tol too;
    otherwise it steps by that correction, as long as the change at least
    halves and the corrected block passes the growth test.  The first time
    either fails, M is dropped.  A float64 problem's block without M builds
    one, at most once, after three plain sweeps in a row that each change
    more than 1e3 tol and by more than a tenth of the change before, when a
    sweep is left to use it; its probes count as sweeps, and the first
    corrected change need not halve the last plain one.  ``se``, if given,
    takes the place of the structural product, called as ``se(state)``.
    """
    problem, table, anchor = state.problem, state.table, state.W
    tol = config.resolved_tol(problem)
    second = table.formulation is Formulation.ZDS
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        init_block(state, config)
        # state.sweeps starts at the predictor's own sweeps (a float64 phase)
        Z, derivs = state.Z, state.DS[:, :, 1:]
        scale_ref = max(max_abs(anchor[:, 0]), 1.0)
        prev_norm = max_abs(Z)
        newton = state.newton
        had, diff, prev_diff, slow = newton is not None, math.inf, math.inf, 0

        def explain():
            theta = f"{diff / prev_diff:.3g}" if 0 < prev_diff < math.inf else "n/a"
            matrix = "held" if newton is not None else "dropped" if had else "none"
            return f"last contraction {theta}, Newton matrix {matrix}"

        for sweep in range(1, config.max_iter + 1):
            state.Y[:, 0], state.DS[:, :, 0] = anchor[:, 0], anchor[:, 1:]
            Z_new = (se or reference_se)(state)
            if not all_finite(Z_new):
                raise DivergenceError(f"non-finite block value during fixed-point sweep ({explain()})")
            prev_diff, diff = diff, max_abs(Z_new - Z)
            verdict = diff <= tol
            if newton is not None:
                change = np.asarray(Z_new - Z, dtype=float).ravel()
                correction = (newton * change).sum(axis=1).reshape(Z.shape)
                verdict = verdict and max_abs(correction) <= tol
                corrected = Z + correction
                bound = GROWTH_LIMIT * max(prev_norm, scale_ref)
                if not verdict and diff <= 0.5 * prev_diff and max_abs(corrected) <= bound:
                    Z_new = corrected
                elif not verdict:
                    newton = None
            Z[...] = Z_new
            levels = problem.derivatives(Z[0], Z[1], 2 if second else 1)
            derivs[0, 0], derivs[1, 0] = levels[0]
            if second:
                derivs[0, 1], derivs[1, 1] = levels[1]
            state.sweeps += 1
            if verdict:
                state.newton = newton
                return state
            norm = max_abs(Z)
            if norm > GROWTH_LIMIT * max(prev_norm, scale_ref):
                raise DivergenceError(
                    f"block norm grew from {prev_norm:.3e} to {norm:.3e} in one sweep ({explain()})"
                )
            prev_norm = norm
            if problem.precision is NATIVE and newton is None and slow is not None:
                slow = slow + 1 if diff > 0.1 * prev_diff and diff > 1e3 * tol else 0
                if slow == 3 and sweep < config.max_iter:
                    newton, slow = reference_newton_matrix(state), None
                    had = had or newton is not None
                    state.sweeps += Z.size
                    diff = math.inf
    raise NonConvergenceError(f"reference loop not converged (last change {diff:.3e})", diff)


# ---------------------------------------------------------------------------
# the physical equations as first_rhs and second_rhs, written before the
# catalog fused them into one ``derivatives`` per problem: references that
# the fused maps must match word for word
# ---------------------------------------------------------------------------

def reference_pendulum(problem):
    """The pendulum's (first_rhs, second_rhs) at ``problem``'s parameters."""
    m_, g_, l_ = (problem.parameters[k] for k in ("m", "g", "l"))
    ml2 = m_ * l_ * l_
    neg_mgl = -(m_ * g_ * l_)

    def first_rhs(X, P):
        return P / ml2, neg_mgl * np.sin(X)

    def second_rhs(X, P, DX, DP):
        return DP / ml2, neg_mgl * np.cos(X) * DX

    return first_rhs, second_rhs


def reference_kepler(problem):
    """Kepler's (first_rhs, second_rhs); ``problem`` has no parameters."""

    def _r3(X):
        # position components, r and r^3 per node
        x1, x2 = _at(X, 0, 0), _at(X, 1, 0)
        r2 = x1 * x1 + x2 * x2
        if _has_zero(r2):
            raise SingularityError("Kepler evaluation at |x| = 0")
        r = nsqrt(r2)
        return x1, x2, r, r2 * r

    def first_rhs(X, P):
        return P.copy(), -(X / _lift(_r3(X)[3], 2))

    def second_rhs(X, P, DX, DP):
        x1, x2, r, r3 = _r3(X)
        r5 = r3 * r * r
        dot = x1 * _at(DX, 0, 0) + x2 * _at(DX, 1, 0)
        SP = -(DX / _lift(r3, 2)) + X * _lift(3 * dot / r5, 2)
        return DP.copy(), SP

    return first_rhs, second_rhs


def reference_em(problem):
    """The EM particle's (first_rhs, second_rhs) at ``problem``'s variant,
    charge, mass and precision, each field function working out its own
    position data."""
    variant, precision = problem.parameters["variant"], problem.precision
    m_, e_ = problem.parameters["m"], problem.parameters["e"]
    zero = precision.real(0)
    one = precision.real(1)

    if variant == "scb":
        soft = precision.real("0.1")
        big = precision.real(1000)

        def _r2(x):
            x1, x2, x3 = _at(x, 0), _at(x, 1), _at(x, 2)
            return x1 * x1 + x2 * x2 + x3 * x3

        def grad_phi(x):
            r = nsqrt(_r2(x))
            c = 1 / (r * (soft + r) * (soft + r))
            return x * _lift(c, 1)

        def hess_phi(x):
            r2 = _r2(x)
            r = nsqrt(r2)
            sr = soft + r
            diag = 1 / (r * sr * sr)
            mix = 1 / (r2 * r * sr * sr) + 2 / (r2 * sr * sr * sr)
            return np.where(_EYE3, _lift(diag, 2), zero) - x[..., :, None] * x[..., None, :] * _lift(mix, 2)

        def vec_A(x):
            return _vec(x, zero, big * x[..., 0], zero)

        def jac_A(x):
            J = np.full(x.shape + (3,), zero, x.dtype)
            J[..., 1, 0] = big
            return J

        def hess_A(x):
            return np.full(x.shape + (3, 3), zero, x.dtype)

    else:
        def _trig(x):
            x1, x2, x3 = _at(x, 0), _at(x, 1), _at(x, 2)
            s1, c1 = sin_cos(x1)
            s2, c2 = sin_cos(x2)
            s3, c3 = sin_cos(x3)
            return s1, c1, s2, c2, s3, c3

        def grad_phi(x):
            s1, c1, s2, c2, s3, c3 = _trig(x)
            g = s2 * c2 + s3 * c3
            return _vec(
                x, 2 * s1 * c1 * (g - 2), s1 * s1 * (c2 * c2 - s2 * s2), s1 * s1 * (c3 * c3 - s3 * s3)
            )

        def hess_phi(x):
            s1, c1, s2, c2, s3, c3 = _trig(x)
            g = s2 * c2 + s3 * c3
            sin2x1 = 2 * s1 * c1
            cos2x2 = c2 * c2 - s2 * s2
            cos2x3 = c3 * c3 - s3 * s3
            H = np.empty(x.shape + (3,), x.dtype)
            H[..., 0, 0] = 2 * (c1 * c1 - s1 * s1) * (g - 2)
            H[..., 0, 1] = H[..., 1, 0] = sin2x1 * cos2x2
            H[..., 0, 2] = H[..., 2, 0] = sin2x1 * cos2x3
            H[..., 1, 1] = -2 * s1 * s1 * (2 * s2 * c2)
            H[..., 1, 2] = H[..., 2, 1] = zero
            H[..., 2, 2] = -2 * s1 * s1 * (2 * s3 * c3)
            return H

        def _q(x):
            x1, x2, x3 = _at(x, 0), _at(x, 1), _at(x, 2)
            if _has_zero(x1):
                raise SingularityError("EM challenging potential at x1 = 0")
            return x1, x2, x3, x1 * x1 + x2 * x2 + x3 * x3

        def vec_A(x):
            x1, x2, _, q = _q(x)
            return _vec(x, q, q * x2 / x1, -2 * nlog(1 + q))

        def jac_A(x):
            x1, x2, x3, q = _q(x)
            x1sq = x1 * x1
            tail = x2 * x2 + x3 * x3
            c = -4 / (1 + q)
            J = np.empty(x.shape + (3,), x.dtype)
            J[..., 0, :] = 2 * x
            J[..., 1, 0] = x2 - x2 * tail / x1sq
            J[..., 1, 1] = (q + 2 * x2 * x2) / x1
            J[..., 1, 2] = 2 * x2 * x3 / x1
            J[..., 2, :] = _lift(c, 1) * x
            return J

        def hess_A(x):
            x1, x2, x3, q = _q(x)
            x1sq = x1 * x1
            H = np.empty(x.shape + (3, 3), x.dtype)
            # A1 = r^2
            H[..., 0, :, :] = zero
            H[..., 0, 0, 0] = H[..., 0, 1, 1] = H[..., 0, 2, 2] = 2 * one
            # A2 = r^2 x2 / x1
            tail = x2 * x2 + x3 * x3
            H[..., 1, 0, 0] = 2 * x2 * tail / (x1sq * x1)
            H[..., 1, 0, 1] = H[..., 1, 1, 0] = one - (3 * x2 * x2 + x3 * x3) / x1sq
            H[..., 1, 0, 2] = H[..., 1, 2, 0] = -2 * x2 * x3 / x1sq
            H[..., 1, 1, 1] = 6 * x2 / x1
            H[..., 1, 1, 2] = H[..., 1, 2, 1] = 2 * x3 / x1
            H[..., 1, 2, 2] = 2 * x2 / x1
            # A3 = -2 log(1 + r^2)
            u = 1 + q
            a = -4 / u
            b = 8 / (u * u)
            H[..., 2, :, :] = np.where(_EYE3, _lift(a, 2), zero) + _lift(b, 2) * x[..., :, None] * x[..., None, :]
            return H

    def first_rhs(X, P):
        x = X[..., 0]
        dx = (P[..., 0] - e_ * vec_A(x)) / m_
        J = jac_A(x)
        dp = e_ * (_mv(J.swapaxes(-1, -2), dx) - grad_phi(x))
        return dx[..., None], dp[..., None]

    def second_rhs(X, P, DX, DP):
        x = X[..., 0]
        dx = DX[..., 0]
        J = jac_A(x)
        sx = (DP[..., 0] - e_ * _mv(J, dx)) / m_
        HA = hess_A(x)
        # w_ell: HA[j, ell, i] dx_i dx_j added onto zero over i, then j, in that order
        terms = HA.swapaxes(-3, -2).swapaxes(-2, -1) * dx[..., None, :, None] * dx[..., None, None, :]
        terms = terms.reshape(x.shape + (9,))
        terms[..., 0] = zero + terms[..., 0]
        w = np.add.accumulate(terms, axis=-1)[..., -1]
        sp = e_ * (_mv(J.swapaxes(-1, -2), sx) + w - _mv(hess_phi(x), dx))
        return sx[..., None], sp[..., None]

    return first_rhs, second_rhs
