"""Benchmark catalog: Hamiltonian systems with analytic derivative maps.

Every problem supplies the Hamiltonian, its physical equations as one map
``derivatives``: the first-order right-hand side D (dX/dt = grad_P H,
dP/dt = -grad_X H) and its analytic time derivative S (the second-order
right-hand side used by ZDS), the conserved quantities to monitor, and,
where available, a closed-form solution or reference endpoint positions.  S is
hand-coded per problem; a finite-difference test suite cross-checks them all.

States are body-space matrices of shape (I, K): K bodies in dimension I,
one column per body.  Scalar problems use (1, 1).  All numeric constants go
through the problem's precision backend so the same definitions run in
double or double-double arithmetic.

Every function of a problem acts node by node on states with any leading
axes, (..., I, K), and each node gets the bits a call on it alone gives.
The block solver passes a block's R nodes to the right-hand sides in one
call; the harness passes a chunk of accepted nodes to the Hamiltonian and
the invariants (a value or small vector per node) and their times, shaped
(...), to ``exact_solution``.  Index entries from the end, as X[..., i, k],
reduce over the last axes and let numpy broadcast; for H = |p|^2/2 +
sum x^4/4::

    hamiltonian = lambda X, P: (0.5 * (P * P) + 0.25 * (X * X * X * X)).sum(axis=(-2, -1))

    def derivatives(X, P, levels):
        D = P.copy(), -(X * X * X)
        return (D, (D[1].copy(), -(3 * X * X * D[0]))) if levels == 2 else (D,)

The maps are pure functions of the values passed in, and return arrays that
the caller owns.  A separable problem, H = T(P) + V(X), also has ``velocity``
(grad_P T) and ``force`` (-grad_X V), the leapfrog's maps.  The catalog's
nonlinear problems work out what D and S share once per ``derivatives`` call.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .numerics import NATIVE, PRECISIONS, Precision, log as nlog, sin_cos, sqrt as nsqrt
from .secoeff import ConfigurationError

__all__ = [
    "HamiltonianProblem",
    "InvariantSpec",
    "ReferenceValue",
    "SingularityError",
    "make_mass_spring",
    "make_two_spring",
    "make_pendulum",
    "pendulum_period",
    "make_kepler",
    "lrl_scalar",
    "lrl_gradient",
    "project_lrl",
    "make_nbody",
    "make_three_body_eight",
    "make_outer_solar",
    "make_em_particle",
    "PROBLEM_NAMES",
    "build_problem",
]


class SingularityError(RuntimeError):
    """Evaluation hit a pole of the problem (collision, x1 = 0, ...)."""


class InvariantSpec(NamedTuple):
    name: str  # 'H', 'L' or 'A'
    evaluator: Callable  # (X, P) -> scalar or small vector, per node of (..., I, K)


class ReferenceValue(NamedTuple):
    t: float
    value: object  # the position at t


@dataclass
class HamiltonianProblem:
    """``derivatives``, ``hamiltonian`` and the invariants act node by node
    on (..., I, K) states, and ``exact_solution`` on (...) times (see the
    module docstring): a stack of nodes gets, node for node, the words of a
    call on each one alone.  The sizes I and K and the precision, ``NATIVE``
    for float64 arrays and ``DDOUBLE`` for object ones (``DDOUBLE.asarray``),
    are read off ``x0``, which no field can contradict; ``p0`` has its shape
    and dtype, and any other dtype is a ValueError.

    ``derivatives(X, P, levels)`` returns the tuple (D,) or, at levels 2,
    (D, S), each an (X, P) pair.  A problem passes it or else ``first_rhs``
    (D) and ``second_rhs`` (S), which the default calls as the problem holds
    them at the call, so a wrapper set on either sees it.  The problem is
    separable when it has a ``force``; with no other map, D is then
    (velocity(P), force(X)).  With no S it refuses levels 2 (ZDS): a ConfigurationError."""

    name: str
    x0: np.ndarray
    p0: np.ndarray
    hamiltonian: Callable = field(repr=False, default=None)
    first_rhs: Callable | None = field(repr=False, default=None)
    second_rhs: Callable | None = field(repr=False, default=None)
    force: Callable | None = field(repr=False, default=None)  # X -> dP, for H = T(P) + V(X)
    velocity: Callable | None = field(repr=False, default=None)  # P -> dX, likewise
    derivatives: Callable = field(repr=False, default=None, compare=False)
    invariants: tuple = ()
    exact_solution: Callable | None = field(repr=False, default=None)
    reference_values: tuple = ()
    parameters: dict = field(default_factory=dict)
    precision: Precision = field(init=False)
    # float64 twin of the same problem, whose block solve starts each block
    # (see blocksolver.init_block); the catalog builders fill it when they
    # build at another precision
    native: HamiltonianProblem | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if (self.force is None) != (self.velocity is None):
            raise ValueError(f"{self.name}: a separable problem gives both force and velocity")
        if np.shape(self.p0) != np.shape(self.x0):
            raise ValueError(f"{self.name}: p0 has shape {np.shape(self.p0)}, x0 {np.shape(self.x0)}")
        dtype, p_dtype = (getattr(a, "dtype", None) for a in (self.x0, self.p0))
        self.precision = next((p for p in PRECISIONS.values() if p.dtype == dtype == p_dtype), None)
        if self.precision is None:
            raise ValueError(f"{self.name}: x0 has dtype {dtype}, p0 {p_dtype}: need both float64 or both object")
        if self.derivatives is not None:
            if self.first_rhs is not None or self.second_rhs is not None:
                raise ValueError(f"{self.name}: a problem gives derivatives or first_rhs and second_rhs, not both")
            return
        if self.first_rhs is None and self.force is not None:
            velocity, force = self.velocity, self.force
            self.first_rhs = lambda X, P: (velocity(P), force(X))
        if self.first_rhs is None:
            raise ValueError(f"{self.name}: a problem gives derivatives, first_rhs, or force and velocity")
        self.derivatives = self._first_derivatives if self.second_rhs is None else self._rhs_derivatives

    @property
    def separable(self) -> bool:
        return self.force is not None

    def _rhs_derivatives(self, X, P, levels):
        D = self.first_rhs(X, P)
        return (D, self.second_rhs(X, P, *D)) if levels == 2 else (D,)

    def _first_derivatives(self, X, P, levels):
        if levels == 2:
            raise ConfigurationError(f"{self.name}: ZDS needs S, and the problem gives no second_rhs or derivatives")
        return (self.first_rhs(X, P),)


def _twinned(builder):
    """Builder that also gives a problem built at another precision its float64 twin.

    The twin is the same builder call at NATIVE, and so precision is keyword-only;
    the arguments' numbers (strings, Fractions, DoubleDoubles) round to float64 there.
    """

    @functools.wraps(builder)
    def build(*args, precision=NATIVE, **kwargs):
        problem = builder(*args, precision=precision, **kwargs)
        if precision is not NATIVE:
            problem.native = builder(*args, precision=NATIVE, **kwargs)
        return problem

    return build


def _row(*entries):
    # the (..., 1, K) state with K per-node entries (scalars, or shaped (...))
    if len(entries) == 1:
        return np.asarray(entries[0])[..., None, None]
    return np.stack(entries, axis=-1)[..., None, :]


def _at(A, *index):
    # entry ``index`` of the trailing axes at every node, shaped (...); a
    # single node's entry is a numpy or DoubleDouble scalar, whose arithmetic
    # costs a fraction of an array operation's
    if A.ndim == len(index):
        return A[index]
    v = A[(...,) + index]
    return v[(0,) * v.ndim] if v.size == 1 else v


def _has_zero(v):
    # whether any node's value of v (as _at gives it) is exactly zero
    return np.count_nonzero(v) < v.size if isinstance(v, np.ndarray) else v == 0


def _lift(c, n):
    # per-node values c (as _at gives them) broadcast over n trailing axes
    return c[(...,) + (None,) * n] if isinstance(c, np.ndarray) else c


# ---------------------------------------------------------------------------
# mass-spring
# ---------------------------------------------------------------------------

@_twinned
def make_mass_spring(m=1.0, kappa=1.0, x0=1.0, p0=0.0, *, precision=NATIVE) -> HamiltonianProblem:
    """Linear one-dimensional oscillator, H = p^2/(2m) + kappa x^2/2."""
    if not (float(m) > 0 and float(kappa) > 0):
        raise ValueError("mass and stiffness must be positive")
    m_ = precision.real(m)
    k_ = precision.real(kappa)
    neg_k = -k_  # exact: -(k_ * X) == neg_k * X bit for bit, one ufunc fewer
    x0_ = precision.real(x0)
    p0_ = precision.real(p0)
    omega = nsqrt(k_ / m_)
    x_sin = p0_ / (m_ * omega)  # exact's coefficients, independent of t
    p_sin = m_ * omega * x0_

    def hamiltonian(X, P):
        x, p = _at(X, 0, 0), _at(P, 0, 0)
        return p * p / (2 * m_) + k_ * x * x * 0.5

    velocity = (lambda P: P.copy()) if m_ == 1 else (lambda P: P / m_)  # m = 1 tested once; the copy has the quotient's words

    def force(X):
        return neg_k * X

    def exact(t):
        s, c = sin_cos(t * omega)
        return _row(x0_ * c + x_sin * s), _row(p0_ * c - p_sin * s)

    return HamiltonianProblem(
        name="mass_spring",
        x0=_row(x0_),
        p0=_row(p0_),
        hamiltonian=hamiltonian,
        second_rhs=lambda X, P, DX, DP: (velocity(DP), force(DX)),  # linear: the map applied to D
        force=force,
        velocity=velocity,
        invariants=(InvariantSpec("H", hamiltonian),),
        exact_solution=exact,
        parameters={"m": m_, "kappa": k_, "omega": omega},
    )


# ---------------------------------------------------------------------------
# two springs, two masses
# ---------------------------------------------------------------------------

@_twinned
def make_two_spring(
    k1=1.0, k2=5.0, m1=2.0, m2=1.0, A=1.0, B=2.0, alpha1=None, alpha2=None,
    *, precision=NATIVE,
) -> HamiltonianProblem:
    """Two bodies chained by two springs; normal-mode closed-form solution.

    H = p1^2/(2 m1) + p2^2/(2 m2) + k1 x1^2/2 + k2 (x2 - x1)^2/2.
    The mode frequencies solve m1 m2 w^4 - (m1 k2 + m2 k1 + m2 k2) w^2 + k1 k2 = 0.
    """
    if not all(float(v) > 0 for v in (k1, k2, m1, m2)):
        raise ValueError("all two-spring parameters must be positive")
    pi = precision.pi
    if alpha1 is None:
        alpha1 = pi / 2
    if alpha2 is None:
        alpha2 = -pi / 4
    k1_, k2_ = precision.real(k1), precision.real(k2)
    m1_, m2_ = precision.real(m1), precision.real(m2)
    A_, B_ = precision.real(A), precision.real(B)
    a1_, a2_ = precision.real(alpha1), precision.real(alpha2)

    b = m1_ * k2_ + m2_ * k1_ + m2_ * k2_
    disc = nsqrt(b * b - 4 * (m1_ * m2_) * (k1_ * k2_))
    w1 = nsqrt((b - disc) / (2 * m1_ * m2_))
    w2 = nsqrt((b + disc) / (2 * m1_ * m2_))
    if abs(float(w2 - w1)) < 1e-12 * abs(float(w2)):
        raise ValueError("degenerate two-spring configuration: w1 == w2")
    denom2 = k2_ - m2_ * w2 * w2
    if abs(float(denom2)) < 1e-12 * abs(float(k2_)):
        raise ValueError("degenerate two-spring configuration: k2 == m2 w2^2")
    c1 = (k1_ + k2_ - m1_ * w1 * w1) / k2_  # mode-1 amplitude ratio x2/x1
    c2 = k2_ / denom2  # mode-2 amplitude ratio x2/x1
    masses = precision.asarray([[m1_, m2_]])

    def hamiltonian(X, P):
        x1, x2 = _at(X, 0, 0), _at(X, 0, 1)
        p1, p2 = _at(P, 0, 0), _at(P, 0, 1)
        d = x2 - x1
        return p1 * p1 / (2 * m1_) + p2 * p2 / (2 * m2_) + k1_ * x1 * x1 * 0.5 + k2_ * d * d * 0.5

    def velocity(P):
        return P / masses

    def force(X):
        x1, x2 = _at(X, 0, 0), _at(X, 0, 1)
        F = np.empty_like(X)
        F[..., 0, 0] = -(k1_ * x1 + k2_ * (x1 - x2))
        F[..., 0, 1] = -(k2_ * (x2 - x1))
        return F

    def exact(t):
        ph1 = w1 * t + a1_
        ph2 = w2 * t + a2_
        s_1, c_1 = sin_cos(ph1)
        s_2, c_2 = sin_cos(ph2)
        x1 = A_ * c_1 + B_ * c_2
        x2 = A_ * c1 * c_1 + B_ * c2 * c_2
        p1 = -m1_ * (A_ * w1 * s_1 + B_ * w2 * s_2)
        p2 = -m2_ * (A_ * w1 * c1 * s_1 + B_ * w2 * c2 * s_2)
        return _row(x1, x2), _row(p1, p2)

    X0, P0 = exact(precision.real(0))
    return HamiltonianProblem(
        name="two_spring",
        x0=X0,
        p0=P0,
        hamiltonian=hamiltonian,
        second_rhs=lambda X, P, DX, DP: (velocity(DP), force(DX)),  # linear: the map applied to D
        force=force,
        velocity=velocity,
        invariants=(InvariantSpec("H", hamiltonian),),
        exact_solution=exact,
        parameters={"omega1": w1, "omega2": w2, "k1": k1_, "k2": k2_, "m1": m1_, "m2": m2_},
    )


# ---------------------------------------------------------------------------
# pendulum
# ---------------------------------------------------------------------------

_PENDULUM_REF_X = -0.2633498226088722


@_twinned
def make_pendulum(m=1.0, g=1.0, length=1.0, x0=None, p0=0.0, *, precision=NATIVE) -> HamiltonianProblem:
    """Planar pendulum, H = p^2/(2 m l^2) + m g l (1 - cos x).

    For the standard setup (m = g = l = 1, x0 = pi/4, p0 = 0) the problem
    carries a double-precision reference value of x at t = 100.
    """
    if not all(float(v) > 0 for v in (m, g, length)):
        raise ValueError("pendulum parameters must be positive")
    default_x0 = x0 is None
    if default_x0:
        x0 = precision.pi / 4
    m_, g_, l_ = precision.real(m), precision.real(g), precision.real(length)
    ml2 = m_ * l_ * l_
    mgl = m_ * g_ * l_
    neg_mgl = -mgl  # as neg_k in make_mass_spring
    x0_, p0_ = precision.real(x0), precision.real(p0)

    def hamiltonian(X, P):
        x, p = _at(X, 0, 0), _at(P, 0, 0)
        return p * p / (2 * ml2) + mgl * (1 - sin_cos(x)[1])

    def velocity(P):
        return P / ml2

    def force(X):
        return neg_mgl * np.sin(X)

    def derivatives(X, P, levels):
        if levels == 1:
            return ((velocity(P), force(X)),)
        s, c = sin_cos(X)  # np.sin's and np.cos's words, one reduction per ddouble entry
        DX, DP = P / ml2, neg_mgl * s
        return (DX, DP), (DP / ml2, neg_mgl * c * DX)

    refs = ()
    if default_x0 and float(m_) == 1.0 and float(g_) == 1.0 and float(l_) == 1.0 and float(p0_) == 0.0:
        refs = (ReferenceValue(100.0, _PENDULUM_REF_X),)

    return HamiltonianProblem(
        name="pendulum",
        x0=_row(x0_),
        p0=_row(p0_),
        hamiltonian=hamiltonian,
        force=force,
        velocity=velocity,
        derivatives=derivatives,
        invariants=(InvariantSpec("H", hamiltonian),),
        reference_values=refs,
        parameters={"m": m_, "g": g_, "l": l_},
    )


def pendulum_period(m=1.0, g=1.0, length=1.0, modulus=None) -> float:
    """Oscillation period 4 sqrt(l/(m g)) K(modulus) via the arithmetic-geometric mean.

    K is the complete elliptic integral of the first kind; the AGM iteration
    converges quadratically, giving ~1e-15 relative accuracy in a few steps.
    """
    if modulus is None:
        modulus = math.sin(math.pi / 8)
    w = float(modulus)
    if not 0.0 <= w < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {w}")
    a, b = 1.0, math.sqrt(1.0 - w * w)
    while abs(a - b) > 1e-17 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    K = math.pi / (2.0 * a)
    return 4.0 * math.sqrt(float(length) / (float(m) * float(g))) * K


# ---------------------------------------------------------------------------
# Kepler
# ---------------------------------------------------------------------------

@_twinned
def make_kepler(x0=(0.4, 0.0), p0=(0.0, 2.0), *, precision=NATIVE) -> HamiltonianProblem:
    """Planar Kepler problem, H = |p|^2/2 - 1/|x|, with H, L and LRL invariants."""
    X0 = precision.asarray([[x0[0]], [x0[1]]])
    P0 = precision.asarray([[p0[0]], [p0[1]]])
    if float((X0 * X0).sum()) == 0.0:
        raise ValueError("Kepler initial position must be nonzero")

    def _r3(X):
        # position components, r and r^3 per node
        x1, x2 = _at(X, 0, 0), _at(X, 1, 0)
        r2 = x1 * x1 + x2 * x2
        if _has_zero(r2):
            raise SingularityError("Kepler evaluation at |x| = 0")
        r = nsqrt(r2)
        return x1, x2, r, r2 * r

    def hamiltonian(X, P):
        r = _r3(X)[2]
        p1, p2 = _at(P, 0, 0), _at(P, 1, 0)
        return (p1 * p1 + p2 * p2) * 0.5 - 1 / r

    def force(X):
        return -(X / _lift(_r3(X)[3], 2))

    def derivatives(X, P, levels):
        x1, x2, r, r3 = _r3(X)
        DX, DP = D = P.copy(), -(X / _lift(r3, 2))
        if levels == 1:
            return (D,)
        r5 = r3 * r * r
        dot = x1 * _at(DX, 0, 0) + x2 * _at(DX, 1, 0)
        return D, (DP.copy(), -(DX / _lift(r3, 2)) + X * _lift(3 * dot / r5, 2))

    def angular_momentum(X, P):
        return _at(P, 1, 0) * _at(X, 0, 0) - _at(P, 0, 0) * _at(X, 1, 0)

    def lrl(X, P):
        return lrl_scalar((_at(X, 0, 0), _at(X, 1, 0)), (_at(P, 0, 0), _at(P, 1, 0)))

    return HamiltonianProblem(
        name="kepler",
        x0=X0,
        p0=P0,
        hamiltonian=hamiltonian,
        force=force,
        velocity=lambda P: P.copy(),
        derivatives=derivatives,
        invariants=(
            InvariantSpec("H", hamiltonian),
            InvariantSpec("L", angular_momentum),
            InvariantSpec("A", lrl),
        ),
    )


def lrl_scalar(x, p):
    """Scalar Laplace-Runge-Lenz invariant: (p2 x1 - p1 x2)(p2 - p1) - (x1 + x2)/|x|."""
    r = nsqrt(x[0] * x[0] + x[1] * x[1])
    L = p[1] * x[0] - p[0] * x[1]
    return L * (p[1] - p[0]) - (x[0] + x[1]) / r


def lrl_gradient(x, p):
    """Exact phase-space gradient of the scalar LRL invariant.

    Returns (d/dx1, d/dx2, d/dp1, d/dp2).  Validated against central finite
    differences of :func:`lrl_scalar`.
    """
    r2 = x[0] * x[0] + x[1] * x[1]
    r3 = r2 * nsqrt(r2)
    dpm = p[1] - p[0]
    gx1 = p[1] * dpm - x[1] * (x[1] - x[0]) / r3
    gx2 = -(p[0] * dpm) - x[0] * (x[0] - x[1]) / r3
    gp1 = 2 * x[1] * p[0] - x[0] * p[1] - x[1] * p[1]
    gp2 = 2 * x[0] * p[1] - x[0] * p[0] - x[1] * p[0]
    return gx1, gx2, gp1, gp2


def project_lrl(X, P, R0):
    """One first-order projection step onto the manifold lrl_scalar = R0.

    Moves (x, p) along -lambda grad(R) with lambda = (R - R0)/|grad R|^2,
    shrinking |R - R0| quadratically when the deviation is small.  Skipped
    with a warning if the gradient nearly vanishes.
    """
    x, p = X[:, 0], P[:, 0]
    g = lrl_gradient(x, p)
    gnorm2 = g[0] * g[0] + g[1] * g[1] + g[2] * g[2] + g[3] * g[3]
    if float(gnorm2) < 1e-28:
        warnings.warn("LRL projection skipped: gradient nearly vanishes", stacklevel=2)
        return X, P
    lam = (lrl_scalar(x, p) - R0) / gnorm2
    Xn = X.copy()
    Pn = P.copy()
    Xn[0, 0] = x[0] - lam * g[0]
    Xn[1, 0] = x[1] - lam * g[1]
    Pn[0, 0] = p[0] - lam * g[2]
    Pn[1, 0] = p[1] - lam * g[3]
    return Xn, Pn


# ---------------------------------------------------------------------------
# n-body
# ---------------------------------------------------------------------------

@_twinned
def make_nbody(masses, G, X0, P0, name="nbody", *, precision=NATIVE) -> HamiltonianProblem:
    """Gravitational K-body problem in dimension I (2 or 3).

    H = sum_k |p^k|^2/(2 m_k) - sum_{k != l} G m_k m_l / (2 |x^k - x^l|).
    The angular momentum invariant is a scalar for I = 2 and the full
    3-vector for I = 3 (monitored in max-norm).  No diagonal fill: self terms
    vanish on the zero diagonal of the differences, and the pair-by-pair
    collision check runs only when some squared distance is exactly zero.
    ``derivatives`` works out the pair geometry (differences, distances)
    once for D and S, and ``force`` gives D's momentum half alone.
    """
    m = precision.asarray(masses)
    K = m.shape[0]
    if K < 2:
        raise ValueError("n-body problem needs at least two bodies")
    if any(float(v) <= 0 for v in m.flat):
        raise ValueError("masses must be positive")
    G_ = precision.real(G)
    X0 = precision.asarray(X0)
    P0 = precision.asarray(P0)
    I = X0.shape[0]
    if I not in (2, 3):
        raise ValueError("n-body supports I = 2 or 3")
    if X0.shape != (I, K) or P0.shape != (I, K):
        raise ValueError(f"X0 and P0 must have shape ({I}, {K}), got {X0.shape} and {P0.shape}")
    m_row = m[None, :]
    m2 = 2 * m
    GMM = G_ * (m[:, None] * m_row)  # (K, K)
    GMM3 = 3 * GMM
    EYE = precision.asarray(np.eye(K))
    iu, ju = np.triu_indices(K, 1)
    GMMp = (G_ * m[iu]) * m[ju]  # the pairs k < l, row-major

    add = np.add.reduce  # .sum's words without its Python wrapper

    def pair_geometry(X):
        diff = X[..., :, None, :] - X[..., :, :, None]  # diff[..., i, k, l] = x^l_i - x^k_i
        d2 = add(diff * diff, axis=-3) + EYE  # (..., K, K), 1 on the diagonal
        if np.count_nonzero(d2) < d2.size:  # the first node's first pair k < l
            k, l = np.argwhere(d2 == 0)[0][-2:]
            raise SingularityError(f"bodies {k} and {l} collide")
        d3 = d2 * np.sqrt(d2)
        return diff, d2, d3, (GMM / d3)[..., None, :, :]

    def hamiltonian(X, P):
        kin = ((P * P).sum(axis=-2) / m2).sum(axis=-1)
        dx = X.take(iu, -1) - X.take(ju, -1)
        # negation is exact: 0 - (t_1 + ... + t_n), summed in order, is 0 - t_1 - ... - t_n
        pot = 0 * kin - np.add.accumulate(GMMp / np.sqrt((dx * dx).sum(axis=-2)), axis=-1)[..., -1]
        return kin + pot

    def force(X):
        diff, _, _, w = pair_geometry(X)
        return add(w * diff, axis=-1)  # (..., I, K)

    def velocity(P):
        return P / m_row

    def derivatives(X, P, levels):
        diff, d2, d3, w = pair_geometry(X)
        DX, DP = D = velocity(P), add(w * diff, axis=-1)
        if levels == 1:
            return (D,)
        vdiff = DX[..., :, None, :] - DX[..., :, :, None]
        inner = add(diff * vdiff, axis=-3)  # <u, v> per pair
        v = (GMM3 * inner / (d3 * d2))[..., None, :, :]
        return D, (DP / m_row, add(w * vdiff - v * diff, axis=-1))

    if I == 2:
        def angular_momentum(X, P):
            return (X[..., 0, :] * P[..., 1, :] - X[..., 1, :] * P[..., 0, :]).sum(axis=-1)
    else:
        i1, i2 = np.array([1, 2, 0]), np.array([2, 0, 1])  # L_i = x_{i+1} p_{i+2} - x_{i+2} p_{i+1}

        def angular_momentum(X, P):
            return (X.take(i1, -2) * P.take(i2, -2) - X.take(i2, -2) * P.take(i1, -2)).sum(axis=-1)

    return HamiltonianProblem(
        name=name,
        x0=X0,
        p0=P0,
        hamiltonian=hamiltonian,
        force=force,
        velocity=velocity,
        derivatives=derivatives,
        invariants=(InvariantSpec("H", hamiltonian), InvariantSpec("L", angular_momentum)),
        parameters={"masses": m, "G": G_},
    )


def make_three_body_eight(precision=NATIVE) -> HamiltonianProblem:
    """Equal-mass planar three-body problem on the figure-eight orbit.

    Period T_p = 6.32591401228; total linear momentum and angular momentum
    both vanish at t = 0.
    """
    X0 = [
        ["0.97000436", "-0.97000436", "0"],
        ["-0.24308753", "0.24308753", "0"],
    ]
    P0 = [
        ["0.466203685", "0.466203685", "-0.93240737"],
        ["0.43236573", "0.43236573", "-0.86473146"],
    ]
    prob = make_nbody([1, 1, 1], 1, X0, P0, name="three_body_eight", precision=precision)
    prob.parameters["period"] = 6.32591401228
    return prob


_OUTER_SOLAR = [
    # name, mass (solar masses), position (au), velocity (au/day)
    ("sun", "1.00000597682", ("0", "0", "0"), ("0", "0", "0")),
    ("jupiter", "9.547861040430e-04",
     ("-3.5023653", "-3.8169847", "-1.5507963"),
     ("0.00565429", "-0.00412490", "-0.00190589")),
    ("saturn", "2.855837331510e-04",
     ("9.0755314", "-3.0458353", "-1.6483708"),
     ("0.00168318", "0.00483525", "0.00192462")),
    ("uranus", "4.37273164546e-05",
     ("8.3101420", "-16.2901086", "-7.2521278"),
     ("0.00354178", "0.00137102", "0.00055029")),
    ("neptune", "5.17759138449e-05",
     ("11.4707666", "-25.7294829", "-10.8169456"),
     ("0.00288930", "0.00114527", "0.00039677")),
    ("pluto", Fraction(10, 13 * 10**8),
     ("-15.5387357", "-25.2225594", "-3.1902382"),
     ("0.00276725", "-0.00170702", "-0.00136504")),
]

OUTER_SOLAR_G = "2.95912208286e-04"


def make_outer_solar(precision=NATIVE) -> HamiltonianProblem:
    """Sun plus the five outer bodies; au / day / solar-mass units, momenta = m v."""
    masses = [row[1] for row in _OUTER_SOLAR]
    X0 = [[row[2][i] for row in _OUTER_SOLAR] for i in range(3)]
    m_ = precision.asarray([precision.real(v) for v in masses])
    V0 = precision.asarray([[precision.real(row[3][i]) for row in _OUTER_SOLAR] for i in range(3)])
    P0 = m_ * V0  # momenta m v
    prob = make_nbody(masses, OUTER_SOLAR_G, X0, P0, name="outer_solar", precision=precision)
    prob.parameters["bodies"] = tuple(row[0] for row in _OUTER_SOLAR)
    return prob


# ---------------------------------------------------------------------------
# charged particle in a static electromagnetic field
# ---------------------------------------------------------------------------

def _mv(M, v):
    # (..., 3, 3) @ (..., 3) per node, for either dtype
    return (M * v[..., None, :]).sum(axis=-1)


def _vec(x, *components):
    # (..., 3) like x from three per-node components (scalars broadcast)
    v = np.empty_like(x)
    for i, c in enumerate(components):
        v[..., i] = c
    return v


_EYE3 = np.eye(3, dtype=bool)


@_twinned
def make_em_particle(variant="scb", m=1.0, e=1.0, x0=None, p0=None, *, precision=NATIVE) -> HamiltonianProblem:
    """Charged particle with H = |p - e A(x)|^2/(2m) + e phi(x); non-separable.

    Variants:

    * ``scb`` -- smooth pseudo-2D potentials phi = -1/(0.1 + |x|),
      A = (0, 1000 x1, 0); defaults x0 = (1, 0, 0), p0 = (0, 101, 0).
    * ``challenging`` -- trigonometric electrostatic potential and a magnetic
      potential (r^2, r^2 x2/x1, -2 log(1 + r^2)) singular at x1 = 0;
      defaults x0 = (0.5, -0.25, -0.25), p0 = (0, 0, -1).

    Both variants are static (the explicit time derivative of A vanishes).
    The potentials take positions x shaped (..., 3), one row per node, and
    their data ``_q(x)`` worked out once per call: |x|^2 and |x| (``scb``),
    or x1, x2, x3, |x|^2 and each coordinate's sine and cosine.
    """
    if variant not in ("scb", "challenging"):
        raise ValueError(f"unknown EM variant {variant!r}")
    m_ = precision.real(m)
    e_ = precision.real(e)
    zero = precision.real(0)
    one = precision.real(1)

    if variant == "scb":
        if x0 is None:
            x0 = (1, 0, 0)
        if p0 is None:
            p0 = (0, 101, 0)
        soft = precision.real("0.1")
        big = precision.real(1000)

        def _q(x):
            x1, x2, x3 = _at(x, 0), _at(x, 1), _at(x, 2)
            r2 = x1 * x1 + x2 * x2 + x3 * x3
            return r2, nsqrt(r2)

        def phi(x, pos):
            return -(1 / (soft + pos[1]))

        def grad_phi(x, pos):
            r = pos[1]
            c = 1 / (r * (soft + r) * (soft + r))
            return x * _lift(c, 1)

        def hess_phi(x, pos):
            r2, r = pos
            sr = soft + r
            diag = 1 / (r * sr * sr)
            mix = 1 / (r2 * r * sr * sr) + 2 / (r2 * sr * sr * sr)
            return np.where(_EYE3, _lift(diag, 2), zero) - x[..., :, None] * x[..., None, :] * _lift(mix, 2)

        def vec_A(x, pos):
            return _vec(x, zero, big * x[..., 0], zero)

        # A is linear in x: a constant Jacobian and a zero Hessian, made once
        J_A = np.full((3, 3), zero, precision.dtype)
        J_A[1, 0] = big
        H_A = np.full((3, 3, 3), zero, precision.dtype)
        J_A.flags.writeable = H_A.flags.writeable = False
        jac_A, hess_A = (lambda x, pos: J_A), (lambda x, pos: H_A)

    else:
        if x0 is None:
            x0 = (0.5, -0.25, -0.25)
        if p0 is None:
            p0 = (0, 0, -1)

        def _q(x):
            x1, x2, x3 = _at(x, 0), _at(x, 1), _at(x, 2)
            if _has_zero(x1):
                raise SingularityError("EM challenging potential at x1 = 0")
            s1, c1 = sin_cos(x1)
            s2, c2 = sin_cos(x2)
            s3, c3 = sin_cos(x3)
            return x1, x2, x3, x1 * x1 + x2 * x2 + x3 * x3, s1, c1, s2, c2, s3, c3

        def phi(x, pos):
            s1, c1, s2, c2, s3, c3 = pos[4:]
            return 2 * c1 * c1 + s1 * s1 * (s2 * c2 + s3 * c3)

        def grad_phi(x, pos):
            s1, c1, s2, c2, s3, c3 = pos[4:]
            g = s2 * c2 + s3 * c3
            return _vec(
                x, 2 * s1 * c1 * (g - 2), s1 * s1 * (c2 * c2 - s2 * s2), s1 * s1 * (c3 * c3 - s3 * s3)
            )

        def hess_phi(x, pos):
            s1, c1, s2, c2, s3, c3 = pos[4:]
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

        def vec_A(x, pos):
            x1, x2, _, q = pos[:4]
            return _vec(x, q, q * x2 / x1, -2 * nlog(1 + q))

        def jac_A(x, pos):
            x1, x2, x3, q = pos[:4]
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

        def hess_A(x, pos):
            x1, x2, x3, q = pos[:4]
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

    X0 = precision.asarray([[x0[0]], [x0[1]], [x0[2]]])
    P0 = precision.asarray([[p0[0]], [p0[1]], [p0[2]]])

    def hamiltonian(X, P):
        x = X[..., 0]
        pos = _q(x)
        v = P[..., 0] - e_ * vec_A(x, pos)
        return (v * v).sum(axis=-1) / (2 * m_) + e_ * phi(x, pos)

    def derivatives(X, P, levels):
        x = X[..., 0]
        pos = _q(x)
        J = jac_A(x, pos)
        JT = J.swapaxes(-1, -2)
        dx = (P[..., 0] - e_ * vec_A(x, pos)) / m_
        dp = e_ * (_mv(JT, dx) - grad_phi(x, pos))
        D = dx[..., None], dp[..., None]
        if levels == 1:
            return (D,)
        sx = (dp - e_ * _mv(J, dx)) / m_
        HA = hess_A(x, pos)
        # w_ell: HA[j, ell, i] dx_i dx_j added onto zero over i, then j, in that order
        terms = HA.swapaxes(-3, -2).swapaxes(-2, -1) * dx[..., None, :, None] * dx[..., None, None, :]
        terms = terms.reshape(x.shape + (9,))
        terms[..., 0] = zero + terms[..., 0]
        w = np.add.accumulate(terms, axis=-1)[..., -1]
        sp = e_ * (_mv(JT, sx) + w - _mv(hess_phi(x, pos), dx))
        return D, (sx[..., None], sp[..., None])

    return HamiltonianProblem(
        name=f"em_{variant}",
        x0=X0,
        p0=P0,
        hamiltonian=hamiltonian,
        derivatives=derivatives,
        invariants=(InvariantSpec("H", hamiltonian),),
        parameters={"m": m_, "e": e_, "variant": variant},
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_BUILDERS = {
    "mass_spring": make_mass_spring,
    "two_spring": make_two_spring,
    "pendulum": make_pendulum,
    "kepler": make_kepler,
    "three_body_eight": make_three_body_eight,
    "outer_solar": make_outer_solar,
    "em_scb": lambda precision=NATIVE: make_em_particle("scb", precision=precision),
    "em_challenging": lambda precision=NATIVE: make_em_particle("challenging", precision=precision),
}

PROBLEM_NAMES = tuple(_BUILDERS)


def build_problem(name: str, precision=NATIVE) -> HamiltonianProblem:
    """Instantiate a catalog problem with its standard parameters."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}") from None
    return builder(precision=precision)
