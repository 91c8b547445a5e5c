"""Block-implicit structural (ZD/ZDS) schemes for Hamiltonian systems.

High-order unconditionally stable time integration built from two decoupled
ingredients: structural equations (pure discretization, generated once per
block size and step) and physical equations (the Hamiltonian right-hand
sides), solved together by a block fixed point.  Ships a benchmark problem
catalog, Stormer-Verlet composition baselines, a double-double arithmetic
backend, and a CLI/CSV measurement harness.
"""

from .numerics import DDOUBLE, NATIVE, PRECISIONS, DoubleDouble, two_sum
from .secoeff import (
    CoeffTable,
    ConfigurationError,
    Formulation,
    assemble_tables,
    coeff_table,
    exactness_residual,
    kernel_basis,
)
from .blocksolver import (
    BlockAnchor,
    DivergenceError,
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    integrate,
    make_anchor,
    solve_block,
)
from .problems import (
    HamiltonianProblem,
    InvariantSpec,
    PROBLEM_NAMES,
    SingularityError,
    build_problem,
    make_em_particle,
    make_kepler,
    make_mass_spring,
    make_nbody,
    make_outer_solar,
    make_pendulum,
    make_three_body_eight,
    make_two_spring,
    pendulum_period,
    project_lrl,
)
from .baselines import integrate_sv, sv_step_nonseparable, sv_step_separable, yoshida_schedule
from .harness import ErrorReport, RunConfig, convergence_order, run, sweep

__version__ = "0.1.0"
