"""Ultraweak space-time Petrov-Galerkin solver for linear DAEs.

Solves E x' - A_mu x = f_mu in an L2-in-time ultraweak variational form
with an optimally stable Petrov-Galerkin discretization, computes the
exact error-residual certificate and reduces the temporal problem with a
certified weak-greedy reduced basis.
"""

from .system_model import (
    AffineOperator,
    DaeSystem,
    KernelBasis,
    ThetaExpression,
    affine_eval,
    kernel_basis,
    theta_component,
    theta_constant,
    theta_monomial,
    validate_system,
)
from .temporal import GramTriplet, TimeGrid, build_grams, sample_on_grid
from .assembly import (
    RhsOperator,
    SpaceTimeOperator,
    assemble_rhs_operator,
    assemble_stiffness,
)
from .detailed import (
    DetailedOperator,
    DetailedSolution,
    estimator_detailed,
    evaluate_state,
    l2_error,
    l2_norm,
    solve_detailed,
)
from .rbm import (
    ReducedBasis,
    ReducedModel,
    TrainingSet,
    control_rhs_family,
    estimator_online,
    greedy,
    lift,
    load_model,
    reduced_solve,
    save_model,
)

__version__ = "0.1.0"
