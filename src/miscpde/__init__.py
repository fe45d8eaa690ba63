"""Multi-index stochastic collocation for elliptic PDEs with countably many
uniform random parameters: nested quadrature, mixed-difference estimators
with combination-technique evaluation, profit-based adaptive index sets,
and analytic convergence-rate predictors."""

from .adaptation import (
    ErrorModel,
    build_set_adaptive,
    build_set_apriori,
    error_contribution_model,
    fit_rates,
    sweep_apriori,
    work_contribution,
)
from .misc_core import (
    EstimatorResult,
    IndexSet,
    MiscEvaluator,
    MixedIndex,
    combination_coefficients,
    mimc_estimate,
)
from .pde_solver import QoISpec, default_qoi_spec, solve_qoi
from .quadrature import (
    SparseLevelVector,
    cc_points,
    cc_weights,
    leb_delta,
    level_to_nodes,
)
from .random_field import (
    BSequence,
    FieldSpec,
    Mode,
    b_sequence,
    coefficient_A,
    mode_ordering,
    p_bound,
)
from .theory import (
    EllipseParams,
    RatePrediction,
    ellipse_radii,
    g_rates,
    r_det,
    r_misc,
    r_misc_example,
    solve_E_delta,
)

__version__ = "0.1.0"
