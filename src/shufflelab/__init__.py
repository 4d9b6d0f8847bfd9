"""Simulation and verification lab for SGD sampling schemes on commuting
quadratic finite sums: worst-case constructions, exact permutation
expectations, rate calculators and the loss-versus-epochs experiment."""

from .model import (
    Problem,
    Minimizer,
    build_ss_construction,
    build_rr_construction,
    objective,
    component_gradient,
    gradient,
    validate_assumptions,
    conjugate,
    preset_x0,
)
from .engine import (
    Scheme,
    RunConfig,
    Trajectory,
    RNG_ALGORITHM_ID,
    recommended_eta,
    sample_permutation,
    run_sgd,
    run_sgd_closed_form,
)
from .analysis import (
    PermutationMoments,
    UnsupportedInstanceError,
    beta_exact,
    beta_lower_envelope,
    keyup_quantity,
    perm_moment_formula,
    sum_prod_expectation_exact,
    stochastic_terms_exact,
    permutation_moments,
    expected_loss_rr_analytic,
    expected_loss_ss_exact,
    mc_expected_loss,
)
from .bounds import (
    BoundSpec,
    ss_lower,
    rr_lower,
    ss_upper,
    rr_upper,
    ss_upper_high_prob,
    wr_baseline,
    crossover_epoch,
)
from .experiments import (
    SweepPlan,
    SweepRecord,
    SweepSummary,
    desk_plan,
    paper_plan,
    run_sweep,
    fit_loglog_slope,
)

__version__ = "0.1.0"
