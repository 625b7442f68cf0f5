"""Mollified fractional wave equations: solvers and diagnostics.

The package solves time-fractional (and optionally space-fractional) wave
problems whose rough spatial operators are replaced by slowly sharpening
mollified families, tracks the operator-norm and moderateness bookkeeping
that makes those families trustworthy, and reproduces stochastic forcing
from seeded counter-based streams.
"""

from .config import RunConfig, config_hash, parse_config, parse_config_file, render_config
from .duhamel import (
    CauchyProblem,
    ModerationReport,
    Nonlinearity,
    SolverOptions,
    SolverReport,
    StabilityReport,
    gronwall_stability_probe,
    moderateness_scan,
    nonlinearity_from_callable,
    scaled_sine,
    second_derivative_identity_check,
    solve_kernel_form,
    solve_rl_form,
    zero_nonlinearity,
)
from .errors import (
    ConfigError,
    DivergenceError,
    FracwaveError,
    MittagLefflerRangeError,
    NormGateError,
    ResolutionError,
    SingularOrderError,
    SizeError,
    TruncationError,
)
from .expressions import Expression, parse_expression
from .fractional import (
    GridFunction,
    SpatialGrid,
    TimeMesh,
    Trajectory,
    caputo_derivative,
    first_difference,
    liouville_multiplier,
    pi_weights,
    rl_derivative,
    rl_integral,
    second_difference,
    sobolev_norms,
)
from .regularization import (
    AssociationTable,
    CoefficientField,
    EpsilonSchedule,
    Mollifier,
    NormEstimate,
    RegularizedOperator,
    approximate_operator,
    association_diagnostic,
    build_operator,
    check_norm_gate,
    h_schedule,
    make_mollifier,
    operator_norm_estimate,
)
from .solution import (
    GeneratorProbe,
    LinearAction,
    as_action,
    exp_bound_check,
    generator_recovery,
    ml_trajectory,
    volterra_residual,
)
from .special import (
    GrowthEnvelope,
    MlParams,
    check_growth_bound,
    mittag_leffler,
    mittag_leffler_hp,
    series_term_count,
)
from .stochastic import (
    EnsembleStats,
    NoiseRepresentative,
    NoiseSpec,
    ensemble_run,
    mollified_variance,
    stochastic_initial_data,
    white_noise_representative,
)

__version__ = "0.1.0"
