"""Indifference pricing and asymptotically optimal tracking hedges for
vanilla options in the multi-dimensional arithmetic (Bachelier) model with
linear price impact."""

from .errors import (
    BachImpactError,
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidTimeError,
    NonFiniteResultError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    OverflowGuardError,
    SingularDenominatorError,
)
from .linalg import (
    SpdMatrix,
    apply_scalar_function,
    hyperbolic_ratio,
    inverse,
    make_spd,
    mat_exp,
    quad_form,
    row_vec_mul,
)
from .market import (
    BachelierModel,
    BasketCall,
    RidgePayoff,
    TimeGrid,
    brownian_increments,
    sup_convolve,
    sup_convolve_argmax,
)
from .pricing import (
    QuadratureRule,
    build_gauss_hermite,
    build_normal_panel,
    default_quadrature,
    delta_u,
    indifference_limit,
    limit_value,
    pde_residual,
    price_u,
)
from .hedging import (
    HedgeBatch,
    HedgePaths,
    auto_n_steps,
    duhamel_solution,
    hedge_paths,
    position_bound,
    run_hedge_batch,
    step_matrix,
    supermartingale_check_mc,
    wealth,
    wealth_by_parts,
)
from .asymptotics import (
    CeEstimate,
    DualSpec,
    certainty_equivalent_mc,
    dual_lower_bound,
    kernel_G,
    kernel_K,
    kernel_L,
    kernel_limit_integral,
    kernel_time_integral,
    optimal_dual_Y,
)
from .config import ExperimentConfig, load_config, parse_config_text, resolve_config

__version__ = "0.1.0"
