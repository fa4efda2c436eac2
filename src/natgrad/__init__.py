"""Natural gradient descent on overparameterized two-layer ReLU networks.

A numpy library plus experiment CLI for studying preconditioned first-order
methods whose convergence runs through the n x n output Gram matrix
G = J J^T: exact natural gradient, a conjugate-gradient variant, a
Kronecker-factored approximation, and plain gradient descent as the
baseline.  Includes the limiting (infinite-width) Gram with its closed
form, a transform that whitens inputs to condition number 1, closed-form
linearized dynamics, and calculators for the convergence conditions,
rates, and bounds the optimizers are predicted to obey.
"""
from ._version import __version__
from .data import (
    Dataset,
    DataValidationReport,
    load_csv,
    save_csv,
    synth_sphere,
    validate,
)
from .errors import (
    DegenerateInputError,
    DivergenceError,
    FormatError,
    NonConvergenceError,
    NumericalError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .forster import ForsterResult, forster_transform, inverse_sqrt_psd, normalize_rows
from .gram import (
    finite_gram,
    hadamard_bounds,
    limiting_gram,
    mc_limiting_gram,
    min_eig,
    pre_activation_gram,
    spectrum,
)
from .linearized import (
    LinearizedModel,
    gd_trajectory,
    limit_weights,
    ngd_discrete,
    ngd_trajectory,
    outputs_at,
    t_infinity,
)
from .network import (
    JacobianView,
    NetworkParams,
    activation_pattern,
    forward,
    jacobian,
    load_params,
    save_params,
)
from .network import init as init_network
from .optim import (
    ConvergenceTrace,
    LossSpec,
    OptimizerConfig,
    StepRecord,
    cg_solve,
    gd_step,
    kfac_step,
    logcosh_loss,
    ngd_cg_step,
    ngd_exact_step,
    squared_loss,
    train,
)
from .theory import (
    ConditionReport,
    GenBoundReport,
    check_conditions,
    generalization_bound,
    lambda0_floor_check,
    ngd_max_eta,
    overparam_requirement,
    rate_predictor,
)

__all__ = [
    "__version__",
    "ConditionReport",
    "ConvergenceTrace",
    "DataValidationReport",
    "Dataset",
    "DegenerateInputError",
    "DivergenceError",
    "ForsterResult",
    "FormatError",
    "GenBoundReport",
    "JacobianView",
    "LinearizedModel",
    "LossSpec",
    "NetworkParams",
    "NonConvergenceError",
    "NumericalError",
    "OptimizerConfig",
    "RankDeficiencyError",
    "SingularMatrixError",
    "StepRecord",
    "activation_pattern",
    "cg_solve",
    "check_conditions",
    "finite_gram",
    "forster_transform",
    "forward",
    "gd_step",
    "gd_trajectory",
    "generalization_bound",
    "hadamard_bounds",
    "init_network",
    "inverse_sqrt_psd",
    "jacobian",
    "kfac_step",
    "lambda0_floor_check",
    "limit_weights",
    "limiting_gram",
    "load_csv",
    "load_params",
    "logcosh_loss",
    "mc_limiting_gram",
    "min_eig",
    "ngd_cg_step",
    "ngd_discrete",
    "ngd_exact_step",
    "ngd_max_eta",
    "ngd_trajectory",
    "normalize_rows",
    "outputs_at",
    "overparam_requirement",
    "pre_activation_gram",
    "rate_predictor",
    "save_csv",
    "save_params",
    "spectrum",
    "squared_loss",
    "synth_sphere",
    "t_infinity",
    "train",
    "validate",
]
