"""shifteval: policy-value estimation under covariate shift.

Estimates the value of a fixed individualized treatment rule on a testing
population from pooled training + calibration data, with semiparametric
efficient estimators, interchangeable covariate-weight backends, stratified
cross-fitting, and a Monte Carlo harness that checks the closed-form
asymptotic variances at desk scale.
"""

__version__ = "0.1.0"

from .calibration import (
    CandidateSet,
    SelectionResult,
    candidates_from_json,
    select_policy,
)
from .data_model import (
    DatasetKind,
    FoldAssignment,
    FunctionPolicy,
    LinearPolicy,
    Observation,
    Policy,
    PooledDataset,
    SimulationConfig,
    constant_policy,
    read_dataset_csv,
    simulate_gaussian_shift,
    split_cross_fit_folds,
    true_weight_gaussian,
    write_dataset_csv,
)
from .estimators import (
    Estimand,
    EstimateReport,
    EifVariant,
    FitRecipe,
    TheoreticalVariance,
    assemble_nuisances,
    cross_fit_estimate,
    eif_contribution,
    estimate_efficient,
    estimate_plugin_identification,
    theoretical_variance,
    wald_ci,
)
from .montecarlo import (
    EstimatorSpec,
    McConfig,
    McSummary,
    run_replications,
    true_policy_values,
)
from .nuisance import (
    KernelSpec,
    NuisanceSet,
    OutcomeModel,
    PropensityModel,
    WeightModel,
    fit_outcome_regression,
    fit_propensity_logistic,
    fit_weights_aipsw,
    fit_weights_entropy_balancing,
    fit_weights_kulsif,
    gaussian_oracle_nuisances,
)

__all__ = [
    "__version__",
    "CandidateSet",
    "SelectionResult",
    "candidates_from_json",
    "select_policy",
    "DatasetKind",
    "FoldAssignment",
    "FunctionPolicy",
    "LinearPolicy",
    "Observation",
    "Policy",
    "PooledDataset",
    "SimulationConfig",
    "constant_policy",
    "read_dataset_csv",
    "simulate_gaussian_shift",
    "split_cross_fit_folds",
    "true_weight_gaussian",
    "write_dataset_csv",
    "Estimand",
    "EstimateReport",
    "EifVariant",
    "FitRecipe",
    "TheoreticalVariance",
    "assemble_nuisances",
    "cross_fit_estimate",
    "eif_contribution",
    "estimate_efficient",
    "estimate_plugin_identification",
    "theoretical_variance",
    "wald_ci",
    "EstimatorSpec",
    "McConfig",
    "McSummary",
    "run_replications",
    "true_policy_values",
    "KernelSpec",
    "NuisanceSet",
    "OutcomeModel",
    "PropensityModel",
    "WeightModel",
    "fit_outcome_regression",
    "fit_propensity_logistic",
    "fit_weights_aipsw",
    "fit_weights_entropy_balancing",
    "fit_weights_kulsif",
    "gaussian_oracle_nuisances",
]
