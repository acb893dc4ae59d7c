"""Minipatch ensembles with simultaneous, refit-free uncertainty
quantification: confidence intervals and tests for per-feature
importance, and distribution-free jackknife+ predictive intervals."""

from .core import (
    Dataset, MPConfig, Task, error_score, load_dataset, save_dataset,
    standardize,
)
from .ensemble import Ensemble, patch_array, sample_minipatches, train_ensemble
from .learners import (
    ConstantLearner, RidgeLearner, TreeLearner, fit_decision_tree,
    fit_least_squares, predict,
)
from .loco import (
    FeatureInterval, OcclusionResult, buffered_interval, estimate_B,
    infer_all, infer_feature, occlusion_scores, plain_interval, test_feature,
    variance_barrier,
)
from .conformal import (
    LooResiduals, PredictiveInterval, PredictiveSet, loo_residuals,
    predict_interval, predict_set, quantile_minus, quantile_plus,
)
from .simgen import SimModel, SimSpec, generate
from .oracle import (
    LinearTargetParams, brute_force_predictor, correlated_closed_form_limits,
    ensemble_conditional_target, linear_closed_form_target, monte_carlo_target,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "MPConfig", "Task", "error_score", "load_dataset",
    "save_dataset", "standardize",
    "Ensemble", "patch_array", "sample_minipatches", "train_ensemble",
    "ConstantLearner", "RidgeLearner", "TreeLearner", "fit_decision_tree",
    "fit_least_squares", "predict",
    "FeatureInterval", "OcclusionResult", "buffered_interval", "estimate_B",
    "infer_all", "infer_feature", "occlusion_scores", "plain_interval",
    "test_feature", "variance_barrier",
    "LooResiduals", "PredictiveInterval", "PredictiveSet", "loo_residuals",
    "predict_interval", "predict_set", "quantile_minus", "quantile_plus",
    "SimModel", "SimSpec", "generate",
    "LinearTargetParams", "brute_force_predictor",
    "correlated_closed_form_limits", "ensemble_conditional_target",
    "linear_closed_form_target", "monte_carlo_target",
    "__version__",
]
