"""Robust covariate-specific ROC curve estimation.

Test outcomes in each disease group are modeled with an additive cubic
B-spline location-scale regression fit by Huber M-estimation; the residual
distributions, estimated by truncated-weight empirical CDFs, induce the
covariate-specific ROC curve, its AUC (closed form and Simpson), the Youden
index, robust-AIC knot selection, and a weighted residual bootstrap for
confidence statements.
"""

__version__ = "0.1.0"

from .bootstrap import (BootstrapConfig, BootstrapResult, percentile_interval,
                        residual_bootstrap, unconditional_auc_bootstrap)
from .cli import RunConfig, load_config
from .data import GroupSample
from .errors import DataError, NumericalError, UsageError
from .huber import (FitConfig, RobustFit, huber_psi, huber_weight, irls_fit,
                    ols_as_robust_fit)
from .io import read_csv
from .model_select import (RaicCandidate, RaicReport, default_candidates, raic,
                           raic_penalty, select_knots)
from .roc import (GroupFit, PopulationPair, auc_closed_form, auc_simpson,
                  evaluate, fit_pair, predict_mean, robust_unconditional_auc,
                  roc_curve, roc_values, unconditional_auc, youden_index)
from .simulate import (ESTIMATORS, McEstimatorSummary, McReport, Scenario,
                       comparator_fit, generate, run_study, scenario,
                       true_auc)
from .splines import KnotSpec, SplineSpec, knot_sequence
from .wecdf import WeightedEcdf

__all__ = [
    "__version__",
    "BootstrapConfig", "BootstrapResult", "percentile_interval",
    "residual_bootstrap", "unconditional_auc_bootstrap",
    "GroupSample", "DataError", "NumericalError", "UsageError",
    "FitConfig", "RobustFit", "huber_psi", "huber_weight", "irls_fit",
    "ols_as_robust_fit",
    "RunConfig", "load_config", "read_csv",
    "RaicCandidate", "RaicReport", "default_candidates", "raic",
    "raic_penalty", "select_knots",
    "GroupFit", "PopulationPair", "auc_closed_form", "auc_simpson", "evaluate",
    "fit_pair", "predict_mean", "robust_unconditional_auc",
    "roc_curve", "roc_values", "unconditional_auc", "youden_index",
    "ESTIMATORS", "McEstimatorSummary", "McReport", "Scenario",
    "comparator_fit", "generate", "run_study", "scenario", "true_auc",
    "KnotSpec", "SplineSpec", "knot_sequence",
    "WeightedEcdf",
]
