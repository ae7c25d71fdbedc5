"""matchcast: categorical football match forecasting and proper-score evaluation.

Three families of predictors (count-based Dirichlet mixtures, a Davidson
paired-comparison model, bivariate Poisson goals models) plus a rolling
second-half evaluation harness with proper scoring rules, calibration and
goodness-of-fit diagnostics.
"""

from .data import CountVector, Prediction, build_seasons, parse_matches
from .davidson import bt_fit, bt_outcome_probs
from .dirichlet import DirichletParams, mn_dir1_predict, posterior
from .evaluation import Forecast, PredictionContext, evaluate
from .optimize import FitReport
from .poisson import poisson_fit
from .scoring import brier, log_score, spherical

__version__ = "0.1.0"

__all__ = [
    "CountVector",
    "DirichletParams",
    "FitReport",
    "Forecast",
    "Prediction",
    "PredictionContext",
    "brier",
    "bt_fit",
    "bt_outcome_probs",
    "build_seasons",
    "evaluate",
    "log_score",
    "mn_dir1_predict",
    "parse_matches",
    "poisson_fit",
    "posterior",
    "spherical",
]
