"""matchcast: categorical football match forecasting and proper-score evaluation.

Three families of predictors (count-based Dirichlet mixtures, a Davidson
paired-comparison model, bivariate Poisson goals models) plus a rolling
second-half evaluation harness with proper scoring rules, calibration and
goodness-of-fit diagnostics.
"""

from .data import (
    CountVector,
    MatchRecord,
    Outcome,
    Prediction,
    Season,
    TRIVIAL_PREDICTION,
    Venue,
    build_season,
    build_seasons,
    first_half_rounds,
    outcome_of,
    parse_matches,
    second_half_matchdays,
    serialize_matches,
    venue_counts,
)
from .davidson import BTParams, FitReport, FitSettings, bt_fit, bt_log_likelihood, bt_outcome_probs
from .dirichlet import (
    DirichletParams,
    GridSpec,
    MnDir2Config,
    PoolWeights,
    cv_select,
    mn_dir1_predict,
    mn_dir2_predict,
    pool,
    posterior,
    predictive,
)
from .evaluation import ModelReport, PredictionContext, Predictor, ScoredMatch, evaluate
from .poisson import (
    BivPoissonParams,
    ScoreGrid,
    TeamStrengths,
    TrainingWindow,
    bivpois_pmf,
    link_rates,
    outcome_probs_from_grid,
    poisson_fit,
    score_grid,
)
from .scoring import (
    brier,
    calibration_curve,
    chi_square_gof,
    cond_home_win_given_no_draw,
    entropy,
    log_score,
    proportion_of_errors,
    spherical,
)

__version__ = "0.1.0"

__all__ = [
    "BTParams",
    "BivPoissonParams",
    "CountVector",
    "DirichletParams",
    "FitReport",
    "FitSettings",
    "GridSpec",
    "MatchRecord",
    "MnDir2Config",
    "ModelReport",
    "Outcome",
    "PoolWeights",
    "PredictionContext",
    "Prediction",
    "Predictor",
    "ScoreGrid",
    "ScoredMatch",
    "Season",
    "TRIVIAL_PREDICTION",
    "TeamStrengths",
    "TrainingWindow",
    "Venue",
    "bivpois_pmf",
    "brier",
    "bt_fit",
    "bt_log_likelihood",
    "bt_outcome_probs",
    "build_season",
    "build_seasons",
    "calibration_curve",
    "chi_square_gof",
    "cond_home_win_given_no_draw",
    "cv_select",
    "entropy",
    "evaluate",
    "first_half_rounds",
    "link_rates",
    "log_score",
    "mn_dir1_predict",
    "mn_dir2_predict",
    "outcome_of",
    "outcome_probs_from_grid",
    "parse_matches",
    "poisson_fit",
    "pool",
    "posterior",
    "predictive",
    "proportion_of_errors",
    "score_grid",
    "second_half_matchdays",
    "serialize_matches",
    "spherical",
    "venue_counts",
]
