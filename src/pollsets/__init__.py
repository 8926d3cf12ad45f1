"""Set-valued pre-election poll analysis.

Undecided respondents report every party they are still pondering
between; this package turns those set-valued answers into point
forecasts, interval-valued Dempster bounds (optionally narrowed by an
allocation assumption), coalition majority analysis, and a regularized
choice model over consideration-set categories.
"""

from .bounds import (
    AllocationConstraint,
    CoalitionSpec,
    Interval,
    IntervalForecast,
    Majority,
    coalition_report,
    constrained_bounds,
    dempster_bounds,
    effective_allocation_limits,
    event_bounds,
    majority_classification,
    seat_bounds,
    share_bounds,
)
from .data import (
    PartyRegistry,
    PartySet,
    Respondent,
    Survey,
    SurveyFormatError,
    group_counts,
    parse_survey,
    survey_to_csv,
    undecided_share,
    validate,
)
from .forecast import (
    ProbabilityVector,
    TransitionTable,
    conventional_forecast,
    homogeneity_forecast,
    seat_share,
    transition_probabilities,
)
from .mnl import (
    DesignData,
    FitOptions,
    FitReport,
    MnlModel,
    PenaltyKind,
    PenaltySpec,
    cross_validate,
    fit,
    nll_and_gradient,
    predict_proba,
    prox_group,
)
from .ontic import (
    CoefficientTable,
    build_ontic_categories,
    fit_ontic,
    regularization_path,
)
from .simulate import (
    CoarsenStyle,
    CoverageReport,
    GroundTruth,
    SimConfig,
    coverage_check,
    generate_population,
)

__version__ = "0.1.0"
