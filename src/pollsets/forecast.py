"""Point forecasts from set-valued polls.

Two estimators are provided.  The conventional forecast simply drops
every undecided respondent and reports weighted shares among the
decided.  The homogeneity forecast instead keeps the undecided: a
choice model fitted on the decided predicts each undecided respondent's
affinity to every party, the prediction is restricted to their
consideration set and renormalized, and those per-respondent transition
rows are aggregated together with the decided votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mnl
from .bounds import Interval, IntervalForecast
from .data import PartySet, Survey, rounded

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-option shares summing to one."""

    shares: dict[str, float]

    def __post_init__(self):
        total = math.fsum(self.shares.values())
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"shares sum to {total}, expected 1")
        if any(v < 0 or v > 1 for v in self.shares.values()):
            raise ValueError("shares must lie in [0, 1]")

    def __getitem__(self, option: str) -> float:
        return self.shares[option]


@dataclass(frozen=True)
class TransitionTable:
    """Per-respondent choice distributions restricted to each consideration set.

    ``rows[i]`` maps option code to probability for respondent i; options
    outside the respondent's set are omitted and implicitly zero.
    Respondents in the same cell share one row object, and each distinct
    row object is checked once.
    """

    rows: tuple[dict[str, float], ...]

    def __post_init__(self):
        # Distinct row objects in order of first use.
        for row in dict(zip(map(id, self.rows), self.rows)).values():
            if abs(math.fsum(row.values()) - 1.0) > _ROW_SUM_TOL:
                i = next(i for i, other in enumerate(self.rows) if other is row)
                raise ValueError(f"transition row {i} does not sum to 1")


def conventional_forecast(s: Survey) -> ProbabilityVector:
    """Weighted shares among decided respondents only."""
    cells = s.cells
    decided = {ps.mask: total for ps, total in zip(cells.sets, cells.set_sums) if ps.is_singleton}
    if not decided:
        raise ValueError("no decided respondents")
    w_total = rounded(sum(decided.values()))
    shares = {code: rounded(decided.get(1 << i, 0)) / w_total for i, code in enumerate(s.registry.options)}
    return ProbabilityVector(shares)


def _cell_rows(m: mnl.MnlModel, s: Survey) -> list[dict[str, float]]:
    """One transition row per cell."""
    cells = s.cells
    options = s.registry.options
    members = [ps.indices() for ps in cells.sets]
    cell_set = cells.cell_set.tolist()
    decided_rows = [{options[idx[0]]: 1.0} if len(idx) == 1 else None for idx in members]
    rows: list = [decided_rows[si] for si in cell_set]
    todo = [g for g, row in enumerate(rows) if row is None]
    # One prediction per covariate pattern; the cells holding it share it.
    probs = mnl.predict_proba(m, cells.pattern_rows())
    for g, ci in zip(todo, cells.cell_pattern[todo].tolist()):
        p = probs[ci].tolist()
        member = members[cell_set[g]]
        denom = math.fsum(p[i] for i in member)
        if denom < 1e-12:
            raise ValueError("restricted prediction mass vanished; model is degenerate")
        rows[g] = {options[i]: p[i] / denom for i in member}
    return rows


def transition_probabilities(m: mnl.MnlModel, s: Survey) -> TransitionTable:
    """Model predictions restricted to each respondent's set and renormalized.

    Predicts once per distinct covariate pattern and builds one row per
    distinct cell; respondents in the same cell share its row.  Decided
    respondents get a degenerate row.
    """
    if m.n_categories != len(s.registry):
        raise ValueError("model categories do not match the registry")
    if m.n_predictors != 1 + len(s.schema):
        raise ValueError("model predictors do not match the survey covariate schema")
    rows = _cell_rows(m, s)
    return TransitionTable(tuple(map(rows.__getitem__, s.cells.index.tolist())))


def decided_design(s: Survey) -> mnl.DesignData:
    """Design data over decided respondents, categories in registry order."""
    category = [ps.indices()[0] if ps.is_singleton else -1 for ps in s.cells.sets]
    x, y, w = s.cells.design_rows(category)
    if not len(y):
        raise ValueError("no decided respondents")
    return mnl.DesignData(x, y, w, len(s.registry))


def homogeneity_forecast(
    s: Survey,
    options: mnl.FitOptions = mnl.FitOptions(),
    penalty: mnl.PenaltySpec | None = None,
    constraint: mnl.Constraint | None = None,
) -> tuple[ProbabilityVector, TransitionTable, mnl.FitReport]:
    """Forecast assuming the undecided choose within their sets like the decided.

    Fits the choice model on decided respondents, builds the transition
    table, and aggregates decided votes with undecided transition rows,
    all weighted, one term per cell: the cell's total weight times its
    row.
    """
    design = decided_design(s)
    if penalty is None:
        penalty = mnl.PenaltySpec.none()
    if constraint is None:
        constraint = mnl.Constraint.symmetric()
    model, report = mnl.fit(design, penalty, constraint, options)
    rows = _cell_rows(model, s)
    table = TransitionTable(tuple(map(rows.__getitem__, s.cells.index.tolist())))
    cell_weights = np.bincount(s.cells.index, weights=s.cells.weights, minlength=len(rows)).tolist()
    w_total = s.total_weight
    shares = {}
    for code in s.registry.options:
        terms = [w * row[code] for w, row in zip(cell_weights, rows) if code in row]
        shares[code] = math.fsum(terms) / w_total
    # Exact renormalization absorbs accumulated float error in the row products.
    total = math.fsum(shares.values())
    shares = {code: v / total for code, v in shares.items()}
    return ProbabilityVector(shares), table, report


def seat_share(p: ProbabilityVector | IntervalForecast, included: PartySet, registry) -> ProbabilityVector | IntervalForecast:
    """Renormalize shares over the included parties.

    For a point vector this is plain renormalization.  For intervals,
    each bound is divided by the extreme attainable total of the other
    included parties, capped by simplex feasibility, which is the exact
    image of the interval credal set and keeps lower <= upper.
    """
    codes = registry.codes_of(included)
    if not codes:
        raise ValueError("included set is empty")
    if isinstance(p, ProbabilityVector):
        total = math.fsum(p.shares[c] for c in codes)
        if total <= 0:
            raise ValueError("included shares sum to zero")
        return ProbabilityVector({c: p.shares[c] / total for c in codes})

    excluded = [c for c in p.intervals if c not in set(codes)]
    out = {}
    for code in codes:
        iv = p.intervals[code]
        rest_upper = math.fsum(p.intervals[c].upper for c in codes if c != code)
        rest_lower = math.fsum(p.intervals[c].lower for c in codes if c != code)
        out_lower = math.fsum(p.intervals[c].lower for c in excluded)
        out_upper = math.fsum(p.intervals[c].upper for c in excluded)
        rest_max = min(rest_upper, 1.0 - iv.lower - out_lower)
        rest_min = max(rest_lower, 1.0 - iv.upper - out_upper)
        denom_lo = iv.lower + rest_max
        denom_hi = iv.upper + rest_min
        if denom_lo <= 0 or denom_hi <= 0:
            raise ValueError("seat renormalization denominator vanished")
        lo = iv.lower / denom_lo
        hi = iv.upper / denom_hi
        out[code] = Interval(min(lo, hi), max(lo, hi))
    return IntervalForecast(out, p.total_weight)
