"""Point forecasts from set-valued polls.

Two estimators are provided.  The conventional forecast simply drops
every undecided respondent and reports weighted shares among the
decided.  The homogeneity forecast instead keeps the undecided: a
choice model fitted on the decided predicts each covariate pattern's
affinity to every party, the prediction is restricted to each cell's
consideration set and renormalized, and the forecast is the cells'
total weights times that one (cells x parties) transition matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mnl
from .bounds import Interval, IntervalForecast
from .data import CellTable, PartySet, Survey, exact_sums, rounded

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-option shares summing to one."""

    shares: dict[str, float]

    def __post_init__(self):
        total = math.fsum(self.shares.values())
        # Written so that NaN fails both checks.
        if not abs(total - 1.0) <= _ROW_SUM_TOL:
            raise ValueError(f"shares sum to {total}, expected 1")
        if not all(0 <= v <= 1 for v in self.shares.values()):
            raise ValueError("shares must lie in [0, 1]")

    def __getitem__(self, option: str) -> float:
        return self.shares[option]


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """Choice distributions restricted to each cell's consideration set.

    ``probs`` is a read-only (n_cells, K) float64 matrix over the cells of
    the cell table ``cells`` and the ``options``, zero outside each cell's
    set, each row summing to one.  Respondent i's row is ``probs[cells.index[i]]``.
    """

    options: tuple[str, ...]
    probs: np.ndarray
    cells: CellTable

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.cells.cell_set), len(self.options)):
            raise ValueError("transition matrix must have one row per cell and one column per option")
        bad = np.flatnonzero(~(np.abs(probs.sum(axis=1) - 1.0) <= _ROW_SUM_TOL))
        if len(bad):  # named by the first respondent in the first failing cell
            raise ValueError(f"transition row {int(np.argmax(self.cells.index == bad[0]))} does not sum to 1")

    @property
    def rows(self) -> tuple[dict[str, float], ...]:
        """Respondent i's row as {option code: probability} over the members of their set, in registry order."""
        members = [self.cells.sets[j].indices() for j in self.cells.cell_set.tolist()]
        cell_rows = [{self.options[k]: p[k] for k in ks} for p, ks in zip(self.probs.tolist(), members)]
        return tuple(map(cell_rows.__getitem__, self.cells.index.tolist()))


def conventional_forecast(s: Survey) -> ProbabilityVector:
    """Weighted shares among decided respondents only."""
    cells = s.cells
    decided = {ps.mask: total for ps, total in zip(cells.sets, cells.set_sums) if ps.is_singleton}
    if not decided:
        raise ValueError("no decided respondents")
    w_total = rounded(sum(decided.values()))
    shares = {code: rounded(decided.get(1 << i, 0)) / w_total for i, code in enumerate(s.registry.options)}
    return ProbabilityVector(shares)


def transition_probabilities(m: mnl.MnlModel, s: Survey) -> TransitionTable:
    """Model predictions restricted to each cell's set and renormalized.

    Predicts once per distinct covariate pattern.  A decided cell gets
    1.0 on its party and uses no prediction; an undecided cell divides
    its members' predictions by their ``math.fsum``.
    """
    options = s.registry.options
    if m.n_categories != len(options):
        raise ValueError("model categories do not match the registry")
    if m.n_predictors != 1 + len(s.schema):
        raise ValueError("model predictors do not match the survey covariate schema")
    cells = s.cells
    masks = np.array([ps.mask for ps in cells.sets], dtype=np.int64)
    member = (masks[:, None] >> np.arange(len(options)) & 1).astype(bool)[cells.cell_set]
    size = member.sum(axis=1)
    probs = np.where((size == 1)[:, None], member, 0.0)
    # The undecided cells' member predictions, cell after cell, each in registry order.
    g, k = np.nonzero(member & (size > 1)[:, None])
    p = mnl.predict_proba(m, cells.pattern_rows())[cells.cell_pattern[g], k]
    values, ends = p.tolist(), np.cumsum(size[size > 1]).tolist()
    denom = np.array([math.fsum(values[a:b]) for a, b in zip([0, *ends], ends)])
    del values, ends  # before the table copies ``probs``
    if np.any(denom < 1e-12):
        raise ValueError("restricted prediction mass vanished; model is degenerate")
    probs[g, k] = p / np.repeat(denom, size[size > 1])
    return TransitionTable(options, probs, cells)


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
    table, and sums each party's column of the table weighted by the
    cells' total weights, exactly rounded as ``math.fsum`` rounds.
    """
    penalty = mnl.PenaltySpec.none() if penalty is None else penalty
    constraint = mnl.Constraint.symmetric() if constraint is None else constraint
    # The design is dropped after the fit, before the table is built.
    model, report = mnl.fit(decided_design(s), penalty, constraint, options)
    table = transition_probabilities(model, s)
    cell_weights = np.bincount(s.cells.index, weights=s.cells.weights, minlength=len(table.probs))
    # Only the nonzero entries: a dense product would cost exact_sums several (cells x K) temporaries.
    g, k = np.nonzero(table.probs)
    sums = exact_sums(cell_weights[g] * table.probs[g, k], k, len(table.options))
    shares = {code: rounded(total) / s.total_weight for code, total in zip(table.options, sums)}
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
