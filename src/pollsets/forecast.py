"""Point forecasts from set-valued polls.

Two estimators are provided.  The conventional forecast simply drops
every undecided respondent and reports weighted shares among the
decided.  The homogeneity forecast instead keeps the undecided: a
choice model fitted on the decided predicts each covariate pattern's
affinity to every party, the prediction is restricted to each cell's
consideration set and renormalized, and the forecast is the cells'
total weights times that one (cells x parties) transition matrix.
The conventional forecast reads only the survey's set sums, so it never
builds the survey's cell table; the homogeneity forecast builds it on
its first read, in ``decided_design``.  A cell's renormalizing sum adds
its members' predictions left to right in registry order, over the cells
of one set size at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mnl
from .data import PartySet, Survey, exact_sums, rounded

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
    ``survey`` and its registry's ``options``, zero outside each cell's
    set, each row summing to one.  Respondent i's row is ``probs[survey.index[i]]``.
    A read-only float64 matrix that owns its data, as ``transition_probabilities``
    makes, is kept as it is; any other input is copied.
    """

    survey: Survey
    probs: np.ndarray

    def __post_init__(self):
        probs = self.probs
        owned = type(probs) is np.ndarray and probs.dtype == np.float64 and probs.flags.owndata
        if not owned or probs.flags.writeable:
            probs = np.array(probs, dtype=float)
            probs.flags.writeable = False
            object.__setattr__(self, "probs", probs)
        if probs.shape != (len(self.survey.cell_set), len(self.options)):
            raise ValueError("transition matrix must have one row per cell and one column per option")
        # Written so that NaN fails the check.
        bad = ~(np.abs(probs.sum(axis=1) - 1.0) <= _ROW_SUM_TOL)
        if bad.any():  # named by the first respondent whose row fails
            raise ValueError(f"transition row {np.argmax(bad[self.survey.index])} does not sum to 1")

    @property
    def options(self) -> tuple[str, ...]:
        return self.survey.registry.options

    @property
    def rows(self) -> tuple[dict[str, float], ...]:
        """Respondent i's row as {option code: probability} over the members of their set, in registry order."""
        s = self.survey
        members = [s.sets[j].indices() for j in s.cell_set.tolist()]
        cell_rows = [{self.options[k]: p[k] for k in ks} for p, ks in zip(self.probs.tolist(), members)]
        return tuple(map(cell_rows.__getitem__, s.index.tolist()))


def conventional_forecast(s: Survey) -> ProbabilityVector:
    """Weighted shares among decided respondents only."""
    decided = {ps.mask: total for ps, total in zip(s.sets, s.set_sums) if ps.is_singleton}
    if not decided:
        raise ValueError("no decided respondents")
    w_total = rounded(sum(decided.values()))
    shares = {code: rounded(decided.get(1 << i, 0)) / w_total for i, code in enumerate(s.registry.options)}
    return ProbabilityVector(shares)


def transition_probabilities(m: mnl.MnlModel, s: Survey) -> TransitionTable:
    """Model predictions restricted to each cell's set and renormalized.

    Predicts once per distinct covariate pattern.  A decided cell gets
    1.0 on its party and uses no prediction; an undecided cell divides
    its members' predictions by their sum, added left to right in
    registry order, which must be a positive normal float.  Cells are
    taken a set size at a time, as one (cells, size) matrix of member
    predictions, so no row is padded to the largest set.  A party no
    decided respondent chose keeps its row where the fit starts (see
    ``mnl``), so a set made only of such parties splits evenly: their
    held rows are equal.
    """
    options = s.registry.options
    if m.n_categories != len(options):
        raise ValueError("model categories do not match the registry")
    if m.n_predictors != 1 + len(s.schema):
        raise ValueError("model predictors do not match the survey covariate schema")
    predictions = mnl.predict_proba(m, np.hstack((np.ones((len(s.patterns), 1)), s.patterns)))
    set_size = np.array([ps.size for ps in s.sets], dtype=np.intp)
    cell_size = set_size[s.cell_set]
    probs = np.zeros((len(cell_size), len(options)))
    for size in sorted(set(set_size.tolist())):
        of_size = np.flatnonzero(set_size == size)
        cells = np.flatnonzero(cell_size == size)
        # Each cell's members, in registry order: its set's row among the sets of this size.
        members = np.array([s.sets[j].indices() for j in of_size.tolist()], dtype=np.intp)
        k = members[np.searchsorted(of_size, s.cell_set[cells])]
        if size == 1:
            probs[cells, k[:, 0]] = 1.0
            continue
        rows = predictions[s.cell_pattern[cells][:, None], k]
        denom = rows[:, 0].copy()
        for column in rows.T[1:]:
            denom += column
        if not np.all(denom >= sys.float_info.min):
            raise ValueError("restricted prediction mass vanished; model is degenerate")
        rows /= denom[:, None]
        probs[cells[:, None], k] = rows
    probs.flags.writeable = False
    return TransitionTable(s, probs)


def decided_design(s: Survey) -> mnl.DesignData:
    """Design data over decided respondents, categories in registry order."""
    d = mnl.DesignData.from_survey(s, tuple(map(s.registry.singleton, s.registry.options)))
    if not d.n:
        raise ValueError("no decided respondents")
    return d


def homogeneity_forecast(s: Survey) -> tuple[ProbabilityVector, TransitionTable, mnl.FitReport]:
    """Forecast assuming the undecided choose within their sets like the decided.

    Fits the unpenalized symmetric choice model on the decided, builds the
    transition table, and sums each party's column weighted by the cells'
    total weights, exactly rounded as ``math.fsum`` rounds.
    """
    # The design is dropped after the fit, before the table is built.
    model, report = mnl.fit(decided_design(s), mnl.PenaltySpec.none())
    table = transition_probabilities(model, s)
    cell_weights = np.bincount(s.index, weights=s.weights, minlength=len(table.probs))
    # Only the nonzero entries: a dense product would cost exact_sums several (cells x K) temporaries.
    g, k = np.nonzero(table.probs)
    sums = exact_sums(cell_weights[g] * table.probs[g, k], k, len(table.options))
    shares = {code: rounded(total) / s.total_weight for code, total in zip(table.options, sums)}
    # Exact renormalization absorbs accumulated float error in the row products.
    total = math.fsum(shares.values())
    shares = {code: v / total for code, v in shares.items()}
    return ProbabilityVector(shares), table, report


def seat_share(p: ProbabilityVector, included: PartySet, registry) -> ProbabilityVector:
    """Renormalize a point forecast's shares over the included parties (for intervals see ``bounds.seat_bounds``)."""
    codes = registry.codes_of(included)
    total = math.fsum(p.shares[c] for c in codes)
    if total <= 0:
        raise ValueError("included shares sum to zero")
    return ProbabilityVector({c: p.shares[c] / total for c in codes})
