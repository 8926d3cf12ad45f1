"""Choice modeling over the extended state space of consideration sets.

Instead of resolving an undecided respondent to a single party, each of
the most common consideration sets becomes a category of its own, next
to the singleton categories of the decided.  A symmetric-constraint
multinomial logit with a group-lasso penalty per covariate then
characterizes which socioeconomic variables separate those groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mnl
from .data import PartySet, Survey, csv_table, group_counts


@dataclass(frozen=True)
class CoefficientTable:
    """Fitted coefficients by category and covariate, with zeroed-group flags."""

    categories: tuple[str, ...]
    covariates: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    zeroed: dict[str, bool]


def build_ontic_categories(s: Survey, k: int) -> tuple[tuple[PartySet, ...], int]:
    """All registry singletons in registry order, then the first k non-singleton sets of ``group_counts``.

    So frequency ties break by registry-index lexicographic order of the
    set.  Returns the categories and the count of respondents whose set
    falls outside them (they are excluded from ontic fitting).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    groups = group_counts(s)
    undecided = [ps for ps in groups if not ps.is_singleton]
    if k > len(undecided):
        raise ValueError(f"k={k} exceeds the {len(undecided)} distinct non-singleton sets observed")
    cats = tuple(s.registry.singleton(code) for code in s.registry.options) + tuple(undecided[:k])
    kept = set(cats)
    dropped = sum(n for ps, (n, _) in groups.items() if ps not in kept)
    return cats, dropped


def ontic_design(s: Survey, cats: tuple[PartySet, ...]) -> mnl.DesignData:
    """Design data mapping each retained respondent to its category index.

    A covariate that is 1 for every retained respondent duplicates the
    intercept, so no penalty can tell the two apart; it raises ValueError.
    A covariate that is 0 for all of them is kept, and its group is zeroed.
    """
    index = {ps: i for i, ps in enumerate(cats)}
    d = mnl.DesignData.from_groups(*s.design_groups([index.get(ps, -1) for ps in s.sets]), len(cats))
    if not d.n:
        raise ValueError("no respondents fall into the ontic categories")
    constant = [name for name, ones in zip(s.schema, d.xu[:, 1:].all(axis=0).tolist()) if ones]
    if constant:
        raise ValueError(
            f"covariate {constant[0]!r} is 1 for every respondent in the ontic categories,"
            " so it duplicates the intercept"
        )
    return d


def _coefficient_table(s: Survey, cats: tuple[PartySet, ...], model: mnl.MnlModel) -> CoefficientTable:
    labels = tuple(s.registry.label_of(ps) for ps in cats)
    covariates = ("intercept", *s.schema)
    coef = model.coefficients
    zeroed = {
        name: bool(np.all(coef[:, j] == 0.0))
        for j, name in enumerate(s.schema, start=1)
    }
    values = tuple(tuple(float(v) for v in row) for row in coef)
    return CoefficientTable(labels, covariates, values, zeroed)


def fit_ontic(
    s: Survey,
    cats: tuple[PartySet, ...],
    lambda_grid=None,
    folds: int = 5,
    seed: int = 0,
    repeats: int = 1,
    *,
    design: mnl.DesignData | None = None,
    return_path: bool = False,
):
    """Cross-validated group-lasso fit over the ontic categories.

    ``design`` is ``ontic_design(s, cats)``, built here if not given.
    With ``return_path`` a fourth item holds ``regularization_path``
    over the same grid, fitted in the cross-validation stacks.
    """
    if design is None:
        design = ontic_design(s, cats)
    constraint = mnl.Constraint.symmetric()
    grid = mnl.default_lambda_grid(design, constraint) if lambda_grid is None else [float(v) for v in lambda_grid]
    cv = mnl.cross_validate(design, grid, folds, seed, constraint, repeats=repeats, return_path=return_path)
    best_lam = cv[0]
    model, _ = mnl.fit(design, mnl.PenaltySpec.group_lasso(best_lam), constraint)
    fitted = model, _coefficient_table(s, cats, model), best_lam
    return (*fitted, _path(s, grid, cv[2])) if return_path else fitted


def regularization_path(
    s: Survey,
    cats: tuple[PartySet, ...],
    lambda_grid,
    options: mnl.FitOptions = mnl.FitOptions(),
) -> list[tuple[float, dict[str, float]]]:
    """Per-covariate group norms along a descending lambda grid, warm-started."""
    grid = [float(v) for v in lambda_grid]
    return _path(s, grid, mnl.fit_path(ontic_design(s, cats), grid, mnl.Constraint.symmetric(), options))


def _path(s: Survey, grid: list[float], reports: list[mnl.FitReport]) -> list[tuple[float, dict[str, float]]]:
    return [(lam, dict(zip(s.schema, r.group_norms))) for lam, r in zip(grid, reports)]


def path_to_csv(path: list[tuple[float, dict[str, float]]]) -> str:
    if not path:
        return ""
    names = list(path[0][1])
    return csv_table(["lambda", *names], ((lam, *(norms[n] for n in names)) for lam, norms in path))
