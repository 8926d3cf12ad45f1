"""Choice modeling over the extended state space of consideration sets.

Instead of resolving an undecided respondent to a single party, each of
the most common consideration sets becomes a category of its own, next
to the singleton categories of the decided.  A symmetric-constraint
multinomial logit with a group-lasso penalty per covariate then
characterizes which socioeconomic variables separate those groups.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import mnl
from .data import PartySet, Survey


@dataclass(frozen=True)
class OnticCategories:
    """Extended category list: all singletons in registry order, then top sets."""

    categories: tuple[PartySet, ...]

    def __len__(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class CoefficientTable:
    """Fitted coefficients by category and covariate, with zeroed-group flags."""

    categories: tuple[str, ...]
    covariates: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    zeroed: dict[str, bool]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["category", *self.covariates])
        for label, row in zip(self.categories, self.values):
            writer.writerow([label, *(repr(v) for v in row)])
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "categories": list(self.categories),
            "covariates": list(self.covariates),
            "coefficients": [list(row) for row in self.values],
            "zeroed": dict(self.zeroed),
        }
        return json.dumps(doc, indent=2) + "\n"


def build_ontic_categories(s: Survey, k: int) -> tuple[OnticCategories, int]:
    """All registry singletons plus the k most frequent non-singleton sets.

    Frequency ties break by registry-index lexicographic order of the
    set.  Returns the categories and the count of respondents whose set
    falls outside them (they are excluded from ontic fitting).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    cells = s.cells
    set_counts = dict(zip(cells.sets, cells.set_counts.tolist()))
    counts = {ps: n for ps, n in set_counts.items() if not ps.is_singleton}
    if k > len(counts):
        raise ValueError(f"k={k} exceeds the {len(counts)} distinct non-singleton sets observed")
    top = sorted(counts, key=lambda ps: (-counts[ps], ps.sort_key()))[:k]
    singles = tuple(s.registry.singleton(code) for code in s.registry.options)
    cats = OnticCategories(singles + tuple(top))
    kept = set(cats.categories)
    dropped = sum(n for ps, n in set_counts.items() if ps not in kept)
    return cats, dropped


def ontic_design(s: Survey, cats: OnticCategories) -> mnl.DesignData:
    """Design data mapping each retained respondent to its category index."""
    index = {ps: i for i, ps in enumerate(cats.categories)}
    x, y, w = s.cells.design_rows([index.get(ps, -1) for ps in s.cells.sets])
    if not len(y):
        raise ValueError("no respondents fall into the ontic categories")
    return mnl.DesignData(x, y, w, len(cats))


def _coefficient_table(s: Survey, cats: OnticCategories, model: mnl.MnlModel) -> CoefficientTable:
    labels = tuple(s.registry.label_of(ps) for ps in cats.categories)
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
    cats: OnticCategories,
    lambda_grid=None,
    folds: int = 5,
    seed: int = 0,
    options: mnl.FitOptions = mnl.FitOptions(),
    repeats: int = 1,
) -> tuple[mnl.MnlModel, CoefficientTable, float]:
    """Cross-validated group-lasso fit over the ontic categories."""
    design = ontic_design(s, cats)
    constraint = mnl.Constraint.symmetric()
    if lambda_grid is None:
        lambda_grid = mnl.default_lambda_grid(design, constraint)
    best_lam, _ = mnl.cross_validate(design, lambda_grid, folds, seed, constraint, options, repeats)
    model, _ = mnl.fit(design, mnl.PenaltySpec.group_lasso(best_lam), constraint, options)
    return model, _coefficient_table(s, cats, model), best_lam


def regularization_path(
    s: Survey,
    cats: OnticCategories,
    lambda_grid,
    options: mnl.FitOptions = mnl.FitOptions(),
) -> list[tuple[float, dict[str, float]]]:
    """Per-covariate group norms along a descending lambda grid, warm-started."""
    grid = [float(v) for v in lambda_grid]
    if any(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be descending")
    design = ontic_design(s, cats)
    constraint = mnl.Constraint.symmetric()
    path = []
    warm = None
    for lam in grid:
        model, report = mnl.fit(design, mnl.PenaltySpec.group_lasso(lam), constraint, options, start=warm)
        warm = model.coefficients
        path.append((lam, dict(zip(s.schema, report.group_norms))))
    return path


def path_to_csv(path: list[tuple[float, dict[str, float]]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if not path:
        return ""
    names = list(path[0][1])
    writer.writerow(["lambda", *names])
    for lam, norms in path:
        writer.writerow([repr(lam), *(repr(norms[n]) for n in names)])
    return out.getvalue()
