"""Checks of a large simulated design, run on the files of the CI's large-design step.

That step simulates 50,000 rows over 10 parties and 14 covariates (about
13,000 distinct rows), fits ``pollsets ontic`` on them with a 5-point
grid, and calls one check at a time:

    python scripts/check_large_design.py path PATH_CSV COVARIATES
    python scripts/check_large_design.py scan REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py json REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py designs REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py homogeneity REGISTRY COVARIATES SURVEY_CSV...

REGISTRY and COVARIATES are comma lists.  A failed check exits with a
message naming the file; ``homogeneity`` also prints one line per fit.
"""

from __future__ import annotations

import csv
import sys

import numpy as np

from pollsets import PartyRegistry, data, forecast, mnl, ontic, parse_survey

GRID_POINTS = 5


def check_path(path: str, covariates: str) -> None:
    """The regularization path CSV: a header, then one row of group norms per grid point."""
    names = covariates.split(",")
    with open(path, encoding="utf-8") as f:
        rows = list(csv.reader(f))
    cells = 1 + len(names)
    if rows[0] != ["lambda", *names] or len(rows) != 1 + GRID_POINTS or any(len(row) != cells for row in rows):
        sys.exit(f"{path}: want a header and {GRID_POINTS} rows of {cells} cells, got {len(rows)} rows")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def check_scan(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """The columnar scan takes each file and reads it as the row parser does, into equal surveys.

    Weights of "1.0" go through the decimal decode; 16-17 digit reprs go through float().
    """
    for path in paths:
        text = _read(path)
        fast, rows = data._parse_clean(text, registry, schema), data._parse_rows(text, registry, schema)
        if fast is None:
            sys.exit(f"{path}: the columnar scan declined")
        if not _same(fast, rows):
            sys.exit(f"{path}: the columnar scan and the row parser differ")


def check_json(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Each parsed file survives ``survey_to_json`` and ``survey_from_json`` unchanged, weight bytes included."""
    for path in paths:
        s = parse_survey(_read(path), registry, schema)
        if not _same(data.survey_from_json(data.survey_to_json(s)), s):
            sys.exit(f"{path}: the JSON round trip changed the survey")


def _same(a, b) -> bool:
    """Equal surveys, with equal weight bytes and equal exact per-set sums."""
    return a == b and a.weights.tobytes() == b.weights.tobytes() and a.set_sums == b.set_sums


def check_designs(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """The decided and ontic (k = 5) designs equal the row constructor's designs bit for bit.

    Their lambda_max, the top of the penalty grid, comes from the grouped
    counts; it must match the null-model gradient summed over respondent
    rows within 1e-12 relative, under both constraints.
    """
    for path in paths:
        s = parse_survey(_read(path), registry, schema)
        cats, _ = ontic.build_ontic_categories(s, 5)
        decided, ontic_design = forecast.decided_design(s), ontic.ontic_design(s, cats)
        for name, d, kept in (("decided", decided, cats[: len(registry)]), ("ontic", ontic_design, cats)):
            index = {ps: i for i, ps in enumerate(kept)}
            rows = [(w, index[ps], (1, *cov)) for w, ps, cov in s.rows() if ps in index]
            want = mnl.DesignData([x for *_, x in rows], [c for _, c, _ in rows], [w for w, *_ in rows], len(kept))
            for field in ("xu", "group", "y", "w", "counts", "totals"):
                a, b = getattr(d, field), getattr(want, field)
                if (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes()):
                    sys.exit(f"{path}: the {name} design differs from the row constructor in {field}")
            x = np.array([x for *_, x in rows], dtype=float)
            y, w = np.array([c for _, c, _ in rows]), np.array([w for w, *_ in rows])
            for constraint in (mnl.Constraint.symmetric(), mnl.Constraint.reference(0)):
                scores = x @ mnl.initial_coefficients(d, constraint).T
                scores -= scores.max(axis=1, keepdims=True)
                resid = np.exp(scores - np.log(np.exp(scores).sum(axis=1, keepdims=True)))
                resid[np.arange(len(y)), y] -= 1.0
                grad = mnl.project_constraint((resid * w[:, None]).T @ x, constraint)
                top, want_top = mnl.lambda_max(d, constraint), max(mnl.group_norms(grad), default=0.0)
                if not abs(top - want_top) <= 1e-12 * want_top:
                    sys.exit(f"{path}: the {name} design has lambda_max {top!r}, per respondent {want_top!r}")


def check_homogeneity(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """The homogeneity forecast's fit reaches first-order optimality.

    It must report converged, with no projected-gradient entry above 1e-8
    times the decided weight.  So must the same fit with P10 added to the
    registry, under both constraints: no row names P10, so Newton holds
    its row at the start and solves for the other rows only.
    """
    codes, symmetric = ",".join(registry.options), mnl.Constraint.symmetric()
    fits = [(codes, symmetric), (codes + ",P10", symmetric), (codes + ",P10", mnl.Constraint.reference(0))]
    for path in paths:
        text = _read(path)
        for fit_codes, constraint in fits:
            d = forecast.decided_design(parse_survey(text, PartyRegistry(tuple(fit_codes.split(","))), schema))
            model, report = mnl.fit(d, mnl.PenaltySpec.none(), constraint)
            worst, weight = float(np.max(np.abs(mnl.nll_and_gradient(model, d)[1]))), float(d.w.sum())
            fit = f"{d.n_categories} parties, {constraint.kind}"
            print(
                f"{path}, {fit}: {report.stop_reason} after {report.iterations} iterations,"
                f" projected gradient {worst:.2e}, decided weight {weight:.1f}"
            )
            if not (report.converged and worst <= 1e-8 * weight):
                sys.exit(f"{path}: the homogeneity fit ({fit}) is not at its optimum")


SURVEY_CHECKS = {"scan": check_scan, "json": check_json, "designs": check_designs, "homogeneity": check_homogeneity}


def main(argv: list[str]) -> None:
    if len(argv) == 3 and argv[0] == "path":
        check_path(argv[1], argv[2])
    elif len(argv) >= 4 and argv[0] in SURVEY_CHECKS:
        registry, schema = PartyRegistry(tuple(argv[1].split(","))), tuple(argv[2].split(","))
        SURVEY_CHECKS[argv[0]](registry, schema, argv[3:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
