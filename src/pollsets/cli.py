"""Command-line surface for the set-valued poll pipeline.

Subcommands: describe, forecast, bounds, coalitions, ontic, simulate.
Data goes to stdout or --out; diagnostics go to stderr; exit code 0
means the requested artifact was fully written, 2 means a usage or
input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import forecast as fc
from . import mnl, ontic, simulate, svgplot
from .bounds import (
    AllocationConstraint,
    IntervalForecast,
    Majority,
    dempster_bounds,
    constrained_bounds,
    coalition_report,
    parse_coalitions,
)
from .data import PartyRegistry, group_counts, parse_survey, undecided_share, validate

DEFAULT_REGISTRY = "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE"


def _read_text(path: Path) -> str:
    """A UTF-8 text file's contents with universal newlines, as ``open`` reads it in text mode.

    Bytes that are not UTF-8 raise ValueError naming the file and the
    line of the first bad byte.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at \n, \r and \r\n, the newlines read as one.
        line = len((data[:exc.start] + b"x").splitlines())
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse_list(value: str) -> tuple[str, ...]:
    """Comma-separated inline list, or @file with one entry per line."""
    if value.startswith("@"):
        lines = _read_text(Path(value[1:])).splitlines()
        return tuple(line.strip() for line in lines if line.strip())
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _load_survey(args):
    path = Path(args.input)
    text = _read_text(path)
    if not text.strip():
        raise ValueError(f"input file {path} is empty")
    registry = PartyRegistry(_parse_list(args.registry))
    schema = _parse_list(args.schema) if args.schema else ()
    return parse_survey(text, registry, schema)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _constraint(args) -> AllocationConstraint | None:
    if args.alpha is None and args.beta is None:
        return None
    if args.alpha is None or args.beta is None:
        raise ValueError("--alpha and --beta must be given together")
    return AllocationConstraint(args.alpha, args.beta)


def _interval_rows(f: IntervalForecast) -> list[tuple[str, float, float]]:
    return [(code, iv.lower, iv.upper) for code, iv in f.intervals.items()]


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else repr(cell) for cell in row])
    return out.getvalue()


def cmd_describe(args) -> int:
    survey = _load_survey(args)
    report = validate(survey)
    groups = group_counts(survey, top=args.top)
    rows = [
        (survey.registry.label_of(ps), count, weight)
        for ps, (count, weight) in groups.items()
    ]
    if args.format == "json":
        doc = {
            "n": report.n,
            "total_weight": report.total_weight,
            "undecided_unweighted": report.undecided_unweighted,
            "undecided_weighted": report.undecided_weighted,
            "dropped_rows": report.dropped_rows,
            "groups": [{"parties": p, "count": c, "weight": w} for p, c, w in rows],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        print(
            f"n: {report.n}, undecided share: {report.undecided_unweighted:.4f} unweighted"
            f" / {report.undecided_weighted:.4f} weighted, dropped rows: {report.dropped_rows}",
            file=sys.stderr,
        )
        _emit(_csv_text(["parties", "count", "weight"], rows), args.out)
    return 0


def cmd_forecast(args) -> int:
    survey = _load_survey(args)
    if args.method == "conventional":
        vector = fc.conventional_forecast(survey)
    else:
        vector, _, report = fc.homogeneity_forecast(survey)
        if not report.converged:
            print(
                f"warning: model fit did not converge: stopped on {report.stop_reason}"
                f" after {report.iterations} iterations",
                file=sys.stderr,
            )
    if args.seats:
        included = survey.registry.full_set() if args.seats == "all" else survey.registry.set_of(
            _parse_list(args.seats)
        )
        vector = fc.seat_share(vector, included, survey.registry)
    if args.format == "json":
        doc = {
            "method": args.method,
            "shares": dict(vector.shares),
            "n_decided": survey.n_decided,
            "n_undecided": survey.n_undecided,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(_csv_text(["option", "share"], list(vector.shares.items())), args.out)
    return 0


def cmd_bounds(args) -> int:
    survey = _load_survey(args)
    constraint = _constraint(args)
    result = constrained_bounds(survey, constraint) if constraint else dempster_bounds(survey)
    if args.seats:
        included = survey.registry.full_set() if args.seats == "all" else survey.registry.set_of(
            _parse_list(args.seats)
        )
        result = fc.seat_share(result, included, survey.registry)
    if args.format == "json":
        doc = {code: {"lower": iv.lower, "upper": iv.upper} for code, iv in result.intervals.items()}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv_text(["option", "lower", "upper"], _interval_rows(result)), args.out)
    else:
        title = "Vote share bounds" + (
            f" (alpha={constraint.alpha:g}, beta={constraint.beta:g})" if constraint else ""
        )
        _emit(svgplot.render_interval_bars(list(result.intervals.items()), title=title), args.out)
    return 0


def cmd_coalitions(args) -> int:
    survey = _load_survey(args)
    constraint = _constraint(args)
    specs = parse_coalitions(_read_text(Path(args.coalitions)), survey.registry)
    report = coalition_report(survey, specs, constraint, threshold=args.threshold)
    guaranteed = sum(1 for _, _, m in report if m is Majority.GUARANTEED)
    possible = sum(1 for _, _, m in report if m is Majority.POSSIBLE)
    print(f"guaranteed: {guaranteed}, possible: {possible}", file=sys.stderr)
    if args.format == "json":
        doc = {
            "coalitions": [
                {"name": n, "lower": iv.lower, "upper": iv.upper, "classification": m.value}
                for n, iv, m in report
            ],
            "guaranteed": guaranteed,
            "possible": possible,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        rows = [(n, iv.lower, iv.upper, m.value) for n, iv, m in report]
        _emit(_csv_text(["coalition", "lower", "upper", "classification"], rows), args.out)
    else:
        _emit(
            svgplot.render_interval_bars(
                [(n, iv) for n, iv, _ in report],
                title="Coalition share bounds",
                threshold=args.threshold,
            ),
            args.out,
        )
    return 0


def cmd_ontic(args) -> int:
    survey = _load_survey(args)
    if not survey.schema:
        raise ValueError("ontic fitting requires a covariate schema (--schema)")
    cats, dropped = ontic.build_ontic_categories(survey, args.k)
    design = ontic.ontic_design(survey, cats)
    grid = mnl.default_lambda_grid(design, mnl.Constraint.symmetric(), points=args.grid_points)
    model, table, best_lam = ontic.fit_ontic(survey, cats, grid, folds=args.folds, seed=args.seed)
    print(f"categories: {len(cats)}, respondents dropped: {dropped}", file=sys.stderr)
    print(f"selected lambda: {best_lam!r}", file=sys.stderr)
    if args.path_out:
        path = ontic.regularization_path(survey, cats, grid)
        Path(args.path_out).write_text(ontic.path_to_csv(path), encoding="utf-8")
    if args.format == "json":
        _emit(table.to_json(), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return 0


def cmd_simulate(args) -> int:
    registry = PartyRegistry(_parse_list(args.registry))
    names = _parse_list(args.covariates) if args.covariates else ()
    if args.coef_file:
        coef = json.loads(_read_text(Path(args.coef_file)))
    else:
        coef = simulate.default_true_coefficients(len(registry), len(names))
    config = simulate.SimConfig(
        registry=registry,
        n=args.n,
        coefficients=coef,
        covariate_names=names,
        coarsen_prob=args.q,
        style=simulate.CoarsenStyle(args.style),
        seed=args.seed,
        weight_range=(args.weight_low, args.weight_high),
    )
    survey, truth = simulate.generate_population(config)
    from .data import survey_to_csv

    out = Path(args.out)
    truth_out = Path(args.truth_out) if args.truth_out else out.with_suffix(".truth.csv")
    out.write_text(survey_to_csv(survey), encoding="utf-8")
    truth_out.write_text(simulate.truth_to_csv(survey, truth), encoding="utf-8")
    report = simulate.coverage_check(survey, truth)
    print(f"violations: {len(report.violations)}", file=sys.stderr)
    if report.violations:
        print("violated: " + ", ".join(report.violations), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pollsets",
        description="Forecasts, interval bounds, and choice models for set-valued poll data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, formats=("json", "csv")):
        p.add_argument("--input", required=True, help="survey CSV path")
        p.add_argument("--registry", default=DEFAULT_REGISTRY, help="comma list of party codes, or @file")
        p.add_argument("--schema", default="", help="comma list of covariate labels, or @file")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", help="write data here instead of stdout")

    p = sub.add_parser("describe", help="sample size, undecided share, biggest undecided groups")
    add_io(p)
    p.add_argument("--top", type=int, default=15, help="number of group rows")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("forecast", help="point forecast of vote shares")
    add_io(p)
    p.add_argument("--method", choices=["conventional", "homogeneity"], default="conventional")
    p.add_argument("--seats", help="renormalize over these codes ('all' for the full registry)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("bounds", help="interval-valued vote share bounds")
    add_io(p, ("json", "csv", "svg"))
    p.add_argument("--alpha", type=float, help="within-set lower allocation share")
    p.add_argument("--beta", type=float, help="within-set upper allocation share")
    p.add_argument("--seats", help="renormalize over these codes ('all' for the full registry)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("coalitions", help="bounds and majority classification per coalition")
    add_io(p, ("json", "csv", "svg"))
    p.add_argument("--coalitions", required=True, help="file with one 'name,CODE;CODE' line per coalition")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_coalitions)

    p = sub.add_parser("ontic", help="regularized choice model over consideration-set categories")
    add_io(p)
    p.add_argument("--k", type=int, default=5, help="number of non-singleton categories")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=20)
    p.add_argument("--path-out", help="also write the regularization path CSV here")
    p.set_defaults(func=cmd_ontic)

    p = sub.add_parser("simulate", help="generate a synthetic survey with known latent votes")
    p.add_argument("--registry", default=DEFAULT_REGISTRY)
    p.add_argument("--covariates", default="", help="comma list of covariate names")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.2, help="coarsening probability")
    p.add_argument("--style", choices=[s.value for s in simulate.CoarsenStyle], default="add_random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coef-file", help="JSON matrix of true coefficients")
    p.add_argument("--weight-low", type=float, default=1.0)
    p.add_argument("--weight-high", type=float, default=1.0)
    p.add_argument("--out", default="survey.csv")
    p.add_argument("--truth-out", help="ground truth CSV path (default: <out>.truth.csv)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        # str() of a KeyError quotes its message, and an OSError's first
        # argument is its errno; its str() names the file.
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
