"""Command-line surface for the set-valued poll pipeline.

Subcommands: describe, forecast, bounds, coalitions, ontic, simulate.
Data goes to stdout or --out; diagnostics go to stderr; exit code 0
means the requested artifact was fully written, 2 means a usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import forecast as fc
from . import mnl, ontic, simulate, svgplot
from .bounds import AllocationConstraint, Majority, coalition_report, constrained_bounds, dempster_bounds
from .bounds import parse_coalitions, seat_bounds
from .data import PartyRegistry, PartySet, _NotUTF8, _utf8_text, csv_table, group_counts, parse_survey
from .data import survey_to_csv, validate

DEFAULT_REGISTRY = "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE"


def _read_text(path: Path) -> str:
    """A UTF-8 text file's contents with universal newlines, as ``open`` reads it in text mode.

    A leading byte order mark is dropped.  Bytes that are not UTF-8
    raise ValueError naming the file and the line of the first bad byte.
    """
    try:
        text = _utf8_text(path.read_bytes()).removeprefix("\ufeff")
    except _NotUTF8 as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    """The survey of ``--input``, whose bytes ``parse_survey`` reads as they are."""
    path = Path(args.input)
    data = path.read_bytes()
    if not data.removeprefix(b"\xef\xbb\xbf").lstrip():
        raise ValueError(f"input file {path} is empty")
    registry = PartyRegistry(_parse_list(args.registry))
    schema = _parse_list(args.schema) if args.schema else ()
    try:
        return parse_survey(data, registry, schema)
    except _NotUTF8 as exc:
        raise ValueError(f"{path}: {exc}") from None


def _render(args, doc, header, rows, bars=None, note: str = "") -> int:
    """Write a command's result in ``--format`` to ``--out`` or stdout; returns exit code 0.

    JSON is ``doc``, CSV is the table of ``header`` and ``rows``, and SVG
    is ``svgplot.render_interval_bars(**bars)``.  ``note``, a summary the
    CSV table leaves out, goes to stderr before a CSV table is written.
    """
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        if note:
            print(note, file=sys.stderr)
        text = csv_table(header, rows)
    else:
        text = svgplot.render_interval_bars(**bars)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _distinct_files(flag: str, path, other_flag: str, other) -> None:
    """Raise ValueError if ``path`` and ``other`` name the same file, by name or by link."""
    path, other = Path(path), Path(other)
    if path.resolve() == other.resolve() or path.exists() and other.exists() and path.samefile(other):
        raise ValueError(f"{flag} and {other_flag} name the same file: {path}")


def _truth_out(args) -> Path:
    """Where ``simulate`` writes the ground truth: ``--truth-out``, or ``--out`` with the suffix ``.truth.csv``."""
    return Path(args.truth_out) if args.truth_out else Path(args.out).with_suffix(".truth.csv")


def _check_files(args) -> None:
    """Raise ValueError if a file the command writes is another file it writes or a file it reads.

    Called before anything is read or written.  The command reads
    ``--input``, ``--coalitions``, ``--coef-file`` and the ``@file`` lists
    of ``--registry``, ``--schema``, ``--covariates`` and ``--seats``.
    """
    given = {f"--{name.replace('_', '-')}": value for name, value in vars(args).items() if value}
    written = [(flag, given[flag]) for flag in ("--path-out", "--out") if flag in given]
    if args.command == "simulate":
        written.append(("--truth-out", _truth_out(args)))
    read = [(flag, given[flag]) for flag in ("--input", "--coalitions", "--coef-file") if flag in given]
    for flag in ("--registry", "--schema", "--covariates", "--seats"):
        if given.get(flag, "").startswith("@"):
            read.append((flag, given[flag][1:]))
    for i, (flag, path) in enumerate(written):
        for other_flag, other in written[i + 1 :] + read:
            _distinct_files(flag, path, other_flag, other)


def _constraint(args) -> AllocationConstraint | None:
    if args.alpha is None and args.beta is None:
        return None
    if args.alpha is None or args.beta is None:
        raise ValueError("--alpha and --beta must be given together")
    return AllocationConstraint(args.alpha, args.beta)


def _seats(args, registry: PartyRegistry) -> PartySet:
    """The parties ``--seats`` names."""
    try:
        return registry.full_set() if args.seats == "all" else registry.set_of(_parse_list(args.seats))
    except ValueError as exc:
        raise ValueError(f"--seats: {exc}") from None


def cmd_describe(args) -> int:
    survey = _load_survey(args)
    report = validate(survey)
    groups = group_counts(survey, top=args.top)
    rows = [
        (survey.registry.label_of(ps), count, weight)
        for ps, (count, weight) in groups.items()
    ]
    doc = {
        "n": report.n,
        "total_weight": report.total_weight,
        "undecided_unweighted": report.undecided_unweighted,
        "undecided_weighted": report.undecided_weighted,
        "dropped_rows": report.dropped_rows,
        "groups": [{"parties": p, "count": c, "weight": w} for p, c, w in rows],
    }
    note = (
        f"n: {report.n}, undecided share: {report.undecided_unweighted:.4f} unweighted"
        f" / {report.undecided_weighted:.4f} weighted, dropped rows: {report.dropped_rows}"
    )
    return _render(args, doc, ["parties", "count", "weight"], rows, note=note)


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
    if args.seats is not None:
        vector = fc.seat_share(vector, _seats(args, survey.registry), survey.registry)
    doc = {
        "method": args.method,
        "shares": dict(vector.shares),
        "n_decided": survey.n_decided,
        "n_undecided": survey.n_undecided,
    }
    return _render(args, doc, ["option", "share"], vector.shares.items())


def cmd_bounds(args) -> int:
    survey = _load_survey(args)
    constraint = _constraint(args)
    if args.seats is not None:
        result = seat_bounds(survey, _seats(args, survey.registry), constraint)
    else:
        result = constrained_bounds(survey, constraint) if constraint else dempster_bounds(survey)
    rows = [(code, iv.lower, iv.upper) for code, iv in result.intervals.items()]
    doc = {code: {"lower": lower, "upper": upper} for code, lower, upper in rows}
    box = f" (alpha={constraint.alpha:g}, beta={constraint.beta:g})" if constraint else ""
    bars = dict(items=list(result.intervals.items()), title="Vote share bounds" + box)
    return _render(args, doc, ["option", "lower", "upper"], rows, bars)


def cmd_coalitions(args) -> int:
    survey = _load_survey(args)
    constraint = _constraint(args)
    specs = parse_coalitions(_read_text(Path(args.coalitions)), survey.registry)
    report = coalition_report(survey, specs, constraint, threshold=args.threshold)
    guaranteed = sum(1 for _, _, m in report if m is Majority.GUARANTEED)
    possible = sum(1 for _, _, m in report if m is Majority.POSSIBLE)
    print(f"guaranteed: {guaranteed}, possible: {possible}", file=sys.stderr)
    rows = [(n, iv.lower, iv.upper, m.value) for n, iv, m in report]
    doc = {
        "coalitions": [{"name": n, "lower": lo, "upper": up, "classification": c} for n, lo, up, c in rows],
        "guaranteed": guaranteed,
        "possible": possible,
    }
    bars = dict(items=[(n, iv) for n, iv, _ in report], title="Coalition share bounds", threshold=args.threshold)
    return _render(args, doc, ["coalition", "lower", "upper", "classification"], rows, bars)


def cmd_ontic(args) -> int:
    survey = _load_survey(args)
    if not survey.schema:
        raise ValueError("ontic fitting requires a covariate schema (--schema)")
    cats, dropped = ontic.build_ontic_categories(survey, args.k)
    grid = mnl.default_lambda_grid(ontic.ontic_design(survey, cats), points=args.grid_points)
    fitted = ontic.fit_ontic(survey, cats, grid, folds=args.folds, seed=args.seed, return_path=bool(args.path_out))
    table, best_lam = fitted[1:3]
    print(f"categories: {len(cats)}, respondents dropped: {dropped}", file=sys.stderr)
    print(f"selected lambda: {best_lam!r}", file=sys.stderr)
    if args.path_out:
        Path(args.path_out).write_text(ontic.path_to_csv(fitted[3]), encoding="utf-8")
    doc = {
        "categories": list(table.categories),
        "covariates": list(table.covariates),
        "coefficients": [list(row) for row in table.values],
        "zeroed": dict(table.zeroed),
    }
    rows = [(label, *row) for label, row in zip(table.categories, table.values)]
    return _render(args, doc, ["category", *table.covariates], rows)


def cmd_simulate(args) -> int:
    out, truth_out = Path(args.out), _truth_out(args)
    registry = PartyRegistry(_parse_list(args.registry))
    names = _parse_list(args.covariates) if args.covariates else ()
    if args.coef_file:
        path = Path(args.coef_file)
        try:
            coef = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
    # Both files are opened before either is written, so a path that cannot be written fails first.
    with open(out, "w", encoding="utf-8") as survey_file, open(truth_out, "w", encoding="utf-8") as truth_file:
        survey_file.write(survey_to_csv(survey))
        truth_file.write(simulate.truth_to_csv(survey, truth))
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

    def add_box(p):
        p.add_argument("--alpha", type=float, help="within-set lower allocation share")
        p.add_argument("--beta", type=float, help="within-set upper allocation share")

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
    add_box(p)
    p.add_argument("--seats", help="seat shares over these codes ('all' for the full registry)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("coalitions", help="bounds and majority classification per coalition")
    add_io(p, ("json", "csv", "svg"))
    p.add_argument("--coalitions", required=True, help="file with one 'name,CODE;CODE' line per coalition")
    add_box(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_coalitions)

    p = sub.add_parser("ontic", help="regularized choice model over consideration-set categories")
    add_io(p)
    p.add_argument("--k", type=int, default=5, help="number of non-singleton categories")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed of the stratified fold split")
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
        _check_files(args)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        # str() of a KeyError quotes its message, and an OSError's first
        # argument is its errno; its str() names the file.
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
