"""Checks of a large simulated design, run on the files of the CI's large-design step.

That step simulates 50,000 rows over 10 parties and 14 covariates (about
13,000 distinct rows), fits ``pollsets ontic`` on them with a 5-point
grid, and calls one check at a time:

    python scripts/check_large_design.py path PATH_CSV COVARIATES
    python scripts/check_large_design.py csv REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py scan REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py adapter REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py designs REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py homogeneity REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py transitions REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py unnumbered REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py sums REGISTRY COVARIATES SURVEY_CSV...
    python scripts/check_large_design.py boxes REGISTRY COVARIATES SURVEY_CSV...

REGISTRY and COVARIATES are comma lists.  A failed check exits with a
message naming the file; ``homogeneity`` also prints one line per fit,
and ``transitions``, ``sums`` and ``boxes`` one line per file.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from pollsets import PartyRegistry, PartySet, Respondent, Survey, bounds, data, forecast, mnl, ontic, parse_survey
from pollsets import simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import oracles  # noqa: E402

GRID_POINTS = 5
# The step's ``pollsets simulate`` calls: rows, coarsening probability and
# seed, and each output file's weight range.
SIMULATE_N, SIMULATE_Q, SIMULATE_SEED = 50_000, 0.5, 0
WEIGHT_RANGES = {"wide.csv": (1.0, 1.0), "wide_weighted.csv": (0.5, 2.0)}


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


def _simulated(registry: PartyRegistry, schema: tuple[str, ...], path: str):
    """The survey and ground truth that the step's ``pollsets simulate`` call wrote to ``path``, drawn again."""
    coef = simulate.default_true_coefficients(len(registry), len(schema))
    weights = WEIGHT_RANGES.get(Path(path).name)
    if weights is None:
        sys.exit(f"{path}: not one of the simulated files {', '.join(WEIGHT_RANGES)}")
    config = simulate.SimConfig(
        registry, SIMULATE_N, coef, schema, SIMULATE_Q, seed=SIMULATE_SEED, weight_range=weights
    )
    return simulate.generate_population(config)


def check_csv(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Each simulated file reads back as the survey drawn again in-process, and is ``csv.writer``'s rows.

    The parsed file must equal the survey ``generate_population`` draws
    with the step's settings (with equal weight bytes and exact per-set
    sums), its truth file (``SURVEY.truth.csv``) must read back as the
    latent votes' codes, and the file must be, byte for byte, ``csv.writer``
    of its rows with each weight's ``repr``.  Then ``repr``'s text of 10^6
    random positive finite float64 bit patterns must equal the writer's
    array formatter's.
    """
    for path in paths:
        document = Path(path).read_bytes()
        s = parse_survey(document, registry, schema)
        drawn, truth = _simulated(registry, schema, path)
        if not _same(s, drawn):
            sys.exit(f"{path}: the file does not read back as the survey simulate draws")
        with open(Path(path).with_suffix(".truth.csv"), encoding="utf-8", newline="") as f:
            votes = list(csv.reader(f))
        if votes != [["vote"], *([registry.options[v]] for v in truth.votes.tolist())]:
            sys.exit(f"{path}: its truth file does not read back as the latent votes")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["weight", "parties", *schema])
        for w, ps, cov in s.rows():
            writer.writerow([repr(w), ";".join(registry.codes_of(ps)), *map(str, cov)])
        if out.getvalue().encode() != document:
            sys.exit(f"{path}: the file is not csv.writer's rows with repr weights")
    rng = np.random.default_rng(0)
    bits = rng.integers(1, 0x7FF0000000000000, size=10**6, dtype=np.uint64)
    for start in range(0, len(bits), 1 << 14):
        values = bits[start : start + (1 << 14)].view(float)
        text, bounds = data._repr_text(values)
        keep = data._runs(bounds, text.shape[1])
        for value, row, mask in zip(values.tolist(), text, keep):
            if row[mask].tobytes().decode() != repr(value):
                sys.exit(f"the array formatter writes {row[mask].tobytes().decode()!r} for {value!r}")


def check_scan(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """``parse_survey`` reads each file's every spelling by the columnar scan, into the row parser's survey of its text.

    The spellings are the file's bytes, the bytes after a byte order mark,
    with CRLF newlines, with CR newlines, and its text.  The row parser
    must not be called for any of them.  Weights of "1.0" go through the
    decimal decode; 16-17 digit reprs go through float().
    """
    parse_rows = data._parse_rows
    for path in paths:
        raw = Path(path).read_bytes()
        rows = parse_rows(raw.decode(), registry, schema)
        spellings = {
            "bytes": raw,
            "bytes after a byte order mark": b"\xef\xbb\xbf" + raw,
            "CRLF bytes": raw.replace(b"\n", b"\r\n"),
            "CR bytes": raw.replace(b"\n", b"\r"),
            "text": raw.decode(),
        }
        for kind, document in spellings.items():
            declined = []
            with mock.patch.object(data, "_parse_rows", lambda *args: declined.append(kind) or parse_rows(*args)):
                survey = parse_survey(document, registry, schema)
            if declined:
                sys.exit(f"{path}: the columnar scan declined its {kind}")
            if not _same(survey, rows):
                sys.exit(f"{path}: parse_survey of its {kind} and the row parser differ")


def check_adapter(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Each parsed file's rows, as ``Respondent``s, make the same survey through ``Survey(registry, schema, ...)``.

    Same means equal surveys, weight bytes and exact per-set sums.
    """
    for path in paths:
        s = parse_survey(_read(path), registry, schema)
        if not _same(Survey(registry, schema, [Respondent(*row) for row in s.rows()]), s):
            sys.exit(f"{path}: the respondent adapter changed the survey")


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


def check_transitions(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Each undecided cell's transition row is its members' predictions divided by their ``math.fsum``, bit for bit.

    Prints the number of undecided cells and how many of them the
    two-sum kernel (``forecast._row_sums``) handed to ``math.fsum``.
    """
    for path in paths:
        s = parse_survey(_read(path), registry, schema)
        model, _ = mnl.fit(forecast.decided_design(s), mnl.PenaltySpec.none(), mnl.Constraint.symmetric())
        probs = forecast.transition_probabilities(model, s).probs.tolist()
        predictions = mnl.predict_proba(model, np.hstack((np.ones((len(s.patterns), 1)), s.patterns))).tolist()
        members = [ps.indices() for ps in s.sets]
        rows_of_size: dict[int, list[list[float]]] = {}
        for g, (j, c) in enumerate(zip(s.cell_set.tolist(), s.cell_pattern.tolist())):
            if len(members[j]) == 1:
                continue
            row = [predictions[c][k] for k in members[j]]
            total = math.fsum(row)
            if [probs[g][k] for k in members[j]] != [p / total for p in row]:
                sys.exit(f"{path}: transition row of cell {g} is not its predictions over their math.fsum")
            rows_of_size.setdefault(len(row), []).append(row)
        undecided = sum(map(len, rows_of_size.values()))
        fallbacks = sum(len(forecast._row_sums(np.array(rows))[1]) for rows in rows_of_size.values())
        print(f"{path}: {undecided} undecided cells, {fallbacks} summed by the math.fsum fallback")


def check_unnumbered(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """A pass that only describes, bounds and classifies coalitions leaves the cell table unnumbered."""
    box = bounds.AllocationConstraint(0.2, 0.8)
    for path in paths:
        s = parse_survey(Path(path).read_bytes(), registry, schema)
        specs = bounds.parse_coalitions(f"first two,{';'.join(registry.options[:2])}\n", registry)
        data.validate(s)
        data.group_counts(s)
        forecast.conventional_forecast(s)
        bounds.dempster_bounds(s)
        bounds.constrained_bounds(s, box)
        bounds.seat_bounds(s, registry.full_set(), box)
        bounds.coalition_report(s, specs, box)
        if data._CELL_FIELDS & vars(s).keys():
            sys.exit(f"{path}: a pass that only bounds numbered the cell table")


def check_sums(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Exact sums round as ``math.fsum``: each set's weights, and each party's homogeneity products.

    The products are the homogeneity forecast's cell weight times transition
    probability, summed per party.  Prints, per file, whether ``exact_sums``
    split each call's values on one grid or per band of exponents
    (``data._exponent_bands``).
    """
    split, banded = data._exponent_bands, []

    def spy(*args):
        banded.append(True)
        return split(*args)

    data._exponent_bands = spy
    try:
        for path in paths:
            taken = []
            banded.clear()
            s = parse_survey(Path(path).read_bytes(), registry, schema)
            taken.append(f"set sums of {len(s)} weights over {len(s.sets)} sets {_way(banded)}")
            set_of_row = s.cell_set[s.index]
            for j, ps in enumerate(s.sets):
                if data.rounded(s.set_sums[j]).hex() != math.fsum(s.weights[set_of_row == j].tolist()).hex():
                    sys.exit(f"{path}: set {registry.label_of(ps)}'s exact weight sum does not round as math.fsum")
            model, _ = mnl.fit(forecast.decided_design(s), mnl.PenaltySpec.none(), mnl.Constraint.symmetric())
            table = forecast.transition_probabilities(model, s)
            cell_weights = np.bincount(s.index, weights=s.weights, minlength=len(table.probs))
            g, k = np.nonzero(table.probs)
            products = cell_weights[g] * table.probs[g, k]
            banded.clear()
            sums = data.exact_sums(products, k, len(registry))
            taken.append(f"party sums of {len(products)} homogeneity products {_way(banded)}")
            for party, (code, total) in enumerate(zip(registry.options, sums)):
                if data.rounded(total).hex() != math.fsum(products[k == party].tolist()).hex():
                    sys.exit(f"{path}: party {code}'s exact sum of homogeneity products does not round as math.fsum")
            print(f"{path}: " + "; ".join(taken))
    finally:
        data._exponent_bands = split


def _way(banded: list) -> str:
    return "split per band of exponents" if banded else "split on one grid"


# Allocation boxes (alpha, beta).  At (0.1, 0.3) beta_eff = 1/k for every
# two- and three-party set: the box pinches them to the uniform allocation.
BOXES = ((0.2, 0.8), (0.1, 0.6), (0.07, 0.96), (0.1, 0.3))


def check_boxes(registry: PartyRegistry, schema: tuple[str, ...], paths) -> None:
    """Every boxed interval equals the exact per-set computation of ``tests/oracles.py`` bit for bit.

    At each box of BOXES, each ``constrained_bounds`` interval and each
    ``seat_bounds`` interval over the first five parties must be
    float(sum(w * lo_C)) / float(sum(w * (lo_C + hi_R))) and its mirror,
    with w each set's exact weight sum and the factors the extremes of
    the set's allocation box, in rationals (``oracles.boxed_share_bounds``).
    """
    seats = registry.set_of(registry.options[:5])
    for path in paths:
        s = parse_survey(Path(path).read_bytes(), registry, schema)
        weights, compared = oracles.set_weights(s), 0
        for alpha, beta in BOXES:
            c = bounds.AllocationConstraint(alpha, beta)
            full = (registry.full_set(), bounds.constrained_bounds(s, c))
            for included, got in (full, (seats, bounds.seat_bounds(s, seats, c))):
                for code, i in zip(registry.codes_of(included), included.indices()):
                    want = oracles.boxed_share_bounds(weights, PartySet(1 << i), included, c)
                    if (got[code].lower, got[code].upper) != want:
                        over = registry.label_of(included)
                        sys.exit(f"{path}: {code}'s bounds over {over} at {c} are {got[code]}, exactly {want}")
                    compared += 1
        print(f"{path}: {compared} boxed intervals over {len(s.sets)} sets equal the exact per-set bounds")


SURVEY_CHECKS = {
    "csv": check_csv, "scan": check_scan, "adapter": check_adapter, "designs": check_designs,
    "homogeneity": check_homogeneity, "transitions": check_transitions, "unnumbered": check_unnumbered,
    "sums": check_sums, "boxes": check_boxes,
}


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
