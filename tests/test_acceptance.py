"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
calibrated at runtime.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pollsets import (
    AllocationConstraint,
    PartyRegistry,
    PartySet,
    Respondent,
    Survey,
    build_ontic_categories,
    constrained_bounds,
    conventional_forecast,
    coverage_check,
    dempster_bounds,
    event_bounds,
    fit_ontic,
    generate_population,
    homogeneity_forecast,
    mnl,
    transition_probabilities,
)
from pollsets.cli import main as cli_main
from pollsets.ontic import ontic_design, regularization_path
from pollsets.simulate import CoarsenStyle, SimConfig, default_true_coefficients, oracle_constrained_bounds
from conftest import random_event, random_survey, survey_corpus
from oracles import completion_bounds


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def corpus_200():
    return survey_corpus(200, seed=1000, max_n=30, max_undecided=12, completion_limit=1200)


def test_oracle_equivalence_dempster():
    with criterion("oracle equivalence (Dempster): bitwise equality on 200 random surveys"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for s in corpus_200():
            forecast = dempster_bounds(s)
            for code in s.registry.options:
                oracle = completion_bounds(s, s.registry.singleton(code))
                closed = forecast[code]
                assert (oracle.lower, oracle.upper) == (closed.lower, closed.upper)
            for _ in range(3):
                event = random_event(rng, s)
                oracle = completion_bounds(s, event)
                closed = event_bounds(s, event)
                assert (oracle.lower, oracle.upper) == (closed.lower, closed.upper)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_oracle_equivalence_constrained():
    with criterion("oracle equivalence (constrained): within one grid step on 100 random surveys"):
        start = time.perf_counter()
        rng = np.random.default_rng(78)
        alphas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
        betas = [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
        step = 0.01
        for i in range(100):
            s = random_survey(np.random.default_rng(2000 + i), max_n=30, max_undecided=12, completion_limit=1200)
            c = AllocationConstraint(float(rng.choice(alphas)), float(rng.choice(betas)))
            closed = constrained_bounds(s, c)
            for code in s.registry.options:
                oracle = oracle_constrained_bounds(s, s.registry.singleton(code), c, step=step)
                assert abs(oracle.lower - closed[code].lower) <= step + 1e-9
                assert abs(oracle.upper - closed[code].upper) <= step + 1e-9
            for _ in range(5):
                event = random_event(rng, s)
                oracle = oracle_constrained_bounds(s, event, c, step=step)
                closed_event = event_bounds(s, event, c)
                assert abs(oracle.lower - closed_event.lower) <= step + 1e-9
                assert abs(oracle.upper - closed_event.upper) <= step + 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5 min"


def test_coverage_of_ground_truth():
    with criterion("coverage: 1000 simulated populations, zero violations"):
        registry = PartyRegistry(("A", "B", "C", "D", "E", "F"))
        coef = default_true_coefficients(6, 3)
        violations = 0
        for i in range(1000):
            q = (0.1, 0.3, 0.6)[i % 3]
            style = CoarsenStyle.ADD_RANDOM if i % 2 == 0 else CoarsenStyle.NEIGHBOR
            config = SimConfig(
                registry=registry,
                n=500,
                coefficients=coef,
                covariate_names=("u", "v", "w"),
                coarsen_prob=q,
                style=style,
                seed=i,
                weight_range=(0.5, 2.0),
            )
            survey, truth = generate_population(config)
            report = coverage_check(survey, truth)
            violations += len(report.violations)
        assert violations == 0


def test_nesting_and_duality():
    with criterion("nesting and duality across the random-survey corpus"):
        rng = np.random.default_rng(79)
        for s in corpus_200():
            alpha = float(rng.uniform(0, 0.5))
            beta = float(rng.uniform(alpha, 1.0))
            narrow = constrained_bounds(s, AllocationConstraint(alpha, beta))
            wide = dempster_bounds(s)
            for code in s.registry.options:
                assert narrow[code].lower >= wide[code].lower - 1e-12
                assert narrow[code].upper <= wide[code].upper + 1e-12
            full = s.registry.full_set().mask
            for _ in range(3):
                event = random_event(rng, s)
                if event.mask == full:
                    continue
                complement = PartySet(full & ~event.mask)
                assert abs(event_bounds(s, event).upper - (1.0 - event_bounds(s, complement).lower)) <= 1e-12


def test_homogeneity_consistency():
    with criterion("homogeneity forecast: inside Dempster intervals, degenerate without undecided"):
        for i, s in enumerate(corpus_200()):
            hom, _, _ = homogeneity_forecast(s)
            bounds = dempster_bounds(s)
            for code in s.registry.options:
                assert bounds[code].contains(hom[code], slack=1e-9), f"survey {i}, option {code}"
        for i in range(20):
            s = random_survey(np.random.default_rng(3000 + i), max_n=25, all_decided=True)
            hom, _, _ = homogeneity_forecast(s)
            conv = conventional_forecast(s)
            for code in s.registry.options:
                assert abs(hom[code] - conv[code]) <= 1e-12
        reg = PartyRegistry(("A", "B", "C"))
        fixture = Survey(
            reg,
            (),
            (
                Respondent(1.0, reg.singleton("A")),
                Respondent(1.0, reg.singleton("A")),
                Respondent(1.0, reg.singleton("B")),
                Respondent(1.0, reg.set_of(["A", "B"])),
                Respondent(1.0, reg.singleton("C")),
            ),
        )
        hom, _, _ = homogeneity_forecast(fixture)
        assert abs(hom["A"] - (2 + 2 / 3) / 5) < 1e-6
        assert abs(hom["B"] - (1 + 1 / 3) / 5) < 1e-6
        assert abs(hom["C"] - 0.2) < 1e-6


def test_transition_row_unit_check():
    with criterion("transition row for {A,B} at decided shares (0.5, 0.25, 0.25) equals (2/3, 1/3)"):
        reg = PartyRegistry(("A", "B", "C"))
        coef = np.log(np.array([0.5, 0.25, 0.25]))[:, None]
        coef -= coef.mean()
        model = mnl.MnlModel(coef, mnl.PenaltySpec.none())
        s = Survey(reg, (), (Respondent(1.0, reg.set_of(["A", "B"])),))
        row = transition_probabilities(model, s).rows[0]
        assert abs(row["A"] - 2 / 3) <= 1e-12
        assert abs(row["B"] - 1 / 3) <= 1e-12


def test_optimizer_correctness():
    with criterion("optimizer: gradient, intercept-only MLE, prox oracle, path monotonicity"):
        # Gradient versus central finite differences, 5 seeds.
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            x = np.hstack([np.ones((5, 1)), rng.integers(0, 2, (5, 2)).astype(float)])
            y = rng.integers(0, 3, 5)
            while len(np.unique(y)) < 2:
                y = rng.integers(0, 3, 5)
            d = mnl.DesignData(x, y, rng.uniform(0.5, 2.0, 5), 3)
            coef = mnl.project_constraint(rng.normal(size=(3, 3)))
            model = mnl.MnlModel(coef, mnl.PenaltySpec.ridge(0.05))
            _, grad = mnl.nll_and_gradient(model, d)
            h = 1e-5
            approx = np.zeros_like(coef)
            for i in range(3):
                for j in range(3):
                    up, down = coef.copy(), coef.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    approx[i, j] = (
                        mnl._smooth_parts(up, d, model.penalty.ridge_coefficient)[0]
                        - mnl._smooth_parts(down, d, model.penalty.ridge_coefficient)[0]
                    ) / (2 * h)
            approx = mnl.project_constraint(approx)
            assert np.linalg.norm(grad - approx) / np.linalg.norm(grad) < 1e-6

        # Intercept-only MLE equals weighted empirical frequencies.
        rng = np.random.default_rng(500)
        y = rng.integers(0, 4, 60)
        w = rng.uniform(0.2, 3.0, 60)
        d = mnl.DesignData(np.ones((60, 1)), y, w, 4)
        model, _ = mnl.fit(d, mnl.PenaltySpec.none())
        probs = mnl.predict_proba(model, np.array([1.0]))
        freqs = np.array([w[y == k].sum() for k in range(4)]) / w.sum()
        assert np.max(np.abs(probs - freqs)) < 1e-6

        # Prox against a refined 2-d grid search.
        for v, t in [((0.9, -0.3), 0.4), ((1.5, 2.0), 1.0), ((0.05, 0.1), 0.3)]:
            v = np.array(v)
            prox = mnl.prox_group(v, t)
            center, span = v.copy(), 2.0
            for _ in range(4):
                g0 = np.linspace(center[0] - span, center[0] + span, 81)
                g1 = np.linspace(center[1] - span, center[1] + span, 81)
                grid_pts = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
                obj = 0.5 * np.sum((grid_pts - v) ** 2, axis=1) + t * np.linalg.norm(grid_pts, axis=1)
                center = grid_pts[np.argmin(obj)]
                span *= 0.06
            assert np.linalg.norm(prox - center) < 1e-4

        # Group norms are monotone along a 20-point descending grid.
        s = _recovery_survey(seed=0)
        cats, _ = build_ontic_categories(s, 5)
        design = ontic_design(s, cats)
        grid = mnl.default_lambda_grid(design, 20)
        path = regularization_path(
            s, cats, grid, options=mnl.FitOptions(tolerance=1e-10, max_iterations=20_000)
        )
        for name in s.schema:
            norms = [point[1][name] for point in path]
            assert all(a <= b + 1e-6 for a, b in zip(norms, norms[1:]))


RECOVERY_REGISTRY = PartyRegistry(("A", "B", "C", "D", "E", "F"))
RECOVERY_PAIRS = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
RECOVERY_SCHEMA = ("c1", "c2", "c3", "c4", "c5")


def _recovery_survey(seed, n=800, amp=1.5, p_noise=0.005):
    """Six options, five pair categories, covariates c4/c5 truly inactive.

    c4 and c5 are rare indicators with zero true coefficients; c1..c3
    are balanced with strong alternating effects.
    """
    rng = np.random.default_rng(seed)
    coef = np.zeros((11, 6))
    coef[:6, 0] = np.log(0.13)
    coef[6:, 0] = np.log(0.05)
    for j in (1, 2, 3):
        for k in range(11):
            coef[k, j] = amp * ((-1) ** (k + j))
    coef -= coef.mean(axis=0, keepdims=True)
    x = np.ones((n, 6))
    x[:, 1:4] = rng.integers(0, 2, (n, 3))
    x[:, 4:6] = (rng.random((n, 2)) < p_noise).astype(float)
    scores = x @ coef.T
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    cats = (rng.random((n, 1)) > probs.cumsum(axis=1)).sum(axis=1)
    cats = np.minimum(cats, 10)
    respondents = []
    for i in range(n):
        c = int(cats[i])
        mask = 1 << c if c < 6 else (1 << RECOVERY_PAIRS[c - 6][0]) | (1 << RECOVERY_PAIRS[c - 6][1])
        cov = tuple(int(v) for v in x[i, 1:])
        respondents.append(Respondent(1.0, PartySet(mask), cov))
    return Survey(RECOVERY_REGISTRY, RECOVERY_SCHEMA, tuple(respondents))


def test_ontic_recovery():
    with criterion("ontic recovery: inactive groups zeroed in >= 80% of 20 seeded runs, 11x6 table"):
        hits = 0
        for seed in range(20):
            s = _recovery_survey(seed)
            cats, _ = build_ontic_categories(s, 5)
            model, table, _ = fit_ontic(s, cats, folds=2, seed=seed, repeats=5)
            assert np.array(table.values).shape == (11, 6)
            if table.zeroed["c4"] and table.zeroed["c5"]:
                hits += 1
        assert hits >= 16, f"inactive groups zeroed in only {hits}/20 runs"


def test_fixture_shape(wave3_path):
    with criterion("wave-3 fixture: undecided 533/4730 and describe --top 15 emits 15 rows"):
        from pollsets import parse_survey, undecided_share

        registry = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
        schema = ("female", "age_65plus", "east", "high_income", "urban")
        s = parse_survey(wave3_path.read_text(), registry, schema)
        unweighted, _ = undecided_share(s)
        assert len(s) == 4730
        assert s.n_undecided == 533
        assert unweighted == 533 / 4730
        assert abs(unweighted - 0.1127) < 1e-4


def test_describe_top15_rows(capsys, wave3_path):
    with criterion("describe --top 15 emits exactly 15 group rows"):
        code = cli_main(
            [
                "describe",
                "--input", str(wave3_path),
                "--registry", "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE",
                "--schema", "female,age_65plus,east,high_income,urban",
                "--format", "csv",
                "--top", "15",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 15


def test_cli_determinism(tmp_path, capsys, wave3_path):
    with criterion("determinism: every subcommand byte-identical across repeat runs"):
        registry = "SPD,CDU_CSU,GRUENE,FDP,AFD,LINKE"
        schema = "female,age_65plus,east,high_income,urban"
        coal = tmp_path / "coalitions.csv"
        coal.write_text("AMPEL,SPD;GRUENE;FDP\nGROKO,SPD;CDU_CSU\n")
        sim = tmp_path / "sim.csv"
        code = cli_main(
            ["simulate", "--n", "250", "--q", "0.5", "--seed", "11", "--covariates", "u,v", "--out", str(sim)]
        )
        capsys.readouterr()
        assert code == 0

        invocations = [
            ["describe", "--input", str(wave3_path), "--registry", registry, "--schema", schema],
            ["forecast", "--input", str(wave3_path), "--registry", registry, "--schema", schema,
             "--method", "homogeneity"],
            ["bounds", "--input", str(wave3_path), "--registry", registry, "--schema", schema,
             "--alpha", "0.2", "--beta", "0.8"],
            ["bounds", "--input", str(wave3_path), "--registry", registry, "--schema", schema,
             "--format", "svg"],
            ["coalitions", "--input", str(wave3_path), "--registry", registry, "--schema", schema,
             "--coalitions", str(coal)],
            ["ontic", "--input", str(sim), "--schema", "u,v", "--k", "2", "--folds", "3",
             "--seed", "5", "--grid-points", "4", "--format", "csv"],
        ]
        for argv in invocations:
            runs = []
            for _ in range(2):
                code = cli_main(argv)
                captured = capsys.readouterr()
                assert code == 0
                runs.append((captured.out, captured.err))
            assert runs[0] == runs[1], f"non-deterministic output for {argv[0]}"

        outs = []
        for tag in ("x", "y"):
            target = tmp_path / f"sim_{tag}.csv"
            code = cli_main(["simulate", "--n", "120", "--q", "0.3", "--seed", "21", "--out", str(target)])
            capsys.readouterr()
            assert code == 0
            outs.append((target.read_bytes(), target.with_suffix(".truth.csv").read_bytes()))
        assert outs[0] == outs[1]
