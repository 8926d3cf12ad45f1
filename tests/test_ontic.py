import numpy as np
import pytest

from pollsets import (
    PartyRegistry,
    Respondent,
    Survey,
    build_ontic_categories,
    fit_ontic,
    mnl,
    ontic,
    regularization_path,
)

SCHEMA = ("u", "v")


def survey_with_covariates(seed=0, n=150, n_options=3, pair_sets=((0, 1), (1, 2))):
    rng = np.random.default_rng(seed)
    registry = PartyRegistry(tuple("ABCDEF"[:n_options]))
    respondents = []
    for _ in range(n):
        cov = tuple(int(b) for b in rng.integers(0, 2, len(SCHEMA)))
        roll = rng.random()
        if roll < 0.7:
            mask = 1 << int(rng.integers(0, n_options))
        else:
            a, b = pair_sets[int(rng.integers(0, len(pair_sets)))]
            mask = (1 << a) | (1 << b)
        respondents.append(Respondent(float(rng.uniform(0.5, 2.0)), ontic.PartySet(mask), cov))
    return Survey(registry, SCHEMA, tuple(respondents))


class TestBuildCategories:
    def test_single_pair_fixture(self, abc_survey):
        cats, dropped = build_ontic_categories(abc_survey, 1)
        labels = [abc_survey.registry.label_of(ps) for ps in cats]
        assert labels == ["A", "B", "C", "A+B"]
        assert dropped == 0

    def test_k_zero_drops_all_undecided(self, abc_survey):
        cats, dropped = build_ontic_categories(abc_survey, 0)
        assert len(cats) == 3
        assert dropped == 1

    def test_k_exceeding_distinct_sets_errors(self, abc_survey):
        with pytest.raises(ValueError):
            build_ontic_categories(abc_survey, 2)

    def test_frequency_ties_break_lexicographically(self, abc_registry):
        reg = abc_registry
        s = Survey(
            reg,
            (),
            (
                Respondent(1.0, reg.set_of(["B", "C"])),
                Respondent(1.0, reg.set_of(["A", "B"])),
                Respondent(1.0, reg.singleton("A")),
            ),
        )
        cats, _ = build_ontic_categories(s, 2)
        labels = [reg.label_of(ps) for ps in cats]
        assert labels == ["A", "B", "C", "A+B", "B+C"]

    def test_wave3_shape(self, wave3_path):
        from pollsets import parse_survey

        reg = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
        schema = ("female", "age_65plus", "east", "high_income", "urban")
        s = parse_survey(wave3_path.read_text(), reg, schema)
        cats, _ = build_ontic_categories(s, 5)
        assert len(cats) == 11


class TestFitOntic:
    def test_unpenalized_grid_point_keeps_all_groups(self):
        s = survey_with_covariates(seed=1)
        cats, _ = build_ontic_categories(s, 2)
        model, table, lam = fit_ontic(s, cats, lambda_grid=[0.0], folds=3, seed=0)
        assert lam == 0.0
        assert not any(table.zeroed.values())

    def test_table_shape_and_constraint(self):
        s = survey_with_covariates(seed=2)
        cats, _ = build_ontic_categories(s, 2)
        model, table, _ = fit_ontic(s, cats, lambda_grid=[0.5, 0.05], folds=3, seed=0)
        assert len(table.categories) == len(cats)
        assert table.covariates == ("intercept", *SCHEMA)
        coef = np.array(table.values)
        assert coef.shape == (len(cats), 1 + len(SCHEMA))
        assert np.max(np.abs(coef.sum(axis=0))) < 1e-8

    def test_k_zero_matches_direct_decided_fit(self):
        s = survey_with_covariates(seed=3)
        cats, _ = build_ontic_categories(s, 0)
        model, _, _ = fit_ontic(s, cats, lambda_grid=[0.3], folds=3, seed=0)
        from pollsets.forecast import decided_design

        direct, _ = mnl.fit(
            decided_design(s), mnl.PenaltySpec.group_lasso(0.3), mnl.Constraint.symmetric()
        )
        x = np.array([1.0, 1.0, 0.0])
        assert np.max(np.abs(mnl.predict_proba(model, x) - mnl.predict_proba(direct, x))) < 1e-9


class TestRegularizationPath:
    def test_extremes_of_the_path(self):
        s = survey_with_covariates(seed=4)
        cats, _ = build_ontic_categories(s, 2)
        design = ontic.ontic_design(s, cats)
        top = mnl.lambda_max(design, mnl.Constraint.symmetric())
        path = regularization_path(s, cats, [top * 1.01, 0.0])
        assert all(v == 0.0 for v in path[0][1].values())
        unpenalized, _ = mnl.fit(design, mnl.PenaltySpec.group_lasso(0.0), mnl.Constraint.symmetric())
        free_norms = dict(zip(s.schema, mnl.group_norms(unpenalized.coefficients)))
        for name in s.schema:
            assert abs(path[1][1][name] - free_norms[name]) < 1e-4

    def test_norms_monotone_along_descending_grid(self):
        s = survey_with_covariates(seed=5)
        cats, _ = build_ontic_categories(s, 2)
        design = ontic.ontic_design(s, cats)
        grid = mnl.default_lambda_grid(design, mnl.Constraint.symmetric(), 10)
        opts = mnl.FitOptions(tolerance=1e-10, max_iterations=20_000)
        path = regularization_path(s, cats, grid, options=opts)
        for name in s.schema:
            norms = [entry[1][name] for entry in path]
            assert all(a <= b + 1e-6 for a, b in zip(norms, norms[1:]))

    def test_grid_must_descend(self):
        s = survey_with_covariates(seed=6)
        cats, _ = build_ontic_categories(s, 1)
        with pytest.raises(ValueError):
            regularization_path(s, cats, [0.1, 0.5])


def test_table_serialization_round_trip():
    s = survey_with_covariates(seed=7)
    cats, _ = build_ontic_categories(s, 1)
    _, table, _ = fit_ontic(s, cats, lambda_grid=[0.2], folds=3, seed=0)
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "category,intercept,u,v"
    assert len(csv_text.splitlines()) == 1 + len(table.categories)
    import json

    doc = json.loads(table.to_json())
    assert doc["categories"] == list(table.categories)
    assert doc["zeroed"] == table.zeroed


def test_ontic_design_requires_covariates(abc_survey):
    cats, _ = build_ontic_categories(abc_survey, 1)
    design = ontic.ontic_design(abc_survey, cats)
    assert design.n == len(abc_survey)
    assert design.n_predictors == 1
