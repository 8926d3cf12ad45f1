import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pollsets.forecast import decided_design

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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_fitted_in_the_cross_validation_stacks(self, seed):
        s = survey_with_covariates(seed=8)
        cats, _ = build_ontic_categories(s, 2)
        design = ontic.ontic_design(s, cats)
        grid = mnl.default_lambda_grid(design, mnl.Constraint.symmetric(), 5)
        model, table, lam, path = fit_ontic(s, cats, grid, folds=3, seed=seed, design=design, return_path=True)
        plain_model, plain_table, plain_lam = fit_ontic(s, cats, grid, folds=3, seed=seed)
        assert np.array_equal(model.coefficients, plain_model.coefficients)
        assert (table, lam) == (plain_table, plain_lam)
        assert path == regularization_path(s, cats, grid)

    def test_grid_must_descend(self):
        s = survey_with_covariates(seed=6)
        cats, _ = build_ontic_categories(s, 1)
        with pytest.raises(ValueError):
            regularization_path(s, cats, [0.1, 0.5])


def test_empty_path_writes_nothing():
    assert ontic.path_to_csv([]) == ""


def constant_covariate_survey(x_of_set, varying=False):
    """300 respondents over A, B, C, A+B and B+C, and 20 over A+C; covariate x is ``x_of_set[set]``.

    With ``varying``, a second covariate v is drawn at random.
    """
    rng = np.random.default_rng(0)
    registry = PartyRegistry(("A", "B", "C"))
    sets = [registry.set_of(codes.split(";")) for codes in ("A", "B", "C", "A;B", "B;C")]
    picks = [sets[i] for i in rng.integers(0, len(sets), 300)] + [registry.set_of(["A", "C"])] * 20
    schema = ("x", "v") if varying else ("x",)
    rows = [(x_of_set(ps), int(rng.integers(0, 2))) if varying else (x_of_set(ps),) for ps in picks]
    return Survey(registry, schema, tuple(Respondent(1.0, ps, cov) for ps, cov in zip(picks, rows)))


@pytest.mark.parametrize("varying", [False, True], ids=["alone", "beside-a-varying-covariate"])
def test_covariate_duplicating_the_intercept_rejected(varying):
    # x = 1 for every respondent in the categories; the A+C respondents, left
    # out at k = 2, hold x = 0.  Alone, x once gave a lambda grid of rounding
    # noise; beside v, a nonzero group norm at small lambda.
    s = constant_covariate_survey(lambda ps: int(ps.mask != 0b101), varying)
    cats, dropped = build_ontic_categories(s, 2)
    assert dropped == 20
    message = "^covariate 'x' is 1 for every respondent in the ontic categories, so it duplicates the intercept$"
    with pytest.raises(ValueError, match=message):
        ontic.ontic_design(s, cats)
    with pytest.raises(ValueError, match=message):
        fit_ontic(s, cats, [0.1, 0.0], folds=3)
    # With the A+C respondents kept, x varies and the design is built.
    cats, _ = build_ontic_categories(s, 3)
    assert ontic.ontic_design(s, cats).n == len(s)


def test_covariate_of_zeros_kept_and_zeroed():
    s = constant_covariate_survey(lambda ps: 0)
    cats, _ = build_ontic_categories(s, 2)
    assert ontic.ontic_design(s, cats).n_predictors == 2
    assert fit_ontic(s, cats, [0.1, 0.0], folds=3)[1].zeroed == {"x": True}


def test_ontic_design_requires_covariates(abc_survey):
    cats, _ = build_ontic_categories(abc_survey, 1)
    design = ontic.ontic_design(abc_survey, cats)
    assert design.n == len(abc_survey)
    assert design.n_predictors == 1


def table_survey(n_parties, patterns, picks, masks, weights):
    """A survey from columns: respondent i holds set ``masks[i]`` and covariate row ``patterns[picks[i]]``."""
    p = len(patterns[0])
    rows = np.array([patterns[i] for i in picks], dtype=np.uint8).reshape(len(picks), p)
    registry, schema = PartyRegistry(tuple("ABCD"[:n_parties])), tuple(f"c{j}" for j in range(p))
    return Survey.build(registry, schema, np.array(weights, dtype=float), np.array(masks), rows)


@st.composite
def table_surveys(draw):
    """Up to 40 respondents over 2-4 parties and a few patterns of 0, 1, 3 or 63-70 covariates."""
    n_parties = draw(st.integers(2, 4))
    p = draw(st.sampled_from([0, 1, 3, 63, 64, 70]))
    patterns = draw(st.lists(st.lists(st.integers(0, 1), min_size=p, max_size=p), min_size=1, max_size=6))
    n = draw(st.integers(1, 40))
    sized = dict(min_size=n, max_size=n)
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), **sized))
    masks = draw(st.lists(st.integers(1, (1 << n_parties) - 1), **sized))
    return table_survey(n_parties, patterns, picks, masks, draw(st.lists(st.floats(0.01, 100.0), **sized)))


def row_design(s, categories):
    """The row constructor's ``DesignData`` over the rows of ``s.rows()`` whose set is in ``categories``."""
    index = {ps: i for i, ps in enumerate(categories)}
    kept = [(w, index[ps], cov) for w, ps, cov in s.rows() if ps in index]
    x = np.array([(1, *cov) for _, _, cov in kept], dtype=float).reshape(len(kept), 1 + len(s.schema))
    return mnl.DesignData(x, [c for _, c, _ in kept], [w for w, _, _ in kept], len(categories))


def assert_same_design(got, want):
    for name in ("xu", "group", "y", "w", "counts", "totals"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.n_categories == want.n_categories
    if len(np.unique(want.y)) >= 2:
        penalty, options = mnl.PenaltySpec.group_lasso(0.05), mnl.FitOptions(max_iterations=50)
        model, report = mnl.fit(got, penalty, mnl.Constraint.symmetric(), options)
        want_model, want_report = mnl.fit(want, penalty, mnl.Constraint.symmetric(), options)
        assert model.coefficients.tobytes() == want_model.coefficients.tobytes()
        assert report == want_report


def assert_table_designs_match_rows(s, k):
    """The decided design and the ontic design of the k most frequent sets, from the table and from the rows.

    The ontic design rejects a covariate that is 1 in every row it keeps; the
    design it builds before that check must still match the rows.
    """
    singles = tuple(s.registry.singleton(code) for code in s.registry.options)
    cats, _ = build_ontic_categories(s, k)
    index = {ps: i for i, ps in enumerate(cats)}
    for build, categories, empty, rejects_constant in (
        (decided_design, singles, "no decided respondents", False),
        (lambda s: ontic.ontic_design(s, cats), cats, "no respondents fall into the ontic categories", True),
    ):
        want = row_design(s, categories)
        if want.n and rejects_constant and want.xu[:, 1:].all(axis=0).any():
            unchecked = mnl.DesignData.from_groups(*s.design_groups([index.get(ps, -1) for ps in s.sets]), len(cats))
            assert_same_design(unchecked, want)
            with pytest.raises(ValueError, match="is 1 for every respondent in the ontic categories"):
                build(s)
        elif want.n:
            assert_same_design(build(s), want)
        else:
            with pytest.raises(ValueError, match=empty):
                build(s)


SOME_PATTERNS = table_survey(3, [[0, 1], [1, 0], [1, 1]], [0, 2, 1, 1, 0, 2], [1, 3, 2, 1, 4, 6], [1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize(
    "s,k",
    [
        pytest.param(table_survey(3, [[]], [0] * 5, [1, 2, 3, 1, 4], [1.0, 2.5, 0.5, 1.5, 3.0]), 1, id="no-schema"),
        # 64 or more covariates are keyed by their bytes, not by packed bits.
        pytest.param(
            table_survey(2, [[0] * 64, [0] * 63 + [1], [1] + [0] * 63], [2, 0, 1, 1, 2], [1, 2, 3, 2, 1], [0.5, 1, 2, 3, 4]),
            1,
            id="64-covariates",
        ),
        pytest.param(
            table_survey(3, [[1, 0] * 35, [0, 1] * 35], [1, 0, 0, 1], [4, 2, 1, 6], [1, 1, 2, 0.25]), 1, id="70-covariates"
        ),
        pytest.param(SOME_PATTERNS, 0, id="some-patterns"),
        pytest.param(SOME_PATTERNS, 1, id="all-patterns"),
    ],
)
def test_table_designs_match_rows_on_each_edge(s, k):
    assert_table_designs_match_rows(s, k)


def test_design_keeps_only_the_patterns_its_respondents_hold():
    # The decided respondents hold the first two of three patterns; the undecided, the third.
    assert decided_design(SOME_PATTERNS).xu.tolist() == [[1, 0, 1], [1, 1, 0]]
    cats, _ = build_ontic_categories(SOME_PATTERNS, 1)
    assert ontic.ontic_design(SOME_PATTERNS, cats).xu.tolist() == [[1, 0, 1], [1, 1, 0], [1, 1, 1]]


@settings(max_examples=150, deadline=None)
@given(s=table_surveys(), data=st.data())
def test_table_designs_match_rows(s, data):
    undecided = sum(not ps.is_singleton for ps in s.sets)
    assert_table_designs_match_rows(s, data.draw(st.integers(0, undecided)))
