import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pollsets import mnl


def random_design(seed, n=5, k=3, p=3, weights=None):
    rng = np.random.default_rng(seed)
    x = np.hstack([np.ones((n, 1)), rng.integers(0, 2, (n, p - 1)).astype(float)])
    y = rng.integers(0, k, n)
    while len(np.unique(y)) < 2:
        y = rng.integers(0, k, n)
    w = weights if weights is not None else rng.uniform(0.5, 2.0, n)
    return mnl.DesignData(x, y, w, k)


def fd_gradient(coef, d, ridge, constraint, h=1e-5):
    grad = np.zeros_like(coef)
    for i in range(coef.shape[0]):
        for j in range(coef.shape[1]):
            up = coef.copy()
            up[i, j] += h
            down = coef.copy()
            down[i, j] -= h
            grad[i, j] = (mnl._smooth_parts(up, d, ridge)[0] - mnl._smooth_parts(down, d, ridge)[0]) / (2 * h)
    return mnl.project_constraint(grad, constraint)


class TestNllAndGradient:
    def test_zero_coefficients_uniform(self):
        d = random_design(0, n=6, k=3)
        model = mnl.MnlModel(np.zeros((3, 3)), mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        nll, _ = mnl.nll_and_gradient(model, d)
        assert abs(nll - math.log(3) * d.w.sum()) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("make_constraint", [mnl.Constraint.symmetric, lambda: mnl.Constraint.reference(1)])
    def test_gradient_matches_finite_differences(self, seed, make_constraint):
        constraint = make_constraint()
        d = random_design(seed)
        rng = np.random.default_rng(seed + 100)
        coef = mnl.project_constraint(rng.normal(size=(3, 3)), constraint)
        model = mnl.MnlModel(coef, constraint, mnl.PenaltySpec.ridge(0.05))
        _, grad = mnl.nll_and_gradient(model, d)
        approx = fd_gradient(coef, d, model.penalty.ridge_coefficient, constraint)
        assert np.linalg.norm(grad - approx) / np.linalg.norm(grad) < 1e-6

    def test_weights_scale_linearly(self):
        d = random_design(3)
        doubled = mnl.DesignData(d.x, d.y, 2 * d.w, d.n_categories)
        coef = mnl.project_constraint(np.random.default_rng(3).normal(size=(3, 3)), mnl.Constraint.symmetric())
        model = mnl.MnlModel(coef, mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        nll1, g1 = mnl.nll_and_gradient(model, d)
        nll2, g2 = mnl.nll_and_gradient(model, doubled)
        # The data term is linear in the weights; the tiny ridge floor is not.
        assert abs(nll2 - 2 * nll1) < 1e-6
        assert np.allclose(g2, 2 * g1, atol=1e-6)

    def test_dimension_mismatch(self):
        d = random_design(0)
        model = mnl.MnlModel(np.zeros((3, 5)), mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        with pytest.raises(ValueError):
            mnl.nll_and_gradient(model, d)


def per_row_smooth_parts(coef, d, ridge):
    """Reference objective summed over respondent rows, not grouped counts."""
    nll = 0.0
    grad = np.zeros_like(coef)
    for x, y, w in zip(d.x, d.y, d.w):
        scores = coef @ x
        log_norm = scores.max() + math.log(np.exp(scores - scores.max()).sum())
        nll -= w * (scores[y] - log_norm)
        resid = np.exp(scores - log_norm)
        resid[y] -= 1.0
        grad += w * np.outer(resid, x)
    body = coef[:, 1:]
    nll += 0.5 * ridge * float(np.sum(body * body))
    grad[:, 1:] += ridge * body
    return nll, grad


class TestGroupedObjective:
    @pytest.mark.parametrize(
        "seed,n,k,p",
        [pytest.param(seed, 300, 4, 4, id=str(seed)) for seed in range(4)]
        + [pytest.param(seed, 400, 10, 15, id=f"wide-{seed}") for seed in range(2)],
    )
    def test_matches_per_row_reference(self, seed, n, k, p):
        # At most 2^(p-1) distinct rows: with p = 4 almost every row repeats;
        # with p = 15 and K = 10, as on a wide survey, almost none does.
        d = random_design(seed, n=n, k=k, p=p)
        assert len(d.grouped[0]) <= 2 ** (p - 1)
        constraint = mnl.Constraint.symmetric()
        rng = np.random.default_rng(seed + 200)
        coef = mnl.project_constraint(rng.normal(size=(k, p)), constraint)
        model = mnl.MnlModel(coef, constraint, mnl.PenaltySpec.ridge(0.3))
        nll, grad = mnl.nll_and_gradient(model, d)
        ref_nll, ref_grad = per_row_smooth_parts(coef, d, model.penalty.ridge_coefficient)
        ref_grad = mnl.project_constraint(ref_grad, constraint)
        assert abs(nll - ref_nll) <= 1e-12 * abs(ref_nll)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_grouped_table_sums_weights(self):
        d = random_design(5, n=50, k=3, p=3)
        xu, counts, totals, group = d.grouped
        assert np.array_equal(xu[group], d.x)
        assert len(np.unique(xu, axis=0)) == len(xu)
        assert counts.shape == (3, len(xu))
        assert abs(totals.sum() - d.w.sum()) < 1e-12 * d.w.sum()
        for g, row in enumerate(xu):
            here = np.all(d.x == row, axis=1)
            for k in range(3):
                assert abs(counts[k, g] - d.w[here & (d.y == k)].sum()) < 1e-12
        column_major = mnl.DesignData(np.asfortranarray(d.x), d.y, d.w, 3)
        assert all(np.array_equal(a, b) for a, b in zip(column_major.grouped, d.grouped))

    def test_doubled_rows_at_half_weight_fit_the_same(self):
        d = random_design(31, n=120, k=3, p=4)
        doubled = mnl.DesignData(np.repeat(d.x, 2, axis=0), np.repeat(d.y, 2), np.repeat(d.w / 2, 2), 3)
        penalty, constraint = mnl.PenaltySpec.group_lasso(0.4), mnl.Constraint.symmetric()
        model, _ = mnl.fit(d, penalty, constraint)
        again, _ = mnl.fit(doubled, penalty, constraint)
        assert np.max(np.abs(model.coefficients - again.coefficients)) < 1e-10


class TestProx:
    def test_inside_threshold_zeroes(self):
        v = np.array([0.3, 0.4])
        assert np.all(mnl.prox_group(v, 1.0) == 0.0)

    def test_zero_threshold_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(mnl.prox_group(v, 0.0), v)

    def test_hand_checked_shrink(self):
        out = mnl.prox_group(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [2.4, 3.2], atol=1e-12)

    @pytest.mark.parametrize("v,t", [((0.8, -0.4), 0.3), ((2.0, 1.5), 1.0), ((0.1, 0.2), 0.5)])
    def test_matches_grid_search_minimizer(self, v, t):
        v = np.array(v)
        prox = mnl.prox_group(v, t)

        def objective(u):
            return 0.5 * np.sum((u - v) ** 2, axis=-1) + t * np.sqrt(np.sum(u * u, axis=-1))

        center = v.copy()
        span = 2.0
        for _ in range(4):
            g0 = np.linspace(center[0] - span, center[0] + span, 81)
            g1 = np.linspace(center[1] - span, center[1] + span, 81)
            uu = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)
            best = uu[np.argmin(objective(uu))]
            center = best
            span *= 0.06
        assert np.linalg.norm(prox - center) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_prox_equals_prox_group_per_column(self, seed):
        rng = np.random.default_rng(seed)
        k = (3, 8, 11, 4)[seed]
        coef = rng.normal(size=(5, k, 6))
        coef[1, :, 2] = 0.0
        norms = np.linalg.norm(coef[..., 1:], axis=1)
        # Per problem: zero, inside some column norms, above all of them.
        thresholds = np.array([0.0, np.median(norms[1]), 0.5 * norms[2].min(), norms[3].max() * 1.01, 1e-3])
        out = mnl._stack_prox(coef, thresholds)
        for b, t in enumerate(thresholds):
            assert np.array_equal(out[b, :, 0], coef[b, :, 0])
            for j in range(1, coef.shape[2]):
                assert np.array_equal(out[b, :, j], mnl.prox_group(coef[b, :, j], t))
        assert np.all(out[3, :, 1:] == 0.0) and not np.signbit(out[3, :, 1:]).any()


class TestFit:
    def test_intercept_only_matches_empirical_frequencies(self):
        rng = np.random.default_rng(5)
        n = 40
        y = rng.integers(0, 3, n)
        w = rng.uniform(0.5, 3.0, n)
        d = mnl.DesignData(np.ones((n, 1)), y, w, 3)
        model, report = mnl.fit(d, mnl.PenaltySpec.none(), mnl.Constraint.symmetric())
        probs = mnl.predict_proba(model, np.array([1.0]))
        freqs = np.array([w[y == k].sum() for k in range(3)]) / w.sum()
        assert np.max(np.abs(probs - freqs)) < 1e-6
        assert report.iterations >= 1

    def test_lambda_above_max_kills_all_groups(self):
        d = random_design(7, n=60, k=3, p=4)
        lam = mnl.lambda_max(d, mnl.Constraint.symmetric())
        model, report = mnl.fit(
            d, mnl.PenaltySpec.group_lasso(lam * 1.001), mnl.Constraint.symmetric()
        )
        assert all(norm == 0.0 for norm in report.group_norms)
        assert np.all(model.coefficients[:, 1:] == 0.0)

    def test_symmetric_constraint_holds_after_fit(self):
        d = random_design(9, n=80, k=4, p=3)
        model, _ = mnl.fit(d, mnl.PenaltySpec.group_lasso(0.5), mnl.Constraint.symmetric())
        assert np.max(np.abs(model.coefficients.sum(axis=0))) < 1e-8

    def test_reference_row_stays_zero(self):
        d = random_design(11, n=50, k=3, p=3)
        model, _ = mnl.fit(d, mnl.PenaltySpec.none(), mnl.Constraint.reference(2))
        assert np.all(model.coefficients[2, :] == 0.0)

    def test_monotone_descent(self):
        d = random_design(13, n=70, k=3, p=4)
        model, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(0.2), mnl.Constraint.symmetric())
        hist = report.objective_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))
        # The model is the iterate the report describes, not an earlier one.
        assert mnl.nll_and_gradient(model, d)[0] == pytest.approx(report.nll, rel=1e-12)
        assert hist[-1] == report.objective < hist[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_start_at_optimum_stops_in_one_iteration(self, seed):
        # Above lambda_max the intercept-only start is the optimum; only
        # rounding can move the objective, in either direction.
        d = random_design(seed, n=60, k=3, p=4)
        lam = mnl.lambda_max(d, mnl.Constraint.symmetric())
        _, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(1.01 * lam), mnl.Constraint.symmetric())
        assert report.converged
        assert report.iterations == 1
        assert report.stop_reason in ("converged", "stationary")

    def test_stop_reasons(self, monkeypatch):
        d = random_design(9, n=80, k=4, p=3)
        penalty, constraint = mnl.PenaltySpec.none(), mnl.Constraint.symmetric()
        _, report = mnl.fit(d, penalty, constraint)
        assert (report.stop_reason, report.converged) == ("converged", True)
        assert report.backtracks > 0 and report.restarts > 0

        for cap in (1, 2):
            _, report = mnl.fit(d, penalty, constraint, mnl.FitOptions(max_iterations=cap))
            assert (report.stop_reason, report.converged, report.iterations) == ("max_iterations", False, cap)

        with monkeypatch.context() as patch:
            patch.setattr(mnl, "INITIAL_STEP", 1e6)
            patch.setattr(mnl, "MAX_BACKTRACKS", 1)
            _, report = mnl.fit(d, penalty, constraint)
        assert (report.stop_reason, report.converged, report.backtracks) == ("line_search_failed", False, 1)

        stationary = []
        for seed in range(12):
            d = random_design(seed, n=60, k=3, p=4)
            lam = mnl.lambda_max(d, constraint)
            _, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(1.01 * lam), constraint)
            stationary.append(report.stop_reason == "stationary")
        assert any(stationary)

    @pytest.mark.parametrize(
        "options",
        [
            dict(max_iterations=0),
            dict(max_iterations=-3),
            dict(tolerance=-1e-9),
            dict(tolerance=math.nan),
            dict(tolerance=math.inf),
        ],
    )
    def test_invalid_options_raise(self, options):
        # Values the fitter cannot run with: fewer than one iteration, or a
        # tolerance that is negative or not finite.
        with pytest.raises(ValueError):
            mnl.FitOptions(**options)

    def test_single_category_errors(self):
        with pytest.raises(ValueError):
            mnl.fit(
                mnl.DesignData(np.ones((4, 1)), np.zeros(4, dtype=int), np.ones(4), 2),
                mnl.PenaltySpec.none(),
                mnl.Constraint.symmetric(),
            )


class TestPredictProba:
    def test_zero_model_uniform(self):
        model = mnl.MnlModel(np.zeros((4, 2)), mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        probs = mnl.predict_proba(model, np.array([1.0, 1.0]))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(17)
        coef = mnl.project_constraint(rng.normal(size=(3, 2)), mnl.Constraint.reference(0))
        model = mnl.MnlModel(coef, mnl.Constraint.reference(0), mnl.PenaltySpec.none())
        shifted = mnl.MnlModel(
            mnl.project_constraint(coef + 3.7, mnl.Constraint.symmetric()),
            mnl.Constraint.symmetric(),
            mnl.PenaltySpec.none(),
        )
        x = np.array([1.0, 1.0])
        assert np.allclose(mnl.predict_proba(model, x), mnl.predict_proba(shifted, x), atol=1e-12)

    def test_dimension_and_intercept_checks(self):
        model = mnl.MnlModel(np.zeros((3, 2)), mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.array([0.0, 1.0]))

    def test_matrix_rows_match_vectors(self):
        rng = np.random.default_rng(5)
        coef = mnl.project_constraint(rng.normal(size=(4, 3)), mnl.Constraint.symmetric())
        model = mnl.MnlModel(coef, mnl.Constraint.symmetric(), mnl.PenaltySpec.none())
        x = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        probs = mnl.predict_proba(model, x)
        assert probs.shape == (3, 4)
        for row, vector in zip(probs, x):
            assert np.allclose(row, mnl.predict_proba(model, vector), rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.ones((2, 4)))
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.ones((1, 2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(arrays(float, (3, 2), elements=st.floats(-30, 30)))
    def test_probabilities_sum_to_one(self, coef):
        model = mnl.MnlModel(
            mnl.project_constraint(coef, mnl.Constraint.symmetric()),
            mnl.Constraint.symmetric(),
            mnl.PenaltySpec.none(),
        )
        probs = mnl.predict_proba(model, np.array([1.0, 1.0]))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)


def test_fixture_lambda_grid_bits(wave3_path):
    from pollsets import PartyRegistry, ontic, parse_survey

    registry = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
    schema = ("female", "age_65plus", "east", "high_income", "urban")
    survey = parse_survey(wave3_path.read_text(), registry, schema)
    cats, _ = ontic.build_ontic_categories(survey, 5)
    grid = mnl.default_lambda_grid(ontic.ontic_design(survey, cats), mnl.Constraint.symmetric(), points=5)
    assert grid == (
        141.93871847272732,
        25.240670054736235,
        4.488496385392346,
        0.7981800704177338,
        0.14193871847272732,
    )


class TestCrossValidate:
    def test_single_value_grid(self):
        d = random_design(21, n=40, k=3, p=3)
        best, means = mnl.cross_validate(d, [0.7], folds=4, seed=0)
        assert best == 0.7
        assert len(means) == 1

    def test_same_seed_reproducible(self):
        d = random_design(23, n=60, k=3, p=4)
        grid = mnl.default_lambda_grid(d, mnl.Constraint.symmetric(), 6)
        a = mnl.cross_validate(d, grid, folds=5, seed=42)
        b = mnl.cross_validate(d, grid, folds=5, seed=42)
        assert a == b

    def test_grid_must_be_descending(self):
        d = random_design(25, n=30)
        with pytest.raises(ValueError):
            mnl.cross_validate(d, [0.1, 0.5], folds=3, seed=0)

    def test_training_fold_with_one_category_errors(self):
        # The lone category-1 row sits in one fold, so the other fold trains on category 0 only.
        d = mnl.DesignData(np.ones((9, 1)), np.array([0] * 8 + [1]), np.ones(9), 2)
        with pytest.raises(ValueError, match="2 observed categories"):
            mnl.cross_validate(d, [0.5], folds=2, seed=0)

    def test_fold_missing_category_is_scored(self):
        # Category 2 has a single row; some training folds will miss it.
        x = np.ones((12, 1))
        y = np.array([0] * 6 + [1] * 5 + [2])
        d = mnl.DesignData(x, y, np.ones(12), 3)
        best, means = mnl.cross_validate(d, [0.5, 0.05], folds=3, seed=1)
        assert all(np.isfinite(means))


def test_design_data_validation():
    with pytest.raises(ValueError):
        mnl.DesignData(np.zeros((3, 2)), np.zeros(3, dtype=int), np.ones(3), 2)  # no intercept
    with pytest.raises(ValueError):
        mnl.DesignData(np.ones((3, 1)), np.array([0, 1, 5]), np.ones(3), 3)  # bad category
    with pytest.raises(ValueError):
        mnl.DesignData(np.ones((3, 1)), np.array([0, 1, 1]), np.array([1.0, -1.0, 1.0]), 2)


def per_fold_stratified_folds(y, folds, seed):
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=int)
    offset = 0
    for cat in np.unique(y):
        idx = np.flatnonzero(y == cat)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            assignment[i] = (offset + pos) % folds
        offset += len(idx)
    return assignment


def per_fold_cross_validate(d, grid, folds, seed, constraint, repeats=1):
    """Reference: one ``fit`` per fold and lambda, each on the fold's own regrouped rows."""
    w_total = float(d.w.sum())
    scores = np.zeros((folds * repeats, len(grid)))
    for r in range(repeats):
        assignment = per_fold_stratified_folds(d.y, folds, seed + 7919 * r)
        for f in range(folds):
            train = np.flatnonzero(assignment != f)
            test = np.flatnonzero(assignment == f)
            d_train = mnl.DesignData(d.x[train], d.y[train], d.w[train], d.n_categories)
            fraction = float(d_train.w.sum()) / w_total
            warm = None
            for j, lam in enumerate(grid):
                model, _ = mnl.fit(d_train, mnl.PenaltySpec.group_lasso(lam * fraction), constraint, start=warm)
                warm = model.coefficients
                held_out = 0.0
                for i in test:
                    scores_i = model.coefficients @ d.x[i]
                    log_norm = scores_i.max() + math.log(np.exp(scores_i - scores_i.max()).sum())
                    held_out -= d.w[i] * (scores_i[d.y[i]] - log_norm)
                scores[r * folds + f, j] = held_out / d.w[test].sum()
    means = scores.mean(axis=0)
    best = min(range(len(grid)), key=lambda j: (means[j], j))
    return grid[best], means


def design_missing_a_category(seed):
    """Category 3 has one row, so the training rows of the fold that holds it lack the category."""
    d = random_design(seed, n=90, k=3, p=4)
    y = d.y.copy()
    y[0] = 3
    return mnl.DesignData(d.x, y, d.w, 4)


class TestStackedCrossValidation:
    @pytest.mark.parametrize(
        "seed,make_constraint,folds,repeats,missing",
        [
            (0, mnl.Constraint.symmetric, 3, 1, False),
            (1, mnl.Constraint.symmetric, 5, 1, False),
            (2, lambda: mnl.Constraint.reference(1), 3, 1, False),
            (3, lambda: mnl.Constraint.reference(0), 4, 3, False),
            (4, mnl.Constraint.symmetric, 2, 5, False),
            (5, mnl.Constraint.symmetric, 3, 2, True),
            (6, lambda: mnl.Constraint.reference(2), 3, 1, True),
        ],
    )
    def test_matches_per_fold_fits(self, seed, make_constraint, folds, repeats, missing):
        constraint = make_constraint()
        d = design_missing_a_category(seed) if missing else random_design(seed, n=120, k=4, p=4)
        grid = mnl.default_lambda_grid(d, constraint, 6)
        best, means = mnl.cross_validate(d, grid, folds, seed, constraint, repeats=repeats)
        ref_best, ref_means = per_fold_cross_validate(d, grid, folds, seed, constraint, repeats)
        assert best == ref_best
        assert np.max(np.abs(np.array(means) - ref_means)) <= 1e-12

    @pytest.mark.parametrize("per_stack", [1, 2])
    def test_split_stacks_match_per_fold_fits(self, monkeypatch, per_stack):
        # Up to 64 distinct rows for 80 respondents: most folds miss some rows.
        d = random_design(8, n=80, k=3, p=7)
        xu, _, _, group = d.grouped
        assert len(np.unique(group[mnl._stratified_folds(d.y, 3, 8) != 0])) < len(xu)
        # The large-design path: stacks of one or two problems, each over the rows they train on.
        monkeypatch.setattr(mnl, "STACK_CELLS", per_stack * len(xu) * d.n_categories)
        constraint = mnl.Constraint.symmetric()
        grid = mnl.default_lambda_grid(d, constraint, 6)
        best, means = mnl.cross_validate(d, grid, 3, 8, constraint, repeats=2)
        ref_best, ref_means = per_fold_cross_validate(d, grid, 3, 8, constraint, 2)
        assert best == ref_best
        assert np.max(np.abs(np.array(means) - ref_means)) <= 1e-12

    def test_frozen_problems_match_their_solo_fits(self):
        constraint = mnl.Constraint.symmetric()
        d = random_design(41, n=200, k=4, p=5)
        # Same rows, other weights: the same distinct rows, other counts.
        other = mnl.DesignData(d.x, d.y, np.random.default_rng(42).uniform(0.1, 4.0, d.n), d.n_categories)
        top = mnl.lambda_max(d, constraint)
        # The first starts at its optimum and stops in iteration 1; the rest run long.
        problems = [(d, 1.01 * top), (d, 0.01 * top), (other, 0.1 * top), (other, 1e-4 * top)]
        reports = stack_matches_solo_fits(problems, constraint)
        assert reports[0].iterations == 1
        assert min(r.iterations for r in reports[1:]) > 20

    def test_stacked_problems_match_their_solo_fits_with_eleven_categories(self):
        # Sums over a short last axis go pairwise from nine elements up; the
        # stack and the solo fit must still add each problem's terms alike.
        constraint = mnl.Constraint.symmetric()
        d = random_design(43, n=400, k=11, p=5)
        other = mnl.DesignData(d.x, d.y, np.random.default_rng(44).uniform(0.1, 4.0, d.n), d.n_categories)
        top = mnl.lambda_max(d, constraint)
        problems = [(d, 0.05 * top), (other, 0.3 * top), (d, 0.0), (other, 1e-3 * top)]
        reports = stack_matches_solo_fits(problems, constraint)
        assert len({r.iterations for r in reports}) > 1


def stack_matches_solo_fits(problems, constraint):
    """Fit (design, lambda) problems over the same distinct rows as one stack, check
    each against its solo fit, and return the stack's reports."""
    xu = problems[0][0].grouped[0]
    assert all(np.array_equal(p.grouped[0], xu) for p, _ in problems)
    counts = np.stack([p.grouped[1] for p, _ in problems])
    assert counts.shape == (len(problems), problems[0][0].n_categories, len(xu))
    x, reports = mnl._fit_stack(
        xu,
        counts,
        counts.sum(axis=1),
        np.array([lam for _, lam in problems]),
        mnl.RIDGE_FLOOR,
        constraint,
        mnl.FitOptions(),
        np.stack([mnl.initial_coefficients(p, constraint) for p, _ in problems]),
    )
    for b, (p, lam) in enumerate(problems):
        solo, solo_report = mnl.fit(p, mnl.PenaltySpec.group_lasso(lam), constraint)
        # Bit-identical, not merely close: the stack works per problem.
        assert np.array_equal(mnl.project_constraint(x[b], constraint), solo.coefficients)
        assert reports[b] == solo_report
    return reports


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("make", [mnl.PenaltySpec.ridge, mnl.PenaltySpec.group_lasso])
def test_penalty_rejects_a_lambda_that_is_negative_or_not_finite(make, lam):
    with pytest.raises(ValueError, match="^lambda must be finite and >= 0"):
        make(lam)
