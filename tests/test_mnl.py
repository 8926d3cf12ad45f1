import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pollsets import mnl


def random_rows(seed, n=5, k=3, p=3):
    """Respondent rows (intercept first, 0/1 covariates), categories and weights."""
    rng = np.random.default_rng(seed)
    x = np.hstack([np.ones((n, 1)), rng.integers(0, 2, (n, p - 1)).astype(float)])
    y = rng.integers(0, k, n)
    while len(np.unique(y)) < 2:
        y = rng.integers(0, k, n)
    return x, y, rng.uniform(0.5, 2.0, n)


def random_design(seed, n=5, k=3, p=3):
    return mnl.DesignData(*random_rows(seed, n, k, p), k)


def rows(d):
    """Each respondent's design row, rebuilt from the distinct rows."""
    return d.xu[d.group]


def fd_gradient(coef, d, ridge, h=1e-5):
    grad = np.zeros_like(coef)
    for i in range(coef.shape[0]):
        for j in range(coef.shape[1]):
            up = coef.copy()
            up[i, j] += h
            down = coef.copy()
            down[i, j] -= h
            grad[i, j] = (mnl._smooth_parts(up, d, ridge)[0] - mnl._smooth_parts(down, d, ridge)[0]) / (2 * h)
    return mnl.project_constraint(grad)


class TestNllAndGradient:
    def test_zero_coefficients_uniform(self):
        d = random_design(0, n=6, k=3)
        model = mnl.MnlModel(np.zeros((3, 3)), mnl.PenaltySpec.none())
        nll, _ = mnl.nll_and_gradient(model, d)
        assert abs(nll - math.log(3) * d.w.sum()) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient_matches_finite_differences(self, seed):
        d = random_design(seed)
        rng = np.random.default_rng(seed + 100)
        coef = mnl.project_constraint(rng.normal(size=(3, 3)))
        model = mnl.MnlModel(coef, mnl.PenaltySpec.ridge(0.05))
        _, grad = mnl.nll_and_gradient(model, d)
        approx = fd_gradient(coef, d, model.penalty.ridge_coefficient)
        assert np.linalg.norm(grad - approx) / np.linalg.norm(grad) < 1e-6

    def test_weights_scale_linearly(self):
        d = random_design(3)
        doubled = mnl.DesignData(rows(d), d.y, 2 * d.w, d.n_categories)
        coef = mnl.project_constraint(np.random.default_rng(3).normal(size=(3, 3)))
        model = mnl.MnlModel(coef, mnl.PenaltySpec.none())
        nll1, g1 = mnl.nll_and_gradient(model, d)
        nll2, g2 = mnl.nll_and_gradient(model, doubled)
        # The data term is linear in the weights; the tiny ridge floor is not.
        assert abs(nll2 - 2 * nll1) < 1e-6
        assert np.allclose(g2, 2 * g1, atol=1e-6)

    def test_dimension_mismatch(self):
        d = random_design(0)
        model = mnl.MnlModel(np.zeros((3, 5)), mnl.PenaltySpec.none())
        with pytest.raises(ValueError):
            mnl.nll_and_gradient(model, d)


def per_row_smooth_parts(coef, d, ridge):
    """Reference objective summed over respondent rows, not grouped counts."""
    nll = 0.0
    grad = np.zeros_like(coef)
    for x, y, w in zip(rows(d), d.y, d.w):
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
        assert len(d.xu) <= 2 ** (p - 1)
        rng = np.random.default_rng(seed + 200)
        coef = mnl.project_constraint(rng.normal(size=(k, p)))
        model = mnl.MnlModel(coef, mnl.PenaltySpec.ridge(0.3))
        nll, grad = mnl.nll_and_gradient(model, d)
        ref_nll, ref_grad = per_row_smooth_parts(coef, d, model.penalty.ridge_coefficient)
        ref_grad = mnl.project_constraint(ref_grad)
        assert abs(nll - ref_nll) <= 1e-12 * abs(ref_nll)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_grouped_table_sums_weights(self):
        x, y, w = random_rows(5, n=50, k=3, p=3)
        d = mnl.DesignData(x, y, w, 3)
        xu, counts, totals, group = d.xu, d.counts, d.totals, d.group
        assert np.array_equal(xu[group], x)
        assert len(np.unique(xu, axis=0)) == len(xu)
        assert counts.shape == (3, len(xu))
        assert abs(totals.sum() - d.w.sum()) < 1e-12 * d.w.sum()
        for g, row in enumerate(xu):
            here = np.all(x == row, axis=1)
            for k in range(3):
                assert abs(counts[k, g] - d.w[here & (d.y == k)].sum()) < 1e-12
        column_major = mnl.DesignData(np.asfortranarray(x), y, w, 3)
        assert all(np.array_equal(getattr(column_major, f), getattr(d, f)) for f in ("xu", "counts", "totals", "group"))

    def test_doubled_rows_at_half_weight_fit_the_same(self):
        d = random_design(31, n=120, k=3, p=4)
        doubled = mnl.DesignData(np.repeat(rows(d), 2, axis=0), np.repeat(d.y, 2), np.repeat(d.w / 2, 2), 3)
        penalty = mnl.PenaltySpec.group_lasso(0.4)
        model, _ = mnl.fit(d, penalty)
        again, _ = mnl.fit(doubled, penalty)
        assert np.max(np.abs(model.coefficients - again.coefficients)) < 1e-10


def void_row_grouping(x, y, w, k):
    """Distinct rows, counts, totals and groups as ``np.unique`` over the rows' float64 bytes numbers them."""
    keys = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1])))
    _, first, group = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    xu = x[first]
    g = len(xu)
    counts = np.bincount(y * g + group, weights=w, minlength=k * g).reshape(k, g)
    return xu, counts, counts.sum(axis=0), group


@st.composite
def binary_designs(draw):
    """Rows of a design over a few distinct 0/1 rows, each repeated, in C or Fortran order."""
    p = draw(st.sampled_from([0, 1, 5, 14, 62, 63, 64, 70]))
    pool = draw(st.lists(st.lists(st.integers(0, 1), min_size=p, max_size=p), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=30))
    x = np.hstack((np.ones((len(picks), 1)), np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), p)))
    if draw(st.booleans()):
        x = np.asfortranarray(x)
    k = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, k - 1), min_size=len(picks), max_size=len(picks))), dtype=int)
    w = np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=len(picks), max_size=len(picks))))
    return x, y, w, k


@settings(max_examples=200, deadline=None)
@given(binary_designs())
def test_grouped_matches_void_row_sort_bit_for_bit(design_rows):
    d = mnl.DesignData(*design_rows)
    xu, counts, totals, group = d.xu, d.counts, d.totals, d.group
    want_xu, want_counts, want_totals, want_group = void_row_grouping(*design_rows)
    assert xu.shape == want_xu.shape and xu.tobytes() == want_xu.tobytes()
    assert counts.shape == want_counts.shape and counts.tobytes() == want_counts.tobytes()
    assert totals.tobytes() == want_totals.tobytes()
    assert group.tolist() == want_group.tolist()


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
        model, report = mnl.fit(d, mnl.PenaltySpec.none())
        probs = mnl.predict_proba(model, np.array([1.0]))
        freqs = np.array([w[y == k].sum() for k in range(3)]) / w.sum()
        assert np.max(np.abs(probs - freqs)) < 1e-6
        assert report.iterations >= 1

    def test_lambda_above_max_kills_all_groups(self):
        d = random_design(7, n=60, k=3, p=4)
        lam = mnl.lambda_max(d)
        model, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(lam * 1.001))
        assert all(norm == 0.0 for norm in report.group_norms)
        assert np.all(model.coefficients[:, 1:] == 0.0)

    def test_symmetric_constraint_holds_after_fit(self):
        d = random_design(9, n=80, k=4, p=3)
        model, _ = mnl.fit(d, mnl.PenaltySpec.group_lasso(0.5))
        assert np.max(np.abs(model.coefficients.sum(axis=0))) < 1e-8

    def test_monotone_descent(self):
        d = random_design(13, n=70, k=3, p=4)
        model, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(0.2))
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
        lam = mnl.lambda_max(d)
        _, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(1.01 * lam))
        assert report.converged
        assert report.iterations == 1
        assert report.stop_reason in ("converged", "stationary")

    def test_stop_reasons(self, monkeypatch):
        # Proximal gradient: a group-lasso fit, however small its lambda.
        d = random_design(9, n=80, k=4, p=3)
        penalty = mnl.PenaltySpec.group_lasso(1e-3 * mnl.lambda_max(d))
        _, report = mnl.fit(d, penalty)
        assert (report.stop_reason, report.converged) == ("converged", True)
        assert report.backtracks > 0 and report.restarts > 0

        for cap in (1, 2):
            _, report = mnl.fit(d, penalty, mnl.FitOptions(max_iterations=cap))
            assert (report.stop_reason, report.converged, report.iterations) == ("max_iterations", False, cap)

        with monkeypatch.context() as patch:
            patch.setattr(mnl, "INITIAL_STEP", 1e6)
            patch.setattr(mnl, "MAX_BACKTRACKS", 1)
            _, report = mnl.fit(d, penalty)
        assert (report.stop_reason, report.converged, report.backtracks) == ("line_search_failed", False, 1)

        stationary = []
        for seed in range(12):
            d = random_design(seed, n=60, k=3, p=4)
            lam = mnl.lambda_max(d)
            _, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(1.01 * lam))
            stationary.append(report.stop_reason == "stationary")
        assert any(stationary)

    @pytest.mark.parametrize("penalty", [mnl.PenaltySpec.none(), mnl.PenaltySpec.ridge(0.5)])
    def test_newton_stop_reasons(self, monkeypatch, penalty):
        d = random_design(9, n=80, k=4, p=3)
        _, report = mnl.fit(d, penalty)
        assert (report.stop_reason, report.converged, report.restarts) == ("converged", True, 0)
        assert 2 < report.iterations < 10

        for cap in (1, 2):
            _, report = mnl.fit(d, penalty, mnl.FitOptions(max_iterations=cap))
            assert (report.stop_reason, report.converged, report.iterations) == ("max_iterations", False, cap)

        # Far from the optimum a full Newton step overshoots; allowed that one trial, the search fails.
        start = 2.0 * np.array([[1, -1, 1], [-1, 1, -1], [1, 1, -1], [-1, -1, 1]])
        _, report = mnl.fit(d, penalty, start=start)
        assert report.converged and report.backtracks > 1
        with monkeypatch.context() as patch:
            patch.setattr(mnl, "MAX_BACKTRACKS", 1)
            _, report = mnl.fit(d, penalty, start=start)
        assert (report.stop_reason, report.converged, report.backtracks, report.iterations) == (
            "line_search_failed", False, 1, 1
        )

    @pytest.mark.parametrize("make", [mnl.PenaltySpec.none, lambda: mnl.PenaltySpec.group_lasso(0.1)])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (12,), (1, 4, 3)])
    def test_start_of_the_wrong_shape_raises(self, make, shape):
        d = random_design(9, n=80, k=4, p=3)
        want = rf"^start must be a 4 x 3 matrix, got shape \({', '.join(map(str, shape))},?\)$"
        with pytest.raises(ValueError, match=want):
            mnl.fit(d, make(), start=np.zeros(shape))

    @pytest.mark.parametrize("make", [mnl.PenaltySpec.none, lambda: mnl.PenaltySpec.group_lasso(0.1)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_start_that_is_not_finite_raises(self, make, bad):
        d = random_design(9, n=80, k=4, p=3)
        start = np.zeros((4, 3))
        start[2, 1] = bad
        with pytest.raises(ValueError, match="^start must be finite$"):
            mnl.fit(d, make(), start=start)

    @pytest.mark.parametrize(
        "options",
        [
            dict(max_iterations=0),
            dict(max_iterations=-3),
            dict(tolerance=-1e-9),
            dict(tolerance=math.nan),
            dict(tolerance=math.inf),
            dict(max_iterations=2.5),
            dict(max_iterations=3.0),
            dict(max_iterations="3"),
            dict(tolerance="1e-8"),
            dict(tolerance=None),
            dict(max_iterations=True),
        ],
    )
    def test_invalid_options_raise(self, options):
        # Values the fitter cannot run with: fewer than one iteration, an
        # iteration cap that is not an integer, or a tolerance that is not a
        # number, negative or not finite.
        [(name, _)] = options.items()
        with pytest.raises(ValueError, match=f"^{name} must be "):
            mnl.FitOptions(**options)

    def test_single_category_errors(self):
        with pytest.raises(ValueError):
            mnl.fit(
                mnl.DesignData(np.ones((4, 1)), np.zeros(4, dtype=int), np.ones(4), 2),
                mnl.PenaltySpec.none(),
            )

    def test_path_of_a_single_category_errors(self):
        d = mnl.DesignData(np.hstack([np.ones((4, 1)), np.eye(4, 1)]), np.ones(4, dtype=int), np.ones(4), 3)
        with pytest.raises(ValueError, match="^need at least 2 observed categories$"):
            mnl.fit_path(d, [0.5, 0.1])


def cell_design(patterns, k, seed, missing=()):
    """Respondents in every (pattern, category) cell but the ``missing`` ones, one to three per
    cell at random weights; patterns are 0/1 covariate rows without the intercept."""
    rng = np.random.default_rng(seed)
    patterns = np.asarray(patterns, dtype=float).reshape(len(patterns), -1)
    cells = [(g, c) for g in range(len(patterns)) for c in range(k) if (g, c) not in missing]
    cells = [cell for cell in cells for _ in range(rng.integers(1, 4))]
    x = np.hstack([np.ones((len(cells), 1)), patterns[[g for g, _ in cells]]])
    return mnl.DesignData(x, [c for _, c in cells], rng.uniform(0.1, 5.0, len(cells)), k)


@st.composite
def smooth_fits(draw):
    """A design with every category in every distinct row, a smooth penalty, no start."""
    k = draw(st.integers(2, 11))
    p = draw(st.one_of(st.integers(0, 8), st.sampled_from([64, 70])))
    seed = draw(st.integers(0, 2**32 - 1))
    patterns = np.unique(np.random.default_rng(seed).integers(0, 2, (draw(st.integers(1, 6)), p)), axis=0)
    penalty = draw(st.one_of(st.just(mnl.PenaltySpec.none()), st.floats(1e-3, 10.0).map(mnl.PenaltySpec.ridge)))
    return cell_design(patterns, k, seed), penalty, None


NONE = mnl.PenaltySpec.none()
# Party 0 has no decided respondent: its row has no finite optimum.
UNOBSERVED = cell_design([[0, 0], [0, 1], [1, 1]], 4, 1, missing={(g, 0) for g in range(3)})
# Category 0 only in the first row, category 1 only in the second: no finite optimum without the ridge floor.
SEPARABLE = cell_design([[0], [1]], 2, 2, missing={(0, 1), (1, 0)})
INTERCEPT_ONLY = cell_design(np.empty((1, 0)), 5, 3)
WIDE = cell_design(np.random.default_rng(4).integers(0, 2, (5, 70)), 3, 4)


@settings(max_examples=40, deadline=None)
@example(case=(UNOBSERVED, NONE, None))
@example(case=(UNOBSERVED, mnl.PenaltySpec.ridge(0.3), None))
@example(case=(SEPARABLE, NONE, None))
@example(case=(INTERCEPT_ONLY, NONE, None))
@example(case=(WIDE, mnl.PenaltySpec.ridge(0.1), np.full((3, 71), 0.2)))
@example(case=(WIDE, NONE, np.random.default_rng(5).normal(0, 2, (3, 71))))
@given(case=smooth_fits())
def test_newton_fit_matches_proximal_gradient(case):
    d, penalty, start = case
    model, report = mnl.fit(d, penalty, mnl.FitOptions(tolerance=1e-13), start)
    assert report.converged and report.stop_reason == "converged"
    history = report.objective_history
    assert all(a >= b for a, b in zip(history, history[1:])) and history[-1] == report.objective == report.nll
    nll, grad = mnl.nll_and_gradient(model, d)
    assert nll == pytest.approx(report.nll, rel=1e-12)
    # First-order optimality, whatever the proximal-gradient fit below reaches.
    assert np.max(np.abs(grad)) <= 1e-8 * d.w.sum()

    # The proximal-gradient core on the same problem at the same tolerance.
    # Its objective-change stop is not certified: on draws of this strategy
    # it stopped as converged up to 2e-6 above in relative objective and
    # 7e-6 off in probability, most where only a small ridge curves a
    # direction.  So from the same start Newton must do no worse, and
    # started at Newton's fit the core must find nothing to gain.
    options = mnl.FitOptions(tolerance=1e-13)
    x0 = mnl.initial_coefficients(d) if start is None else mnl.project_constraint(start)
    scale, core = max(1.0, abs(report.objective)), (d.xu, d.counts[None], d.totals[None], np.zeros(1))
    for begin in (x0, model.coefficients):
        x, (want,) = mnl._fit_stack(*core, penalty.ridge_coefficient, options, begin[None])
        assert report.objective <= want.objective + 1e-12 * scale
    assert want.iterations == 1 and want.objective <= report.objective + 1e-12 * scale
    prox = mnl.MnlModel(mnl.project_constraint(x[0]), penalty)
    assert np.max(np.abs(mnl.predict_proba(model, d.xu) - mnl.predict_proba(prox, d.xu))) <= 1e-7


def test_newton_holds_an_unobserved_category_where_it_starts():
    # Its row has no finite optimum, so it stays at the intercept-only start.
    model, report = mnl.fit(UNOBSERVED, NONE)
    start = mnl.initial_coefficients(UNOBSERVED)
    assert np.max(np.abs(model.coefficients[0] - start[0])) <= 1e-12
    assert report.converged and report.iterations <= 5


class TestPredictProba:
    def test_zero_model_uniform(self):
        model = mnl.MnlModel(np.zeros((4, 2)), mnl.PenaltySpec.none())
        probs = mnl.predict_proba(model, np.array([1.0, 1.0]))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_row_shift_invariance(self):
        # Moving every row by the same vector, as a change of reference
        # category does, changes no probability.
        rng = np.random.default_rng(17)
        coef = rng.normal(size=(3, 2))
        model = mnl.MnlModel(mnl.project_constraint(coef), mnl.PenaltySpec.none())
        x = np.array([1.0, 1.0])
        scores = (coef - coef[0]) @ x
        assert np.allclose(mnl.predict_proba(model, x), np.exp(scores) / np.exp(scores).sum(), atol=1e-12)

    def test_dimension_and_intercept_checks(self):
        model = mnl.MnlModel(np.zeros((3, 2)), mnl.PenaltySpec.none())
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            mnl.predict_proba(model, np.array([0.0, 1.0]))

    def test_matrix_rows_match_vectors(self):
        rng = np.random.default_rng(5)
        coef = mnl.project_constraint(rng.normal(size=(4, 3)))
        model = mnl.MnlModel(coef, mnl.PenaltySpec.none())
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
        model = mnl.MnlModel(mnl.project_constraint(coef), mnl.PenaltySpec.none())
        probs = mnl.predict_proba(model, np.array([1.0, 1.0]))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)


def test_fixture_lambda_grid_bits(wave3_path):
    from pollsets import PartyRegistry, ontic, parse_survey

    registry = PartyRegistry(("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE"))
    schema = ("female", "age_65plus", "east", "high_income", "urban")
    survey = parse_survey(wave3_path.read_text(), registry, schema)
    cats, _ = ontic.build_ontic_categories(survey, 5)
    grid = mnl.default_lambda_grid(ontic.ontic_design(survey, cats), points=5)
    assert grid == (
        141.93871847272732,
        25.240670054736235,
        4.488496385392346,
        0.7981800704177338,
        0.14193871847272732,
    )


def per_respondent_lambda_max(d):
    """Reference: the largest group norm of the null-model gradient, summed over respondent rows."""
    coef = mnl.initial_coefficients(d)
    x = rows(d)
    scores = x @ coef.T
    scores -= scores.max(axis=1, keepdims=True)
    resid = np.exp(scores - np.log(np.exp(scores).sum(axis=1, keepdims=True)))
    resid[np.arange(d.n), d.y] -= 1.0
    grad = mnl.project_constraint((resid * d.w[:, None]).T @ x)
    return max(mnl.group_norms(grad), default=0.0)


@st.composite
def null_model_designs(draw):
    """A design with K 2-11 and no, few or 64 covariates."""
    p = draw(st.sampled_from([0, *range(1, 9), 64]))
    k = draw(st.integers(2, 11))
    n = draw(st.integers(1, 40))
    bits = draw(arrays(np.int8, (n, p), elements=st.integers(0, 1)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    w = draw(arrays(float, n, elements=st.floats(0.1, 10.0)))
    return mnl.DesignData(np.hstack((np.ones((n, 1)), bits)), y, w, k)


@settings(max_examples=300, deadline=None)
@given(null_model_designs())
def test_lambda_max_matches_per_respondent_reference(d):
    got, want = mnl.lambda_max(d), per_respondent_lambda_max(d)
    if d.n_predictors == 1:
        assert got == want == 0.0
    # A gradient entry is a difference of weight sums, so where the categories
    # barely depend on the covariates it is rounding at the scale of the
    # weights: a sum of n <= 40 terms rounds by up to about n ulps of the total.
    assert abs(got - want) <= 1e-12 * want + 1e-14 * float(d.w.sum())


def splitmix64(seed, i):
    """SplitMix64's output i (from 0) for ``seed``, in Python integers."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def splitmix64_folds(y, folds, seed):
    """Reference split: rows sorted by category, then SplitMix64 key, dealt to the folds in turn."""
    ids = [0] * len(y)
    for pos, i in enumerate(sorted(range(len(y)), key=lambda i: (y[i], splitmix64(seed, i)))):
        ids[i] = pos % folds
    return ids


class TestCrossValidate:
    def test_single_value_grid(self):
        d = random_design(21, n=40, k=3, p=3)
        best, means = mnl.cross_validate(d, [0.7], folds=4, seed=0)
        assert best == 0.7
        assert len(means) == 1

    def test_same_seed_reproducible(self):
        d = random_design(23, n=60, k=3, p=4)
        grid = mnl.default_lambda_grid(d, 6)
        a = mnl.cross_validate(d, grid, folds=5, seed=42)
        b = mnl.cross_validate(d, grid, folds=5, seed=42)
        assert a == b

    def test_negative_seed_rejected(self):
        d = random_design(25, n=30)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            mnl.cross_validate(d, [0.5], folds=3, seed=-1)

    def test_grid_must_be_descending(self):
        d = random_design(25, n=30)
        with pytest.raises(ValueError):
            mnl.cross_validate(d, [0.1, 0.5], folds=3, seed=0)

    @pytest.mark.parametrize(
        "grid, folds, repeats, seed, message",
        [
            ([], 3, 1, 0, "^lambda grid is empty$"),
            ([0.5], 1, 1, 0, r"^need 2 <= folds <= n$"),
            ([0.5], 31, 1, 0, r"^need 2 <= folds <= n$"),
            ([0.5], 3, 0, 0, "^repeats must be >= 1$"),
            ([0.5], 2.5, 1, 0, r"^folds must be an integer, got 2\.5$"),
            ([0.5], 3.0, 1, 0, r"^folds must be an integer, got 3\.0$"),
            ([0.5], 3, 1.5, 0, r"^repeats must be an integer, got 1\.5$"),
            ([0.5], 3, 1, 1.5, r"^seed must be an integer, got 1\.5$"),
            ([0.5], True, 1, 0, "^folds must be an integer, got True$"),
        ],
        ids=[
            "empty-grid", "one-fold", "more-folds-than-rows", "no-repeats",
            "fractional-folds", "float-folds", "fractional-repeats", "fractional-seed", "boolean-folds",
        ],
    )
    def test_bad_settings_rejected(self, grid, folds, repeats, seed, message):
        d = random_design(25, n=30)
        with pytest.raises(ValueError, match=message):
            mnl.cross_validate(d, grid, folds=folds, seed=seed, repeats=repeats)

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

    @pytest.mark.parametrize("means, best", [([2.0, 1.0, 1.0, 3.0], 3.0), ([1.0, 1.0, 2.0, 1.0], 4.0)])
    def test_tied_mean_scores_go_to_the_larger_lambda(self, monkeypatch, means, best):
        def tied_scores(d, grid, splits, options, path):
            # Every split scores alike, so each mean is exactly its split's score.
            return np.tile(means, (len(splits), 1)), []

        monkeypatch.setattr(mnl, "_fit_grid", tied_scores)
        d = random_design(25, n=30)
        assert mnl.cross_validate(d, [4.0, 3.0, 2.0, 1.0], folds=3, seed=0) == (best, tuple(means))

    def test_stratified_folds_are_balanced_seeded_and_pinned(self):
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF  # the generator's published first output
        y = np.random.default_rng(27).integers(0, 5, 200)
        for folds in (2, 3, 7):
            for seed in (0, 1, 2**63 + 5):
                ids = mnl._stratified_folds(y, folds, seed)
                per_category = np.array([np.bincount(ids[y == c], minlength=folds) for c in range(5)])
                assert np.all(per_category.max(axis=1) - per_category.min(axis=1) <= 1)
                sizes = np.bincount(ids, minlength=folds)
                assert sizes.max() - sizes.min() <= 1
                assert np.array_equal(ids, mnl._stratified_folds(y, folds, seed))
                assert np.array_equal(ids, mnl._stratified_folds(y, folds, seed + 2**64))
                assert ids.tolist() == splitmix64_folds(y.tolist(), folds, seed)
        # SplitMix64 in plain uint64 arithmetic: the same ids under every numpy release.
        y = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 0])
        assert mnl._stratified_folds(y, 3, 0).tolist() == [0, 2, 0, 0, 1, 0, 1, 1, 2, 2, 1]
        assert mnl._stratified_folds(y, 3, 1).tolist() == [1, 2, 0, 2, 1, 0, 1, 2, 1, 0, 0]


def test_design_data_validation():
    with pytest.raises(ValueError):
        mnl.DesignData(np.zeros((3, 2)), np.zeros(3, dtype=int), np.ones(3), 2)  # no intercept
    with pytest.raises(ValueError, match="intercept"):
        mnl.DesignData(np.ones((3, 0)), np.zeros(3, dtype=int), np.ones(3), 2)  # no columns at all
    with pytest.raises(ValueError):
        mnl.DesignData(np.ones((3, 1)), np.array([0, 1, 5]), np.ones(3), 3)  # bad category
    with pytest.raises(ValueError):
        mnl.DesignData(np.ones((3, 1)), np.array([0, 1, 1]), np.array([1.0, -1.0, 1.0]), 2)


@pytest.mark.parametrize("bad", [1.7, -0.5, np.nan, "1", None])
def test_design_data_rejects_non_integer_categories(bad):
    # 1.7 used to be read as category 1, and "1" as 1.
    with pytest.raises(ValueError, match="^category indices must be integers$"):
        mnl.DesignData(np.ones((3, 1)), [0, bad, 1], np.ones(3), 2)


def test_design_data_takes_whole_float_categories():
    d = mnl.DesignData(np.ones((3, 1)), [0.0, 1.0, 1.0], np.ones(3), 2)
    assert d.y.tolist() == [0, 1, 1] and d.y.dtype == int


@pytest.mark.parametrize("k", [2.5, 3.0, "3", None, 1, 0])
def test_design_data_rejects_a_category_count_that_is_not_an_integer_of_two_or_more(k):
    with pytest.raises(ValueError, match="^number of categories must be an integer >= 2, got "):
        mnl.DesignData(np.ones((3, 1)), [0, 1, 1], np.ones(3), k)


def test_design_data_leaves_the_callers_arrays_writable():
    x, y, w = random_rows(1, n=8)
    mnl.DesignData(x, y, w, 3)
    assert x.flags.writeable and y.flags.writeable and w.flags.writeable


def test_lambda_grid_of_a_covariate_that_is_always_zero():
    # Its gradient column is exactly zero, so no penalty is needed to hold it at zero.
    x = np.hstack([np.ones((6, 1)), np.zeros((6, 1))])
    d = mnl.DesignData(x, np.array([0, 0, 1, 1, 2, 2]), np.ones(6), 3)
    assert mnl.lambda_max(d) == 0.0
    assert mnl.default_lambda_grid(d, 5) == (0.0,)


@pytest.mark.parametrize("points", [0, -3, 2.5, 5.0, "5"])
def test_lambda_grid_needs_a_point(points):
    want = ">= 1" if isinstance(points, int) else "an integer"
    with pytest.raises(ValueError, match=f"^grid points must be {want}, got {re.escape(repr(points))}$"):
        mnl.default_lambda_grid(random_design(0, n=20), points)


_NO_PENALTY = mnl.PenaltySpec.none()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mnl.DesignData(np.ones((3, 1)), [0, 1], np.ones(3), 2), "^design shapes disagree$"),
        (lambda: mnl.DesignData(np.ones(3), [0, 1, 1], np.ones(3), 2), "^design shapes disagree$"),
        (lambda: mnl.MnlModel(np.zeros(3), _NO_PENALTY), "^coefficients must be a K x P matrix$"),
        (lambda: mnl.MnlModel(np.ones((2, 1)), _NO_PENALTY), "^symmetric constraint violated"),
        (lambda: mnl.prox_group(np.ones(2), -1.0), "^threshold must be >= 0$"),
    ],
    ids=["short-y", "flat-x", "flat-coefficients", "symmetric-sums", "threshold"],
)
def test_malformed_model_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("penalty", [mnl.PenaltySpec.none(), mnl.PenaltySpec.group_lasso(0.1)], ids=["newton", "lasso"])
def test_fit_from_an_overflowing_start_raises(penalty):
    # Each start entry is finite, but the scores of the last row overflow.
    x = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    d = mnl.DesignData(x, [0, 1, 1, 0], np.ones(4), 2)
    start = np.array([[0.0, 1e308, 1e308], [0.0, -1e308, -1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^non-finite objective; coefficients diverged$"):
            mnl.fit(d, penalty, start=start)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
def test_design_data_rejects_non_binary_covariates(bad):
    x = np.ones((3, 3))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="^covariates must be binary 0/1$"):
        mnl.DesignData(x, np.array([0, 1, 1]), np.ones(3), 2)


def per_fold_cross_validate(d, grid, folds, seed, repeats=1):
    """Reference: one ``fit`` per fold and lambda, each on the fold's own regrouped rows."""
    w_total = float(d.w.sum())
    x = rows(d)
    scores = np.zeros((folds * repeats, len(grid)))
    for r in range(repeats):
        assignment = mnl._stratified_folds(d.y, folds, seed + 7919 * r)
        for f in range(folds):
            train = np.flatnonzero(assignment != f)
            test = np.flatnonzero(assignment == f)
            d_train = mnl.DesignData(x[train], d.y[train], d.w[train], d.n_categories)
            fraction = float(d_train.w.sum()) / w_total
            warm = None
            for j, lam in enumerate(grid):
                model, _ = mnl.fit(d_train, mnl.PenaltySpec.group_lasso(lam * fraction), start=warm)
                warm = model.coefficients
                held_out = 0.0
                for i in test:
                    scores_i = model.coefficients @ x[i]
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
    return mnl.DesignData(rows(d), y, d.w, 4)


class TestStackedCrossValidation:
    @pytest.mark.parametrize(
        "seed,folds,repeats,missing",
        [(0, 3, 1, False), (1, 5, 1, False), (2, 3, 1, False), (3, 4, 3, False), (4, 2, 5, False), (5, 3, 2, True),
         (6, 3, 1, True)],
    )
    def test_matches_per_fold_fits(self, seed, folds, repeats, missing):
        d = design_missing_a_category(seed) if missing else random_design(seed, n=120, k=4, p=4)
        grid = mnl.default_lambda_grid(d, 6)
        best, means = mnl.cross_validate(d, grid, folds, seed, repeats=repeats)
        ref_best, ref_means = per_fold_cross_validate(d, grid, folds, seed, repeats)
        assert best == ref_best
        assert np.max(np.abs(np.array(means) - ref_means)) <= 1e-12

    @pytest.mark.parametrize("per_stack", [1, 2])
    def test_split_stacks_match_per_fold_fits(self, monkeypatch, per_stack):
        # Up to 64 distinct rows for 80 respondents: most folds miss some rows.
        d = random_design(8, n=80, k=3, p=7)
        xu, group = d.xu, d.group
        assert len(np.unique(group[mnl._stratified_folds(d.y, 3, 8) != 0])) < len(xu)
        # The large-design path: stacks of one or two problems, each over the rows they train on.
        monkeypatch.setattr(mnl, "STACK_CELLS", per_stack * len(xu) * d.n_categories)
        grid = mnl.default_lambda_grid(d, 6)
        best, means = mnl.cross_validate(d, grid, 3, 8, repeats=2)
        ref_best, ref_means = per_fold_cross_validate(d, grid, 3, 8, 2)
        assert best == ref_best
        assert np.max(np.abs(np.array(means) - ref_means)) <= 1e-12

    def test_frozen_problems_match_their_solo_fits(self):
        d = random_design(41, n=200, k=4, p=5)
        # Same rows, other weights: the same distinct rows, other counts.
        other = mnl.DesignData(rows(d), d.y, np.random.default_rng(42).uniform(0.1, 4.0, d.n), d.n_categories)
        top = mnl.lambda_max(d)
        # The first starts at its optimum and stops in iteration 1; the rest run long.
        problems = [(d, 1.01 * top), (d, 0.01 * top), (other, 0.1 * top), (other, 1e-4 * top)]
        reports = stack_matches_solo_fits(problems)
        assert reports[0].iterations == 1
        assert min(r.iterations for r in reports[1:]) > 20

    def test_stacked_problems_match_their_solo_fits_with_eleven_categories(self):
        # Sums over a short last axis go pairwise from nine elements up; the
        # stack and the solo fit must still add each problem's terms alike.
        d = random_design(43, n=400, k=11, p=5)
        other = mnl.DesignData(rows(d), d.y, np.random.default_rng(44).uniform(0.1, 4.0, d.n), d.n_categories)
        top = mnl.lambda_max(d)
        problems = [(d, 0.05 * top), (other, 0.3 * top), (d, 0.0), (other, 1e-3 * top)]
        reports = stack_matches_solo_fits(problems)
        assert len({r.iterations for r in reports}) > 1

    def test_problems_needing_different_halvings_match_their_solo_fits(self):
        # The same rows at weights scaled by 1 and by 1e-3: the heavier
        # problem's step is halved where the lighter one's passes at once, so
        # a backtracking round tries again a problem whose step has passed.
        d = random_design(41, n=200, k=4, p=5)
        light = mnl.DesignData(rows(d), d.y, 1e-3 * d.w, d.n_categories)
        top = mnl.lambda_max(d)
        reports = stack_matches_solo_fits([(d, 0.1 * top), (light, 1e-4 * top)])
        assert len({r.backtracks for r in reports}) > 1

    def test_a_lost_line_search_changes_no_other_problem(self, monkeypatch):
        # With four halvings allowed, the heaviest problem's first line search
        # fails while the others, which need fewer, run on and converge.
        monkeypatch.setattr(mnl, "MAX_BACKTRACKS", 4)
        d = random_design(41, n=200, k=4, p=5)
        top = mnl.lambda_max(d)
        problems = [
            (mnl.DesignData(rows(d), d.y, scale * d.w, d.n_categories), 0.1 * scale * top)
            for scale in (1.0, 0.03, 1e-3)
        ]
        reports = stack_matches_solo_fits(problems)
        assert [r.stop_reason for r in reports] == ["line_search_failed", "converged", "converged"]
        assert reports[0].iterations == 1 and reports[1].backtracks > 0

    def test_iteration_cap_stops_the_problems_still_running(self):
        # Without a tolerance, the second problem converges in iteration 2 and
        # the fourth goes stationary in iteration 52; the cap cuts the other
        # two, each at its own stack position, at iteration 60.
        d = random_design(0, n=200, k=4, p=5)
        other = mnl.DesignData(rows(d), d.y, np.random.default_rng(1).uniform(0.1, 4.0, d.n), d.n_categories)
        top = mnl.lambda_max(d)
        problems = [(d, 0.01 * top), (d, 1.01 * top), (other, 0.1 * top), (d, 0.5 * top)]
        options = mnl.FitOptions(max_iterations=60, tolerance=0.0)
        reports = stack_matches_solo_fits(problems, options)
        assert [(r.stop_reason, r.iterations) for r in reports] == [
            ("max_iterations", 60), ("converged", 2), ("max_iterations", 60), ("stationary", 52),
        ]
        assert [r.converged for r in reports] == [False, True, False, True]


def stack_matches_solo_fits(problems, options=mnl.FitOptions()):
    """Fit (design, lambda) problems over the same distinct rows as one stack, check
    each against its solo fit, and return the stack's reports."""
    xu = problems[0][0].xu
    assert all(np.array_equal(p.xu, xu) for p, _ in problems)
    counts = np.stack([p.counts for p, _ in problems])
    assert counts.shape == (len(problems), problems[0][0].n_categories, len(xu))
    x, reports = mnl._fit_stack(
        xu,
        counts,
        counts.sum(axis=1),
        np.array([lam for _, lam in problems]),
        mnl.RIDGE_FLOOR,
        options,
        np.stack([mnl.initial_coefficients(p) for p, _ in problems]),
    )
    for b, (p, lam) in enumerate(problems):
        solo, solo_report = mnl.fit(p, mnl.PenaltySpec.group_lasso(lam), options)
        # Bit-identical, not merely close: the stack works per problem.
        assert np.array_equal(mnl.project_constraint(x[b]), solo.coefficients)
        assert reports[b] == solo_report
    return reports


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("make", [mnl.PenaltySpec.ridge, mnl.PenaltySpec.group_lasso])
def test_penalty_rejects_a_lambda_that_is_negative_or_not_finite(make, lam):
    with pytest.raises(ValueError, match="^lambda must be finite and >= 0"):
        make(lam)


def warm_started_fits(d, grid, options):
    """Reference path: one ``fit`` per grid value, each started where the one before ended."""
    reports, warm = [], None
    for lam in grid:
        model, report = mnl.fit(d, mnl.PenaltySpec.group_lasso(lam), options, start=warm)
        reports.append(report)
        warm = model.coefficients
    return reports


def record_stack_sizes(monkeypatch):
    """The number of problems of every ``_fit_stack`` call made from here on."""
    sizes = []
    fit_stack = mnl._fit_stack

    def spy(xu, counts, *args):
        sizes.append(len(counts))
        return fit_stack(xu, counts, *args)

    monkeypatch.setattr(mnl, "_fit_stack", spy)
    return sizes


class TestPathInTheStacks:
    @settings(max_examples=25, deadline=None)
    # 504 distinct rows, and the last stack's one fold misses some: a stack
    # over every row would change that fold's sums, and so its bits.
    @example(seed=4, n=2000, k=5, p=10, folds=3, repeats=1, per_stack=2)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 120),
        k=st.integers(3, 11),
        p=st.integers(2, 6),
        folds=st.integers(2, 4),
        repeats=st.integers(1, 3),
        per_stack=st.sampled_from([None, 1, 2, 3]),
    )
    def test_changes_no_fold_and_matches_warm_started_fits(self, seed, n, k, p, folds, repeats, per_stack):
        d = random_design(seed, n=n, k=k, p=p)
        # Every training fold needs two categories: two with two rows or more.
        assume(np.sum(np.bincount(d.y) >= 2) >= 2)
        grid = mnl.default_lambda_grid(d, 4)
        # Near-separable draws would run long at the bottom of the grid; a
        # stop at max_iterations must match too.
        options = mnl.FitOptions(max_iterations=100)
        cells = mnl.STACK_CELLS if per_stack is None else per_stack * len(d.xu) * k
        with patch.object(mnl, "STACK_CELLS", cells):
            plain = mnl.cross_validate(d, grid, folds, seed, options, repeats)
            best, means, path = mnl.cross_validate(d, grid, folds, seed, options, repeats, return_path=True)
            alone = mnl.fit_path(d, grid, options)
        # Bit for bit: == on finite floats.
        assert (best, means) == plain
        assert path == alone == warm_started_fits(d, grid, options)

    @pytest.mark.parametrize("per_stack", [None, 1, 3, 4])
    def test_joins_the_last_stack_if_its_folds_train_on_every_row(self, monkeypatch, per_stack):
        # Two distinct rows, both in every training fold.
        d = random_design(50, n=60, k=4, p=2)
        if per_stack is not None:
            monkeypatch.setattr(mnl, "STACK_CELLS", per_stack * len(d.xu) * d.n_categories)
        sizes = record_stack_sizes(monkeypatch)
        grid = mnl.default_lambda_grid(d, 2)
        mnl.cross_validate(d, grid, 3, 0, repeats=2, return_path=True)
        # Six folds; the full-data fit takes a free slot of the last stack, or a stack of its own.
        want = {None: [7], 1: [1] * 7, 3: [3, 3, 1], 4: [4, 3]}[per_stack]
        assert sizes == [size for size in want for _ in grid]

    def test_fits_alone_if_the_last_stack_misses_a_row(self, monkeypatch):
        d = random_design(8, n=80, k=3, p=7)
        xu, group = d.xu, d.group
        # Stacks of two folds: the last holds fold 2 alone, which misses rows.
        assert len(np.unique(group[mnl._stratified_folds(d.y, 3, 8) != 2])) < len(xu)
        monkeypatch.setattr(mnl, "STACK_CELLS", 2 * len(xu) * d.n_categories)
        sizes = record_stack_sizes(monkeypatch)
        mnl.cross_validate(d, [0.5], 3, 8, return_path=True)
        assert sizes == [2, 1, 1]
