"""Weighted multinomial logistic regression with composite penalties.

Coefficients live in a K x P matrix (categories by predictors, first
predictor the intercept).  They are identified by the symmetric side
constraint: every column sums to zero, so each coefficient is a
deviation from the category mean and a group-lasso penalty does not
depend on which category is the baseline (Tutz, Poessnecker & Uhlmann
2015; Friedman, Hastie & Tibshirani 2010).  The constraint is a linear
subspace, so it is enforced by projection at every iterate.

The objective's smooth part is the weighted negative log-likelihood
plus a ridge term, its nonsmooth part an optional group-lasso penalty
with one group per non-intercept column.  ``fit`` picks the solver by
the penalty's kind, never by its value.  Without a group lasso (no
penalty or a ridge) the objective is smooth and ``fit`` takes damped
Newton steps on the constraint subspace (``_fit_newton``), which
converge quadratically: the Hessian, sum over distinct rows of
t_g (diag p_g - p_g p_g') kron x_g x_g', is one GEMM per block of
distinct rows over category pairs and predictor pairs, each step is
solved in the coordinates of the rows free to move (the null-space
method), and the fit stops on the Newton decrement.  A group-lasso fit,
at any lambda, runs a monotone accelerated proximal gradient method
with backtracking (``_fit_stack``), as cross-validation and
``fit_path`` do.  Because the group proximal operator rescales whole
columns, it preserves the constraint subspace, and the composite
iteration never leaves it.

A mandatory ridge floor on non-intercept coefficients guards against
perfect separation; binary covariates alone do not rule it out.  A
category no respondent chose has no finite maximum-likelihood row:
Newton holds that row where it starts, at the intercept-only start a
probability of about 1e-12, so two such categories keep equal rows.

Fits run on grouped counts, not on respondent rows.  Covariates are
binary, so a design has at most 2^(P-1) distinct rows, often far fewer
than respondents, in lexicographic order as a survey's cell table
numbers them (``DesignData.from_survey``).  The weighted category
counts per distinct row are sufficient statistics for the likelihood
(Agresti, *Categorical Data Analysis*), so an iteration costs O(G K P)
for G distinct rows instead of O(n K P).

The fitter's per-row arrays are category-major: counts, scores and
log-probabilities are K x G per problem, each category's G distinct
rows contiguous.  The log-softmax's max and sum over categories are
then K - 1 elementwise passes over length-G vectors rather than one
short reduction per row, which costs most when G is large and K is
about 10.  The sums over categories run in category order for any K,
never pairwise.  Counts are laid out once per fit or stack, never per
iteration.  ``lambda_max`` and held-out scoring run on the same kernel:
the top of the lambda grid is the projected gradient at the
intercept-only start, and a fold's held-out score its held-out counts'
NLL, so neither reads a respondent row.

The proximal-gradient core, ``_fit_stack``, fits a stack of B problems
that share the distinct rows and differ in their counts, penalty weight
and start.  Each problem keeps its own step size, momentum and stop
state, and a stopped problem leaves the stack with its coefficients
frozen and its report made.  Every array operation in the core works per
problem and in the same order for any B, so a problem fitted in a stack
ends bit-identical to the same problem fitted alone over the same
distinct rows with the same counts and row totals.  The totals must be
the same floats, not merely equal sums: ``DesignData.totals`` adds them
up one way and a sum over a stacked array may add them another.  Since
each problem's arithmetic is its own, a backtracking round tries every
running problem: one whose step already passed keeps its step size, so
it gets the same trial and verdict again.  ``fit`` of a group lasso is
the case B = 1.  Newton's per-row arrays follow the same layout, and its
gradient is the same kernel's.
Cross-validation fits the folds of every repeat at one lambda as one
stack over the distinct rows they train on, each fold's training counts
summed from its own rows in respondent order.  A stack holds at most
``STACK_CELLS`` count cells: past that, a fold's arithmetic outweighs
the per-iteration overhead a stack shares, so a large design fits
fewer folds per stack, down to one fold over its own rows, as a lone
fit would.  Fold assignment, each fold's training and held-out counts,
its penalty scaling and its start are summed from its own respondents.

The regularization path (the full-data fit at every lambda, warm-started
along the grid) rides in the same stacks with ``cross_validate(...,
return_path=True)``: one more problem after the last fold, with penalty
fraction 1 and the design's counts and totals, not scored.  It shares
the last stack only if that stack's folds train on every distinct row,
since more rows would change the folds' sums, and is a stack of its
own otherwise; either way it ends bit-identical to ``fit_path`` and
changes no fold.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import PartySet, Survey, key_order, number_patterns

RIDGE_FLOOR = 1e-8

# Most G x K count cells in one cross-validation stack; see the module docstring.
STACK_CELLS = 1 << 16

# Line search: a proximal-gradient step starts at INITIAL_STEP, a Newton
# step at the full step, and each failed trial divides the step by
# BACKTRACK_FACTOR, at most MAX_BACKTRACKS times.
INITIAL_STEP = 1.0
BACKTRACK_FACTOR = 2.0
MAX_BACKTRACKS = 60


class PenaltyKind(enum.Enum):
    NONE = "none"
    RIDGE = "ridge"
    GROUP_LASSO = "group_lasso"


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty on non-intercept coefficients; the intercept is never penalized."""

    kind: PenaltyKind
    lam: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")

    @classmethod
    def none(cls) -> PenaltySpec:
        return cls(PenaltyKind.NONE)

    @classmethod
    def ridge(cls, lam: float) -> PenaltySpec:
        return cls(PenaltyKind.RIDGE, lam)

    @classmethod
    def group_lasso(cls, lam: float) -> PenaltySpec:
        return cls(PenaltyKind.GROUP_LASSO, lam)

    @property
    def ridge_coefficient(self) -> float:
        lam = self.lam if self.kind is PenaltyKind.RIDGE else 0.0
        return max(lam, RIDGE_FLOOR)

    @property
    def group_lambda(self) -> float:
        return self.lam if self.kind is PenaltyKind.GROUP_LASSO else 0.0


def project_constraint(mat: np.ndarray) -> np.ndarray:
    """A copy of a K x P matrix, or of each matrix in a stack, with every column centered to sum zero."""
    return _project_in_place(np.array(mat, dtype=float))


def _project_in_place(mat: np.ndarray) -> np.ndarray:
    """``project_constraint`` without the copy: ``mat`` is overwritten and returned."""
    # The column means as ``mat.mean`` takes them, bit for bit, without its wrapper.
    mat -= np.add.reduce(mat, axis=-2, keepdims=True) / mat.shape[-2]
    return mat


@dataclass(frozen=True, init=False, eq=False)
class DesignData:
    """Estimation data by distinct design row: the G rows ``xu`` (intercept, then 0/1 covariates)
    in lexicographic order; respondent i's row ``group[i]``, category ``y[i]`` and weight ``w[i]``;
    the K x G weighted category ``counts``, summed in respondent order, and their column ``totals``."""

    xu: np.ndarray
    group: np.ndarray
    y: np.ndarray
    w: np.ndarray
    n_categories: int
    counts: np.ndarray
    totals: np.ndarray

    def __init__(self, x, y, w, n_categories: int):
        """Check respondent rows ``x``, categories ``y`` and weights ``w``; number the rows by ``number_patterns``."""
        x, y, w = np.asarray(x, dtype=float), np.array(y), np.array(w, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],) or w.shape != (x.shape[0],):
            raise ValueError("design shapes disagree")
        if not isinstance(n_categories, (int, np.integer)) or n_categories < 2:
            raise ValueError(f"number of categories must be an integer >= 2, got {n_categories!r}")
        if x.shape[0] and not (x.shape[1] and np.all(x[:, 0] == 1.0)):
            raise ValueError("design matrix must carry a leading intercept column of ones")
        if not np.all((x[:, 1:] == 0.0) | (x[:, 1:] == 1.0)):  # NaN fails too
            raise ValueError("covariates must be binary 0/1")
        if y.dtype.kind not in "biu" and not (y.dtype.kind == "f" and np.all(y == np.trunc(y))):
            raise ValueError("category indices must be integers")
        if np.any((y < 0) | (y >= n_categories)):
            raise ValueError("category index out of range")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        self._store(*number_patterns(x[:, 1:]), y.astype(int), w, n_categories)

    @classmethod
    def from_survey(cls, s: Survey, categories: tuple[PartySet, ...]) -> DesignData:
        """The design of the respondents whose set is a category, ``categories[i]`` being category i.

        They are kept in respondent order, and the covariate patterns
        they hold are numbered in key order, as the survey's cell table
        numbers its own; the survey's rows are not checked again.
        """
        index = {ps: i for i, ps in enumerate(categories)}
        cell_category = np.array([index.get(ps, -1) for ps in s.sets], dtype=np.intp)[s.cell_set]
        keep = np.flatnonzero(cell_category[s.index] >= 0)
        cells = s.index[keep]
        group, used = key_order(s.cell_pattern[cells])
        d = object.__new__(cls)
        d._store(group, s.patterns[used], cell_category[cells], s.weights[keep], len(categories))
        return d

    def _store(self, group, patterns, y, w, k):
        xu = np.hstack((np.ones((len(patterns), 1)), patterns))
        counts = np.bincount(y * len(xu) + group, weights=w, minlength=k * len(xu)).reshape(k, len(xu))
        arrays = (xu, group, y, w, counts, counts.sum(axis=0))
        for name, arr in zip(("xu", "group", "y", "w", "counts", "totals"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_categories", k)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def n_predictors(self) -> int:
        return self.xu.shape[1]


@dataclass(frozen=True)
class MnlModel:
    """Fitted coefficient matrix, each column summing to zero, with its penalty."""

    coefficients: np.ndarray
    penalty: PenaltySpec

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 2:
            raise ValueError("coefficients must be a K x P matrix")
        if np.any(np.abs(coef.sum(axis=0)) >= 1e-8):
            raise ValueError("symmetric constraint violated: column sums not ~0")
        coef = coef.copy()
        coef.flags.writeable = False
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_categories(self) -> int:
        return self.coefficients.shape[0]

    @property
    def n_predictors(self) -> int:
        return self.coefficients.shape[1]


@dataclass(frozen=True)
class FitReport:
    """How a fit ended.

    ``stop_reason`` is ``converged``, ``stationary``, ``max_iterations``
    or ``line_search_failed``.  A Newton fit (no penalty or a ridge) is
    ``converged`` when half its Newton decrement is within tolerance,
    and only then; it never stops as ``stationary``, and its
    ``restarts`` is 0.  A proximal-gradient fit (group lasso) is
    ``converged`` when its objective change is within tolerance, and
    ``stationary`` when a step without momentum could not lower the
    objective; ``converged`` is true for both.  ``backtracks`` counts step
    halvings, ``restarts`` momentum restarts, and ``iterations`` Newton
    or proximal-gradient steps.
    """

    nll: float
    objective: float
    iterations: int
    converged: bool
    stop_reason: str
    backtracks: int
    restarts: int
    group_norms: tuple[float, ...]
    objective_history: tuple[float, ...] = ()


@dataclass(frozen=True)
class FitOptions:
    """Stopping settings; a value the fitter cannot run with raises ValueError."""

    max_iterations: int = 10_000
    tolerance: float = 1e-8

    def __post_init__(self):
        _check_integer("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (isinstance(self.tolerance, numbers.Real) and math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {self.tolerance!r}")


def _check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an int or a numpy integer; a boolean is neither."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-softmax along the category axis -2, computed in place on ``scores``."""
    scores -= scores.max(axis=-2, keepdims=True)
    scores -= np.log(np.exp(scores).sum(axis=-2, keepdims=True))
    return scores


def _check_finite(values: list[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite objective; coefficients diverged")


def _stack_value(coef: np.ndarray, xu: np.ndarray, counts: np.ndarray, ridge: float):
    """Per problem of a (B, K, P) stack: weighted NLL + ridge on non-intercept columns,
    and the (B, K, G) log-probabilities per category and distinct row."""
    n = len(coef)
    logp = _log_softmax(coef @ xu.T)
    # One BLAS dot per problem, as np.vdot would take it.
    nll = -np.matmul(counts.reshape(n, 1, -1), logp.reshape(n, -1, 1)).reshape(n)
    if ridge:
        body = coef[..., 1:]
        nll += 0.5 * ridge * (body * body).reshape(n, -1).sum(axis=1)
    return nll, logp


def _stack_gradient(coef, logp, xu, counts, totals, ridge: float) -> np.ndarray:
    """Raw gradient of ``_stack_value`` per problem, from its log-probabilities."""
    resid = np.exp(logp)
    resid *= totals[..., None, :]
    resid -= counts
    grad = resid @ xu
    if ridge:
        grad[..., 1:] += ridge * coef[..., 1:]
    return grad


def _smooth_parts(coef: np.ndarray, d: DesignData, ridge: float):
    """Weighted NLL + ridge on non-intercept columns of one K x P matrix, and its raw gradient."""
    coef = np.asarray(coef, dtype=float)[None]
    nll, logp = _stack_value(coef, d.xu, d.counts[None], ridge)
    _check_finite(nll.tolist())
    return float(nll[0]), _stack_gradient(coef, logp, d.xu, d.counts[None], d.totals[None], ridge)[0]


def nll_and_gradient(m: MnlModel, d: DesignData) -> tuple[float, np.ndarray]:
    """Smooth objective value and its gradient projected onto the constraint subspace."""
    if m.n_predictors != d.n_predictors or m.n_categories != d.n_categories:
        raise ValueError("model and design dimensions disagree")
    nll, grad = _smooth_parts(m.coefficients, d, m.penalty.ridge_coefficient)
    return nll, project_constraint(grad)


def prox_group(v: np.ndarray, t: float) -> np.ndarray:
    """Proximal operator of t * l2-norm: shrink the block, zero it inside the threshold."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= t:
        return np.zeros_like(v)
    return (1.0 - t / norm) * v


def _column_norms(coef: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column of a matrix or of each matrix in a stack.

    Each norm is one BLAS dot over a contiguous copy of its column, as
    ``np.linalg.norm`` takes it, so the values match ``prox_group`` bit
    for bit.
    """
    cols = np.ascontiguousarray(coef.swapaxes(-1, -2))
    return np.sqrt(np.matmul(cols[..., None, :], cols[..., :, None]))[..., 0, 0]


def _stack_prox(coef: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``prox_group`` on every non-intercept column of each problem, problem b at ``thresholds[b]``."""
    body = coef[..., 1:]
    norms = _column_norms(body)
    t = thresholds[:, None]
    keep = norms > t
    scale = 1.0 - t / np.where(keep, norms, 1.0)
    out = coef.copy()
    out[..., 1:] = np.where(keep[:, None, :], scale[:, None, :] * body, 0.0)
    return out


def group_norms(coef: np.ndarray) -> tuple[float, ...]:
    return tuple(_column_norms(coef[:, 1:]).tolist())


def _intercept_start(y: np.ndarray, w: np.ndarray, k: int, p: int) -> np.ndarray:
    counts = np.bincount(y, weights=w, minlength=k)
    coef = np.zeros((k, p))
    coef[:, 0] = np.log(np.maximum(counts / counts.sum(), 1e-12))
    return project_constraint(coef)


def initial_coefficients(d: DesignData) -> np.ndarray:
    """Start at the intercept-only solution: log weighted category frequencies."""
    return _intercept_start(d.y, d.w, d.n_categories, d.n_predictors)


def _fit_stack(
    xu: np.ndarray,
    counts: np.ndarray,
    totals: np.ndarray,
    lams: np.ndarray,
    ridge: float,
    options: FitOptions,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[FitReport]]:
    """Fit B problems over the shared distinct rows ``xu`` in lockstep.

    Problem b has K x G counts ``counts[b]``, row totals ``totals[b]``,
    group-lasso weight ``lams[b]`` and start ``x0[b]``, already on the
    constraint subspace.  The array work of an iteration (objective,
    gradient, each backtracking round's proximal step) runs once over the
    stack of problems still running; the scalar decisions (line search,
    momentum, restarts, stopping) run per problem, on Python floats.  A
    round tries the whole stack, since trying again a problem whose step
    passed changes nothing: that step size is kept, and a trial depends
    only on the problem's own y, gradient and step, so it gets the same
    trial and verdict, bit for bit.  A problem that stops leaves the
    stack with its coefficients frozen, so it costs nothing more.
    Returns the final (B, K, P) iterates, before the last projection,
    and one report per problem.
    """
    n = len(x0)
    lam_list = lams.tolist()
    penalized = any(lam_list)

    def objectives(nll: list[float], coef: np.ndarray, lam_list: list[float]) -> list[float]:
        if not penalized:
            return list(nll)
        sums = [math.fsum(row) for row in _column_norms(coef[..., 1:]).tolist()]
        return [f + lam * s for f, lam, s in zip(nll, lam_list, sums)]

    # Lists and arrays hold the running problems in stack order; ``out``, where their results go.
    final = np.empty_like(x0)
    reports = [[] for _ in range(n)]
    out = list(zip(final, reports))
    x = y = x0
    nll_x = _stack_value(x, xu, counts, ridge)[0].tolist()
    _check_finite(nll_x)
    obj_x = objectives(nll_x, x, lam_list)
    history = [[v] for v in obj_x]
    lipschitz, momentum = [1.0 / INITIAL_STEP] * n, [1.0] * n
    backtracks, restarts = [0] * n, [0] * n

    for it in range(1, options.max_iterations + 1):
        m = len(out)
        f_y, logp = _stack_value(y, xu, counts, ridge)
        f_y = f_y.tolist()
        _check_finite(f_y)
        grad = _project_in_place(_stack_gradient(y, logp, xu, counts, totals, ridge))
        del logp

        searching = list(range(m))
        for _ in range(MAX_BACKTRACKS):
            steps = np.array(lipschitz)
            cand = y - grad / steps[:, None, None]
            if penalized:
                cand = _stack_prox(cand, lams / steps)
            cand = _project_in_place(cand)
            diff = cand - y
            f_cand = _stack_value(cand, xu, counts, ridge)[0].tolist()
            _check_finite(f_cand)
            linear = (grad * diff).reshape(m, -1).sum(axis=1).tolist()
            square = (diff * diff).reshape(m, -1).sum(axis=1).tolist()
            quad = [f + a + 0.5 * lip * s for f, a, s, lip in zip(f_y, linear, square, lipschitz)]
            searching = [i for i in searching if not f_cand[i] <= quad[i] + 1e-12 * max(1.0, abs(f_y[i]))]
            if not searching:
                break
            for i in searching:
                lipschitz[i] *= BACKTRACK_FACTOR
                backtracks[i] += 1

        obj_cand = objectives(f_cand, cand, lam_list)
        # A problem still running after the last allowed iteration stops there.
        stop = ["max_iterations" if it == options.max_iterations else None] * m
        accepted, beta = [False] * m, [0.0] * m
        for i in range(m):
            if i in searching:  # every halving failed
                stop[i] = "line_search_failed"
            elif obj_cand[i] > obj_x[i]:
                if momentum[i] == 1.0:
                    # A step without momentum raised the objective: from the
                    # incumbent, an accepted proximal step can only lose to rounding.
                    stop[i] = "stationary"
                else:
                    # Momentum overshot: keep the incumbent and restart acceleration.
                    momentum[i] = 1.0
                    restarts[i] += 1
            else:
                m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum[i] * momentum[i]))
                beta[i] = (momentum[i] - 1.0) / m_next
                change = obj_x[i] - obj_cand[i]
                momentum[i] = m_next
                nll_x[i], obj_x[i] = f_cand[i], obj_cand[i]
                history[i].append(obj_x[i])
                accepted[i] = True
                if change <= options.tolerance * max(1.0, abs(obj_x[i])):
                    stop[i] = "converged"

        # Accepted problems move to the candidate; the rest keep x, and a restarted one takes y = x.
        held = ~np.array(accepted)[:, None, None]
        y = _project_in_place(cand + np.array(beta)[:, None, None] * (cand - x))
        np.copyto(cand, x, where=held)
        x = cand
        np.copyto(y, x, where=held)
        done = [i for i in range(m) if stop[i]]
        if done:
            # Problems that stopped leave the stack with their iterates and reports.
            for i, norms in zip(done, _column_norms(x[done][..., 1:]).tolist()):
                row, slot = out[i]
                row[...] = x[i]
                slot.append(FitReport(
                    nll=nll_x[i], objective=obj_x[i], iterations=it, converged=stop[i] in ("converged", "stationary"),
                    stop_reason=stop[i], backtracks=backtracks[i], restarts=restarts[i], group_norms=tuple(norms),
                    objective_history=tuple(history[i]),
                ))
            keep = [i for i in range(m) if not stop[i]]
            if not keep:
                break
            x, y, counts, totals, lams = (a[keep] for a in (x, y, counts, totals, lams))
            out, nll_x, obj_x, history, lipschitz, momentum, backtracks, restarts, lam_list = (
                [s[i] for i in keep]
                for s in (out, nll_x, obj_x, history, lipschitz, momentum, backtracks, restarts, lam_list)
            )
    return final, [report for (report,) in reports]


def _pair_table(xu: np.ndarray) -> np.ndarray:
    """The 0/1 products x_i x_j of each distinct row's predictor pairs i <= j, as a G x P(P+1)/2 ``uint8`` matrix: ``_hessian``'s constant factor."""
    x = xu.astype(np.uint8)
    iu, ju = np.triu_indices(xu.shape[1])
    pairs = x[:, iu]
    pairs &= x[:, ju]
    return pairs


def _hessian(pairs: np.ndarray, p: int, totals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The NLL's KP x KP Hessian, sum over distinct rows g of t_g (diag p_g - p_g p_g') kron x_g x_g'.

    Both factors are symmetric, so only category pairs k <= l and
    predictor pairs i <= j are formed: per block of distinct rows, one
    GEMM of the pairs' weights t_g p_kg (delta_kl - p_lg) by the rows'
    0/1 column products, ``pairs`` (``_pair_table`` of the P predictors).
    Each of a block's temporaries is no larger than the K x G ``probs``.
    """
    k, g = probs.shape
    ku, lu = np.triu_indices(k)
    iu, ju = np.triu_indices(p)
    same = (ku == lu)[:, None]
    rows = max(1, k * g // max(len(ku), len(iu)))
    tri = np.zeros((len(ku), len(iu)))
    for lo in range(0, g, rows):
        block = slice(lo, lo + rows)
        weights = same - probs[lu, block]
        weights *= (probs[:, block] * totals[block])[ku]
        tri += weights @ pairs[block].astype(float)
    # Entry ((k, i), (l, j)) is pair (min(k, l), max(k, l)) by pair (min(i, j), max(i, j)).
    pair_k, pair_p = np.empty((k, k), dtype=int), np.empty((p, p), dtype=int)
    pair_k[ku, lu] = pair_k[lu, ku] = np.arange(len(ku))
    pair_p[iu, ju] = pair_p[ju, iu] = np.arange(len(iu))
    return tri[pair_k[:, None, :, None], pair_p[None, :, None, :]].reshape(k * p, k * p)


def _fit_newton(d: DesignData, ridge: float, options: FitOptions, x0: np.ndarray) -> tuple[np.ndarray, FitReport]:
    """Fit the smooth objective (NLL + ridge) by damped Newton steps from ``x0``.

    A category with no count has no finite maximum-likelihood row, so its
    row stays where it starts; only the other, free rows move, and their
    sum stays fixed.  Each step is solved in the free rows' coordinates
    (the null-space method; Nocedal & Wright, *Numerical Optimization*,
    16.2): the Hessian covers the free rows only, and the last free row
    is minus the sum of the others, so the system is E'HE z = -E'g for
    E = [I; -1'] kron I, and the step E z.
    Armijo backtracking halves the step at most ``MAX_BACKTRACKS`` times.
    The fit stops when half the Newton decrement, -g'step / 2, is within
    ``tolerance * max(1, |f|)``, after taking that last step unless it
    raises f.  Returns the final iterate, before the last projection, and
    its report.
    """
    p = x0.shape[1]
    counts, totals = d.counts[None], d.totals[None]
    rows = np.flatnonzero(d.counts.any(axis=1))
    diagonal = np.arange(len(rows) * p)
    pairs = _pair_table(d.xu)

    def value(coef: np.ndarray) -> tuple[float, np.ndarray]:
        nll, logp = _stack_value(coef[None], d.xu, counts, ridge)
        return float(nll[0]), logp

    x = x0
    f, logp = value(x)
    _check_finite([f])
    history = [f]
    stop, backtracks = "max_iterations", 0
    for it in range(1, options.max_iterations + 1):
        grad = _stack_gradient(x[None], logp, d.xu, counts, totals, ridge)[0, rows]
        probs = logp[0, rows]
        hess = _hessian(pairs, p, d.totals, np.exp(probs, out=probs))
        hess[diagonal, diagonal] += ridge * (diagonal % p > 0)
        blocks = hess.reshape(len(rows), p, len(rows), p)
        blocks[:, :, :-1] -= blocks[:, :, -1:]
        blocks[:-1] -= blocks[-1:]
        grad = grad[:-1] - grad[-1]
        # E'HE is the leading block of the eliminated matrix, a view.
        solution = np.linalg.solve(hess[: grad.size, : grad.size], -grad.reshape(-1)).reshape(-1, p)
        hess = blocks = None  # before the next step's Hessian is built
        step = np.zeros_like(x)
        step[rows[:-1]] = solution
        step[rows[-1]] = -solution.sum(axis=0)
        slope = float(np.vdot(grad, solution))
        if -0.5 * slope <= options.tolerance * max(1.0, abs(f)):
            stop = "converged"
            f_last, _ = value(x + step)
            if f_last <= f:
                x, f = x + step, f_last
                history.append(f)
            break
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = x + alpha * step
            f_trial, logp = value(trial)
            # Armijo: at least a quarter of the decrease the slope promises.
            if f_trial <= f + 0.25 * alpha * slope:
                break
            alpha /= BACKTRACK_FACTOR
            backtracks += 1
        else:
            stop = "line_search_failed"
            break
        x, f = trial, f_trial
        history.append(f)

    report = FitReport(
        nll=f,
        objective=f,
        iterations=it,
        converged=stop == "converged",
        stop_reason=stop,
        backtracks=backtracks,
        restarts=0,
        group_norms=group_norms(x),
        objective_history=tuple(history),
    )
    return x, report


def fit(
    d: DesignData,
    penalty: PenaltySpec,
    options: FitOptions = FitOptions(),
    start: np.ndarray | None = None,
) -> tuple[MnlModel, FitReport]:
    """Fit by damped Newton steps (no penalty or ridge) or by monotone accelerated proximal
    gradient with backtracking (group lasso, at any lambda).

    Deterministic given identical inputs and options.  A line search
    that cannot make progress within ``MAX_BACKTRACKS`` step halvings
    ends the fit with ``converged=False`` instead of raising; a
    proximal-gradient step without momentum that raises the objective
    ends it as stationary.  ``start`` must be a finite K x P matrix.
    """
    if np.count_nonzero(d.counts.any(axis=1)) < 2:
        raise ValueError("need at least 2 observed categories")
    shape = (d.n_categories, d.n_predictors)
    if start is None:
        x0 = initial_coefficients(d)
    else:
        x0 = np.asarray(start, dtype=float)
        if x0.shape != shape:
            raise ValueError(f"start must be a {shape[0]} x {shape[1]} matrix, got shape {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("start must be finite")
        x0 = project_constraint(x0)
    if penalty.kind is PenaltyKind.GROUP_LASSO:
        lams = np.array([penalty.group_lambda])
        x, (report,) = _fit_stack(
            d.xu, d.counts[None], d.totals[None], lams, penalty.ridge_coefficient, options, x0[None]
        )
        x = x[0]
    else:
        x, report = _fit_newton(d, penalty.ridge_coefficient, options, x0)
    return MnlModel(project_constraint(x), penalty), report


def predict_proba(m: MnlModel, x) -> np.ndarray:
    """Category probabilities for a covariate vector (leading 1 required).

    ``x`` may also be an (n, p) matrix of such vectors; the result then
    has one row of probabilities per row of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != m.n_predictors:
        raise ValueError(f"expected covariate vectors of length {m.n_predictors}, got shape {x.shape}")
    if np.any(x[..., 0] != 1.0):
        raise ValueError("covariate vector must start with the intercept constant 1")
    probs = x @ m.coefficients.T
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def lambda_max(d: DesignData) -> float:
    """Smallest group-lasso lambda that keeps every non-intercept group at zero."""
    # The null-model gradient's largest group norm (Friedman, Hastie & Tibshirani 2010).
    grad = _smooth_parts(initial_coefficients(d), d, 0.0)[1]
    return max(group_norms(_project_in_place(grad)), default=0.0)


def default_lambda_grid(d: DesignData, points: int = 20) -> tuple[float, ...]:
    """Log-spaced descending grid from lambda_max down to lambda_max / 1000."""
    _check_integer("grid points", points)
    if points < 1:
        raise ValueError(f"grid points must be >= 1, got {points}")
    top = lambda_max(d)
    if top <= 0:
        return (0.0,)
    return tuple(float(v) for v in np.geomspace(top, top / 1000.0, points))


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Seeded fold ids, stratified by category so small categories spread out.

    Row i's key is SplitMix64's output for state ``seed + (i + 1) *
    0x9E3779B97F4A7C15`` mod 2^64 (Steele, Lea & Flood 2014).  Its
    finalizer is a bijection and the states are distinct, so no two keys
    tie.  Rows sorted by category, then key, are dealt to the folds in
    turn, the count carrying across categories, so within a category
    fold sizes differ by at most 1.  The arithmetic is plain uint64, so
    a seed gives the same folds under every numpy release.
    """
    z = np.arange(1, len(y) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(int(seed) % 2**64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    assignment = np.empty(len(y), dtype=int)
    assignment[np.lexsort((z ^ (z >> np.uint64(31)), y))] = np.arange(len(y)) % folds
    return assignment


def _descending(lambda_grid) -> list[float]:
    grid = [float(v) for v in lambda_grid]
    if any(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be descending")
    return grid


def _fold_stack(d: DesignData, stack: list):
    """The training problems of the (assignment, fold) pairs in ``stack``, over the distinct
    rows they train on: those rows, counts, totals, penalty fractions and starts; then each
    fold's held-out K x G counts over all of ``d.xu`` and its held-out weight."""
    xu, k = d.xu, d.n_categories
    w_total = float(d.w.sum())
    counts = np.empty((len(stack), k, len(xu)))
    test_counts = np.empty_like(counts)
    fractions = np.empty(len(stack))
    test_weights = np.empty(len(stack))
    start = np.empty((len(stack), k, d.n_predictors))
    for b, (assignment, f) in enumerate(stack):
        train, test = assignment != f, assignment == f
        y, w = d.y[train], d.w[train]
        # Each side's rows in respondent order: the same sums a regroup of them gives.
        for out, part in ((counts, train), (test_counts, test)):
            cells = d.y[part] * len(xu) + d.group[part]
            out[b] = np.bincount(cells, weights=d.w[part], minlength=out[b].size).reshape(k, -1)
        if np.count_nonzero(counts[b].any(axis=1)) < 2:
            raise ValueError("need at least 2 observed categories")
        fractions[b] = float(w.sum()) / w_total
        test_weights[b] = float(d.w[test].sum())
        start[b] = _intercept_start(y, w, k, d.n_predictors)
    # Only the distinct rows some problem of the stack trains on.
    rows = np.flatnonzero(counts.any(axis=(0, 1)))
    counts = counts[:, :, rows]
    return xu[rows], counts, counts.sum(axis=1), fractions, start, test_counts, test_weights


def _fit_grid(
    d: DesignData, grid: list[float], splits: list, options: FitOptions, path: bool
) -> tuple[np.ndarray, list[FitReport]]:
    """The warm-started loop over a descending grid behind ``cross_validate`` and ``fit_path``.

    Fits the training rows of each (assignment, fold) pair in ``splits``
    and, if ``path``, all of ``d`` at every grid value, each problem
    warm-started from its own fit at the value before, in stacks laid
    out as the module docstring says.  Returns each split's held-out
    score at each value, and the full-data fit's report at each value
    (none without ``path``).
    """
    per_stack = max(1, STACK_CELLS // (len(d.xu) * d.n_categories))
    scores = np.zeros((len(splits), len(grid)))
    path_reports = [None] * len(grid) if path else []
    for lo in range(0, len(splits) + path, per_stack):
        stacks = [_fold_stack(d, splits[lo : lo + per_stack])] if lo < len(splits) else []
        if path and lo + per_stack > len(splits):
            # The full-data fit, after the last split.
            full = (d.counts[None], d.totals[None], np.ones(1), initial_coefficients(d)[None])
            if stacks and len(stacks[0][0]) == len(d.xu):
                stack_xu, *arrays, test_counts, test_weights = stacks[0]
                stacks[0] = (stack_xu, *map(np.concatenate, zip(arrays, full)), test_counts, test_weights)
            else:
                stacks.append((d.xu, *full, None, np.empty(0)))
        for stack_xu, counts, totals, fractions, start, test_counts, test_weights in stacks:
            n_tests = len(test_weights)
            for j, lam in enumerate(grid):
                penalty = PenaltySpec.group_lasso(lam)
                lams = penalty.group_lambda * fractions
                x, reports = _fit_stack(stack_xu, counts, totals, lams, penalty.ridge_coefficient, options, start)
                coef = project_constraint(x)
                if n_tests:
                    # Held-out NLL per unit held-out weight; a path-only stack has none to score.
                    held_out = _stack_value(coef[:n_tests], d.xu, test_counts, 0.0)[0]
                    scores[lo : lo + n_tests, j] = held_out / test_weights
                if len(reports) > n_tests:
                    path_reports[j] = reports[-1]
                # Warm start, projected once more as ``fit`` projects a given start.
                start = project_constraint(coef)
    return scores, path_reports


def fit_path(d: DesignData, lambda_grid, options: FitOptions = FitOptions()) -> list[FitReport]:
    """Group-lasso fits of ``d`` along a descending grid, each started where the one before
    ended: one report per grid value, bit-identical to ``fit`` warm-started the same way."""
    grid = _descending(lambda_grid)
    if np.count_nonzero(d.counts.any(axis=1)) < 2:
        raise ValueError("need at least 2 observed categories")
    return _fit_grid(d, grid, [], options, path=True)[1]


def cross_validate(
    d: DesignData,
    lambda_grid,
    folds: int,
    seed: int,
    options: FitOptions = FitOptions(),
    repeats: int = 1,
    *,
    return_path: bool = False,
):
    """Pick the group-lasso lambda by weighted held-out NLL.

    The grid must be descending; fits warm-start along it within each
    fold.  Each fold's penalty is scaled by its training-weight
    fraction, so a grid value always means the same penalty per unit
    weight whether it is applied to a fold or to the full-data refit.
    Folds are stratified by category: ``_stratified_folds`` orders each
    category's rows by a SplitMix64 key of the seed and the row and deals
    them to the folds in turn, so a seed gives the same folds under every
    numpy release.  ``repeats`` averages the score over that many seeded
    splits (seeds ``seed + 7919 r``), reducing selection variance.  Ties
    in the mean score go to the larger lambda.  A fold missing a
    category is scored against the model's own (always positive) softmax
    probabilities, so it needs no special casing.

    Returns the selected lambda and the mean score at each grid value.
    With ``return_path`` a third item holds ``fit_path``'s reports for
    the same grid, fitted in the cross-validation stacks without
    changing any fold's result.  The folds x repeats at one lambda are
    fitted as stacks of up to ``STACK_CELLS`` count cells; see the
    module docstring.
    """
    grid = _descending(lambda_grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    for name, value in (("folds", folds), ("repeats", repeats), ("seed", seed)):
        _check_integer(name, value)
    if folds < 2 or d.n < folds:
        raise ValueError("need 2 <= folds <= n")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    assignments = [_stratified_folds(d.y, folds, seed + 7919 * r) for r in range(repeats)]
    splits = [(assignment, f) for assignment in assignments for f in range(folds)]
    scores, path = _fit_grid(d, grid, splits, options, return_path)
    means = scores.mean(axis=0)
    # The first minimum: ties go to the larger lambda.
    selected = grid[int(np.argmin(means))], tuple(float(v) for v in means)
    return (*selected, path) if return_path else selected
