"""Weighted multinomial logistic regression with composite penalties.

Coefficients live in a K x P matrix (categories by predictors, first
predictor the intercept).  Identifiability comes from either a
reference category whose row is pinned at zero or a symmetric
constraint keeping every column sum at zero.  Both are linear
subspaces, so they are enforced by projection at every iterate.

The fitter is a monotone accelerated proximal gradient method with
backtracking: the smooth part is the weighted negative log-likelihood
plus a small ridge term, the nonsmooth part an optional group-lasso
penalty with one group per non-intercept column.  Because the group
proximal operator rescales whole columns, it preserves both constraint
subspaces, and the composite iteration never leaves them.

A mandatory ridge floor on non-intercept coefficients guards against
perfect separation; binary covariates alone do not rule it out.

Fits run on grouped counts, not on respondent rows.  Covariates are
binary, so a design has at most 2^(P-1) distinct rows, often far fewer
than respondents.  The weighted category counts per distinct row are
sufficient statistics for the likelihood (Agresti, *Categorical Data
Analysis*), so an iteration costs O(G K P) for G distinct rows instead
of O(n K P).

The fitter's per-row arrays are category-major: counts, scores and
log-probabilities are K x G per problem, each category's G distinct
rows contiguous.  The log-softmax's max and sum over categories are
then K - 1 elementwise passes over length-G vectors rather than one
short reduction per row, which costs most when G is large and K is
about 10.  The sums over categories run in category order for any K,
never pairwise.  Counts are laid out once per fit or stack, never per
iteration.  ``lambda_max`` and held-out scoring stay per respondent and
row-major, so their sums keep their bits: the top of the lambda grid
reaches the output exactly, and the held-out scores pick the penalty.

One core, ``_fit_stack``, fits a stack of B problems that share the
distinct rows and differ in their counts, penalty weight and start.
Each problem keeps its own step size, momentum and stop state, and a
stopped problem leaves the stack with its coefficients frozen.  Every
array operation in the core works per problem and in the same order
for any B, so a problem fitted in a stack ends bit-identical to the
same problem fitted alone.  ``fit`` is the case B = 1.
Cross-validation fits the folds of every repeat at one lambda as one
stack over the distinct rows they train on, each fold's training counts
summed from its own rows in respondent order.  A stack holds at most
``STACK_CELLS`` count cells: past that, a fold's arithmetic outweighs
the per-iteration overhead a stack shares, so a large design fits
fewer folds per stack, down to one fold over its own rows, as a lone
fit would.  Fold assignment, the per-fold penalty scaling and held-out
scoring stay per respondent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RIDGE_FLOOR = 1e-8

# Most G x K count cells in one cross-validation stack; see the module docstring.
STACK_CELLS = 1 << 16

# Line search: the first step is INITIAL_STEP, and each failed trial
# divides the step by BACKTRACK_FACTOR, at most MAX_BACKTRACKS times.
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


@dataclass(frozen=True)
class Constraint:
    """Identifiability constraint: REFERENCE pins one row, SYMMETRIC centers columns."""

    kind: str
    ref: int | None = None

    @classmethod
    def reference(cls, category: int) -> Constraint:
        return cls("reference", category)

    @classmethod
    def symmetric(cls) -> Constraint:
        return cls("symmetric")


def project_constraint(mat: np.ndarray, constraint: Constraint) -> np.ndarray:
    """A copy of a K x P matrix, or of each matrix in a stack, on the constraint subspace."""
    out = np.array(mat, dtype=float)
    if constraint.kind == "reference":
        out[..., constraint.ref, :] = 0.0
    elif constraint.kind == "symmetric":
        out -= out.mean(axis=-2, keepdims=True)
    else:
        raise ValueError(f"unknown constraint kind {constraint.kind!r}")
    return out


@dataclass(frozen=True)
class DesignData:
    """Estimation rows: design matrix with leading intercept, category index, weight."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    n_categories: int

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=int)
        w = np.array(self.w, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],) or w.shape != (x.shape[0],):
            raise ValueError("design shapes disagree")
        if self.n_categories < 2:
            raise ValueError("need at least 2 categories")
        if x.shape[0] and not np.all(x[:, 0] == 1.0):
            raise ValueError("design matrix must carry a leading intercept column of ones")
        if np.any((y < 0) | (y >= self.n_categories)):
            raise ValueError("category index out of range")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        for name, arr in (("x", x), ("y", y), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @cached_property
    def grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct design rows ``xu``, their K x G weighted category counts, each row's total,
        and each respondent's index into ``xu``."""
        # Rows as opaque byte strings: np.unique sorts these far faster than
        # it sorts rows with axis=0.
        rows = np.ascontiguousarray(self.x).view(np.dtype((np.void, self.x.itemsize * self.x.shape[1])))
        _, first, group = np.unique(rows.ravel(), return_index=True, return_inverse=True)
        xu = self.x[first]
        g = len(xu)
        counts = np.bincount(self.y * g + group, weights=self.w, minlength=self.n_categories * g)
        counts = counts.reshape(self.n_categories, g)
        totals = counts.sum(axis=0)
        for arr in (xu, counts, totals, group):
            arr.flags.writeable = False
        return xu, counts, totals, group

    @property
    def n_predictors(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class MnlModel:
    """Fitted coefficient matrix with its constraint and penalty."""

    coefficients: np.ndarray
    constraint: Constraint
    penalty: PenaltySpec

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 2:
            raise ValueError("coefficients must be a K x P matrix")
        if self.constraint.kind == "reference":
            if np.any(coef[self.constraint.ref, :] != 0.0):
                raise ValueError("reference row must be identically zero")
        elif np.any(np.abs(coef.sum(axis=0)) >= 1e-8):
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

    ``stop_reason`` is ``converged`` (objective change within tolerance),
    ``stationary`` (a step without momentum could not lower the
    objective), ``max_iterations`` or ``line_search_failed``;
    ``converged`` is true for the first two.  ``backtracks`` counts step
    halvings, ``restarts`` momentum restarts.
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0):
            raise ValueError("tolerance must be finite and >= 0")


def _log_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along the category axis ``axis``, computed in place on ``scores``."""
    scores -= scores.max(axis=axis, keepdims=True)
    scores -= np.log(np.exp(scores).sum(axis=axis, keepdims=True))
    return scores


def _check_finite(values: list[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite objective; coefficients diverged")


def _stack_value(coef: np.ndarray, xu: np.ndarray, counts: np.ndarray, ridge: float):
    """Per problem of a (B, K, P) stack: weighted NLL + ridge on non-intercept columns,
    and the (B, K, G) log-probabilities per category and distinct row."""
    n = len(coef)
    logp = _log_softmax(coef @ xu.T, axis=-2)
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
    xu, counts, totals, _ = d.grouped
    coef = np.asarray(coef, dtype=float)[None]
    nll, logp = _stack_value(coef, xu, counts[None], ridge)
    _check_finite(nll.tolist())
    return float(nll[0]), _stack_gradient(coef, logp, xu, counts[None], totals[None], ridge)[0]


def nll_and_gradient(m: MnlModel, d: DesignData) -> tuple[float, np.ndarray]:
    """Smooth objective value and its gradient projected onto the constraint surface."""
    if m.n_predictors != d.n_predictors or m.n_categories != d.n_categories:
        raise ValueError("model and design dimensions disagree")
    nll, grad = _smooth_parts(m.coefficients, d, m.penalty.ridge_coefficient)
    return nll, project_constraint(grad, m.constraint)


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


def _intercept_start(y: np.ndarray, w: np.ndarray, k: int, p: int, constraint: Constraint) -> np.ndarray:
    counts = np.zeros(k)
    np.add.at(counts, y, w)
    freqs = np.maximum(counts / counts.sum(), 1e-12)
    coef = np.zeros((k, p))
    coef[:, 0] = np.log(freqs)
    return project_constraint(coef, constraint)


def initial_coefficients(d: DesignData, constraint: Constraint) -> np.ndarray:
    """Start at the intercept-only solution: log weighted category frequencies."""
    return _intercept_start(d.y, d.w, d.n_categories, d.n_predictors, constraint)


def _fit_stack(
    xu: np.ndarray,
    counts: np.ndarray,
    totals: np.ndarray,
    lams: np.ndarray,
    ridge: float,
    constraint: Constraint,
    options: FitOptions,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[FitReport]]:
    """Fit B problems over the shared distinct rows ``xu`` in lockstep.

    Problem b has K x G counts ``counts[b]``, row totals ``totals[b]``,
    group-lasso weight ``lams[b]`` and start ``x0[b]``, already on the
    constraint subspace.  The array work of an iteration (objective,
    gradient, proximal step) runs once over the stack of problems still
    running, and a backtracking round only over the problems it retries;
    the scalar decisions (line search, momentum, restarts, stopping) run
    per problem, on Python floats.  A problem that stops leaves the
    stack with its coefficients frozen, so it costs nothing more.
    Returns the final (B, K, P) iterates, before the last projection,
    and one report per problem.
    """
    n = len(x0)
    lam_list = lams.tolist()
    penalized = any(lam_list)

    def objectives(nll: list[float], coef: np.ndarray, ids: list[int]) -> list[float]:
        if not penalized:
            return list(nll)
        sums = [math.fsum(row) for row in _column_norms(coef[..., 1:]).tolist()]
        return [f + lam_list[b] * s for f, b, s in zip(nll, ids, sums)]

    # Problem ``ids[i]`` sits at position i of the running stack.
    ids = list(range(n))
    x = y = x0
    nll_x = _stack_value(x, xu, counts, ridge)[0].tolist()
    _check_finite(nll_x)
    obj_x = objectives(nll_x, x, ids)
    history = [[v] for v in obj_x]
    lipschitz = [1.0 / INITIAL_STEP] * n
    momentum = [1.0] * n
    stop = ["max_iterations"] * n
    iterations, backtracks, restarts = [0] * n, [0] * n, [0] * n
    final = np.empty_like(x0)

    for it in range(1, options.max_iterations + 1):
        m = len(ids)
        for b in ids:
            iterations[b] = it
        f_y, logp = _stack_value(y, xu, counts, ridge)
        f_y = f_y.tolist()
        _check_finite(f_y)
        grad = project_constraint(_stack_gradient(y, logp, xu, counts, totals, ridge), constraint)
        del logp

        cand, f_cand = None, [0.0] * m
        searching, lost = list(range(m)), []
        for _ in range(MAX_BACKTRACKS):
            if len(searching) == m:
                y_s, grad_s, counts_s, lams_s = y, grad, counts, lams
            else:
                y_s, grad_s, counts_s, lams_s = (a[searching] for a in (y, grad, counts, lams))
            steps = np.array([lipschitz[ids[i]] for i in searching])
            trial = y_s - grad_s / steps[:, None, None]
            if penalized:
                trial = _stack_prox(trial, lams_s / steps)
            trial = project_constraint(trial, constraint)
            diff = trial - y_s
            f_trial = _stack_value(trial, xu, counts_s, ridge)[0].tolist()
            _check_finite(f_trial)
            linear = (grad_s * diff).reshape(len(searching), -1).sum(axis=1).tolist()
            square = (diff * diff).reshape(len(searching), -1).sum(axis=1).tolist()
            # The first round tries every problem; a later round writes
            # only the rows it accepts.
            if cand is None:
                cand = trial
            failed = []
            for j, i in enumerate(searching):
                quad = f_y[i] + linear[j] + 0.5 * lipschitz[ids[i]] * square[j]
                if f_trial[j] <= quad + 1e-12 * max(1.0, abs(f_y[i])):
                    f_cand[i] = f_trial[j]
                    if cand is not trial:
                        cand[i] = trial[j]
                else:
                    failed.append(i)
            if not failed:
                break
            for i in failed:
                lipschitz[ids[i]] *= BACKTRACK_FACTOR
                backtracks[ids[i]] += 1
            searching = failed
        else:
            lost = searching
            for i in lost:
                stop[ids[i]] = "line_search_failed"

        obj_cand = objectives(f_cand, cand, ids)
        accepted, restarted, keep = [], [], []
        beta = [0.0] * m
        for i, b in enumerate(ids):
            if i in lost:
                continue
            if obj_cand[i] > obj_x[b]:
                if momentum[b] == 1.0:
                    # A step without momentum raised the objective: from the
                    # incumbent, an accepted proximal step can only lose to rounding.
                    stop[b] = "stationary"
                    continue
                # Momentum overshot: keep the incumbent and restart acceleration.
                momentum[b] = 1.0
                restarts[b] += 1
                restarted.append(i)
                keep.append(i)
                continue
            m_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum[b] * momentum[b]))
            beta[i] = (momentum[b] - 1.0) / m_next
            change = obj_x[b] - obj_cand[i]
            momentum[b] = m_next
            nll_x[b], obj_x[b] = f_cand[i], obj_cand[i]
            history[b].append(obj_x[b])
            accepted.append(i)
            if change <= options.tolerance * max(1.0, abs(obj_x[b])):
                stop[b] = "converged"
            else:
                keep.append(i)

        if accepted:
            y_next = project_constraint(cand + np.array(beta)[:, None, None] * (cand - x), constraint)
        if len(accepted) == m:
            x, y = cand, y_next
        elif accepted or restarted:
            x, y = x.copy(), y.copy()
            if accepted:
                x[accepted] = cand[accepted]
                y[accepted] = y_next[accepted]
            y[restarted] = x[restarted]
        if len(keep) < m:
            # Problems that stopped leave the stack with their iterates.
            done = [i for i in range(m) if i not in keep]
            final[[ids[i] for i in done]] = x[done]
            ids = [ids[i] for i in keep]
            if not ids:
                break
            x, y, counts, totals, lams = (a[keep] for a in (x, y, counts, totals, lams))
    if ids:
        final[ids] = x

    norms = _column_norms(final[..., 1:]).tolist()
    reports = [
        FitReport(
            nll=nll_x[b],
            objective=obj_x[b],
            iterations=iterations[b],
            converged=stop[b] in ("converged", "stationary"),
            stop_reason=stop[b],
            backtracks=backtracks[b],
            restarts=restarts[b],
            group_norms=tuple(norms[b]),
            objective_history=tuple(history[b]),
        )
        for b in range(n)
    ]
    return final, reports


def fit(
    d: DesignData,
    penalty: PenaltySpec,
    constraint: Constraint,
    options: FitOptions = FitOptions(),
    start: np.ndarray | None = None,
) -> tuple[MnlModel, FitReport]:
    """Fit by monotone accelerated proximal gradient with backtracking.

    Deterministic given identical inputs and options.  A line search
    that cannot make progress within ``MAX_BACKTRACKS`` step halvings
    ends the fit with ``converged=False`` instead of raising.  A step
    without momentum that raises the objective ends it as stationary:
    from the incumbent, an accepted proximal step can only lose to
    rounding.
    """
    if len(np.unique(d.y)) < 2:
        raise ValueError("need at least 2 observed categories")
    x0 = project_constraint(start, constraint) if start is not None else initial_coefficients(d, constraint)
    xu, counts, totals, _ = d.grouped
    lams = np.array([penalty.group_lambda])
    x, (report,) = _fit_stack(
        xu, counts[None], totals[None], lams, penalty.ridge_coefficient, constraint, options, x0[None]
    )
    return MnlModel(project_constraint(x[0], constraint), constraint, penalty), report


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


def lambda_max(d: DesignData, constraint: Constraint) -> float:
    """Smallest group-lasso lambda that keeps every non-intercept group at zero."""
    coef = initial_coefficients(d, constraint)
    # Per respondent row, not grouped: see the module docstring.  The
    # ridge term vanishes here, since every non-intercept column is zero.
    resid = np.exp(_log_softmax(d.x @ coef.T))
    resid[np.arange(d.n), d.y] -= 1.0
    grad = project_constraint((resid * d.w[:, None]).T @ d.x, constraint)
    norms = group_norms(grad)
    return max(norms) if norms else 0.0


def default_lambda_grid(d: DesignData, constraint: Constraint, points: int = 20) -> tuple[float, ...]:
    """Log-spaced descending grid from lambda_max down to lambda_max / 1000."""
    top = lambda_max(d, constraint)
    if top <= 0:
        return (0.0,)
    return tuple(float(v) for v in np.geomspace(top, top / 1000.0, points))


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Seeded fold ids, stratified by category so small categories spread out."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=int)
    offset = 0
    for cat in np.unique(y):
        idx = np.flatnonzero(y == cat)
        rng.shuffle(idx)
        assignment[idx] = (offset + np.arange(len(idx))) % folds
        offset += len(idx)
    return assignment


def _holdout_nll(coef: np.ndarray, d: DesignData, idx: np.ndarray) -> float:
    logp = _log_softmax(d.x[idx] @ coef.T)
    picked = logp[np.arange(len(idx)), d.y[idx]]
    w = d.w[idx]
    return -float(np.dot(w, picked)) / float(w.sum())


def cross_validate(
    d: DesignData,
    lambda_grid,
    folds: int,
    seed: int,
    constraint: Constraint = Constraint.symmetric(),
    options: FitOptions = FitOptions(),
    repeats: int = 1,
) -> tuple[float, tuple[float, ...]]:
    """Pick the group-lasso lambda by weighted held-out NLL.

    The grid must be descending; fits warm-start along it within each
    fold.  Each fold's penalty is scaled by its training-weight
    fraction, so a grid value always means the same penalty per unit
    weight whether it is applied to a fold or to the full-data refit.
    ``repeats`` averages the score over that many independent seeded
    fold splits, reducing selection variance.  Ties in the mean score
    go to the larger lambda.  A fold missing a category is scored
    against the model's own (always positive) softmax probabilities,
    so it needs no special casing.

    The folds x repeats at one lambda are fitted as stacks of up to
    ``STACK_CELLS`` count cells; see the module docstring.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda grid is empty")
    if any(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be descending")
    if folds < 2 or d.n < folds:
        raise ValueError("need 2 <= folds <= n")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    xu, _, _, group = d.grouped
    k = d.n_categories
    w_total = float(d.w.sum())
    assignments = [_stratified_folds(d.y, folds, seed + 7919 * r) for r in range(repeats)]
    splits = [(assignment, f) for assignment in assignments for f in range(folds)]
    per_stack = max(1, STACK_CELLS // (len(xu) * k))
    scores = np.zeros((len(splits), len(grid)))
    for lo in range(0, len(splits), per_stack):
        stack = splits[lo : lo + per_stack]
        counts = np.empty((len(stack), k, len(xu)))
        fractions = np.empty(len(stack))
        start = np.empty((len(stack), k, d.n_predictors))
        tests = []
        for b, (assignment, f) in enumerate(stack):
            train = np.flatnonzero(assignment != f)
            y, w = d.y[train], d.w[train]
            if len(np.unique(y)) < 2:
                raise ValueError("need at least 2 observed categories")
            # The training rows in respondent order: the same sums a regroup of them gives.
            counts[b] = np.bincount(y * len(xu) + group[train], weights=w, minlength=counts[b].size).reshape(k, -1)
            fractions[b] = float(w.sum()) / w_total
            start[b] = _intercept_start(y, w, k, d.n_predictors, constraint)
            tests.append(np.flatnonzero(assignment == f))
        # Only the distinct rows some problem of the stack trains on.
        rows = np.flatnonzero(counts.any(axis=(0, 1)))
        stack_xu, counts = xu[rows], counts[:, :, rows]
        totals = counts.sum(axis=1)
        for j, lam in enumerate(grid):
            penalty = PenaltySpec.group_lasso(lam)
            x, _ = _fit_stack(
                stack_xu, counts, totals, penalty.group_lambda * fractions, penalty.ridge_coefficient,
                constraint, options, start,
            )
            coef = project_constraint(x, constraint)
            scores[lo : lo + len(stack), j] = [_holdout_nll(coef[b], d, test) for b, test in enumerate(tests)]
            # Warm start, projected once more as ``fit`` projects a given start.
            start = project_constraint(coef, constraint)
    means = scores.mean(axis=0)
    best = 0
    for j in range(1, len(grid)):
        if means[j] < means[best]:
            best = j
    return grid[best], tuple(float(v) for v in means)
