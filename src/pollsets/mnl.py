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
of O(n K P).  ``lambda_max`` stays a per-row sum: it sets the top of
the lambda grid, whose values reach the output exactly, and a grouped
sum rounds differently in the last bit.  Fold assignment and held-out
scoring in cross-validation stay per respondent too.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RIDGE_FLOOR = 1e-8


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
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")

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
    out = np.array(mat, dtype=float)
    if constraint.kind == "reference":
        out[constraint.ref, :] = 0.0
    elif constraint.kind == "symmetric":
        out -= out.mean(axis=0, keepdims=True)
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
    def grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct design rows ``xu``, their G x K weighted category counts, and each row's total."""
        # Rows as opaque byte strings: np.unique sorts these far faster than
        # it sorts rows with axis=0.
        rows = np.ascontiguousarray(self.x).view(np.dtype((np.void, self.x.itemsize * self.x.shape[1])))
        _, first, group = np.unique(rows.ravel(), return_index=True, return_inverse=True)
        xu = self.x[first]
        k = self.n_categories
        counts = np.bincount(group * k + self.y, weights=self.w, minlength=len(xu) * k)
        counts = counts.reshape(len(xu), k)
        totals = counts.sum(axis=1)
        for arr in (xu, counts, totals):
            arr.flags.writeable = False
        return xu, counts, totals

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
    max_iterations: int = 10_000
    tolerance: float = 1e-8
    initial_step: float = 1.0
    backtrack_factor: float = 2.0
    max_backtracks: int = 60


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _smooth_value(coef: np.ndarray, d: DesignData, ridge: float) -> tuple[float, np.ndarray]:
    """Weighted NLL + ridge on non-intercept columns, and the log-probabilities per distinct row."""
    xu, counts, _ = d.grouped
    logp = _log_softmax(xu @ coef.T)
    nll = -float(np.vdot(counts, logp))
    if ridge:
        body = coef[:, 1:]
        nll += 0.5 * ridge * float(np.sum(body * body))
    if not math.isfinite(nll):
        raise ValueError("non-finite objective; coefficients diverged")
    return nll, logp


def _smooth_parts(coef: np.ndarray, d: DesignData, ridge: float):
    """Weighted NLL + ridge on non-intercept columns, and its raw gradient."""
    nll, logp = _smooth_value(coef, d, ridge)
    xu, counts, totals = d.grouped
    grad = (np.exp(logp) * totals[:, None] - counts).T @ xu
    if ridge:
        grad[:, 1:] += ridge * coef[:, 1:]
    return nll, grad


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


def _apply_prox(coef: np.ndarray, threshold: float) -> np.ndarray:
    if threshold == 0.0:
        return coef
    out = coef.copy()
    for j in range(1, coef.shape[1]):
        out[:, j] = prox_group(coef[:, j], threshold)
    return out


def group_norms(coef: np.ndarray) -> tuple[float, ...]:
    return tuple(float(np.linalg.norm(coef[:, j])) for j in range(1, coef.shape[1]))


def _group_penalty(coef: np.ndarray, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    return lam * math.fsum(group_norms(coef))


def initial_coefficients(d: DesignData, constraint: Constraint) -> np.ndarray:
    """Start at the intercept-only solution: log weighted category frequencies."""
    counts = np.zeros(d.n_categories)
    np.add.at(counts, d.y, d.w)
    freqs = np.maximum(counts / counts.sum(), 1e-12)
    coef = np.zeros((d.n_categories, d.n_predictors))
    coef[:, 0] = np.log(freqs)
    return project_constraint(coef, constraint)


def fit(
    d: DesignData,
    penalty: PenaltySpec,
    constraint: Constraint,
    options: FitOptions = FitOptions(),
    start: np.ndarray | None = None,
) -> tuple[MnlModel, FitReport]:
    """Fit by monotone accelerated proximal gradient with backtracking.

    Deterministic given identical inputs and options.  A line search
    that cannot make progress within ``max_backtracks`` step halvings
    ends the fit with ``converged=False`` instead of raising.  A step
    without momentum that raises the objective ends it as stationary:
    from the incumbent, an accepted proximal step can only lose to
    rounding.
    """
    if len(np.unique(d.y)) < 2:
        raise ValueError("need at least 2 observed categories")
    ridge = penalty.ridge_coefficient
    lam = penalty.group_lambda

    x_curr = project_constraint(start, constraint) if start is not None else initial_coefficients(d, constraint)
    y_mat = x_curr
    nll_curr, _ = _smooth_value(x_curr, d, ridge)
    obj_curr = nll_curr + _group_penalty(x_curr, lam)
    history = [obj_curr]
    lipschitz = 1.0 / options.initial_step
    t_curr = 1.0
    stop_reason = "max_iterations"
    iterations = backtracks = restarts = 0

    for iterations in range(1, options.max_iterations + 1):
        f_y, grad_y = _smooth_parts(y_mat, d, ridge)
        grad_y = project_constraint(grad_y, constraint)

        for _ in range(options.max_backtracks):
            cand = _apply_prox(y_mat - grad_y / lipschitz, lam / lipschitz)
            cand = project_constraint(cand, constraint)
            diff = cand - y_mat
            f_cand, _ = _smooth_value(cand, d, ridge)
            quad = f_y + float(np.sum(grad_y * diff)) + 0.5 * lipschitz * float(np.sum(diff * diff))
            if f_cand <= quad + 1e-12 * max(1.0, abs(f_y)):
                break
            lipschitz *= options.backtrack_factor
            backtracks += 1
        else:
            stop_reason = "line_search_failed"
            break

        obj_cand = f_cand + _group_penalty(cand, lam)
        if obj_cand > obj_curr:
            if t_curr == 1.0:
                stop_reason = "stationary"
                break
            # Momentum overshot: keep the incumbent and restart acceleration.
            y_mat = x_curr
            t_curr = 1.0
            restarts += 1
            continue

        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_curr * t_curr))
        y_mat = cand + ((t_curr - 1.0) / t_next) * (cand - x_curr)
        y_mat = project_constraint(y_mat, constraint)
        change = obj_curr - obj_cand
        x_curr = cand
        nll_curr, obj_curr = f_cand, obj_cand
        t_curr = t_next
        history.append(obj_curr)
        if change <= options.tolerance * max(1.0, abs(obj_cand)):
            stop_reason = "converged"
            break

    model = MnlModel(project_constraint(x_curr, constraint), constraint, penalty)
    report = FitReport(
        nll=nll_curr,
        objective=obj_curr,
        iterations=max(iterations, 1),
        converged=stop_reason in ("converged", "stationary"),
        stop_reason=stop_reason,
        backtracks=backtracks,
        restarts=restarts,
        group_norms=group_norms(x_curr),
        objective_history=tuple(history),
    )
    return model, report


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
    norms = [float(np.linalg.norm(grad[:, j])) for j in range(1, d.n_predictors)]
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
        for pos, i in enumerate(idx):
            assignment[i] = (offset + pos) % folds
        offset += len(idx)
    return assignment


def _holdout_nll(model: MnlModel, d: DesignData, idx: np.ndarray) -> float:
    logp = _log_softmax(d.x[idx] @ model.coefficients.T)
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
    w_total = float(d.w.sum())
    scores = np.zeros((folds * repeats, len(grid)))
    for r in range(repeats):
        assignment = _stratified_folds(d.y, folds, seed + 7919 * r)
        for f in range(folds):
            train = np.flatnonzero(assignment != f)
            test = np.flatnonzero(assignment == f)
            d_train = DesignData(d.x[train], d.y[train], d.w[train], d.n_categories)
            fraction = float(d_train.w.sum()) / w_total
            warm = None
            for j, lam in enumerate(grid):
                model, _ = fit(d_train, PenaltySpec.group_lasso(lam * fraction), constraint, options, start=warm)
                warm = model.coefficients
                scores[r * folds + f, j] = _holdout_nll(model, d, test)
    means = scores.mean(axis=0)
    best = 0
    for j in range(1, len(grid)):
        if means[j] < means[best]:
            best = j
    return grid[best], tuple(float(v) for v in means)


def model_to_json(m: MnlModel) -> str:
    doc = {
        "coefficients": [float(v) for v in m.coefficients.ravel()],
        "shape": list(m.coefficients.shape),
        "constraint": m.constraint.kind,
        "reference": m.constraint.ref,
        "penalty": m.penalty.kind.value,
        "lambda": m.penalty.lam,
    }
    return json.dumps(doc, indent=2) + "\n"


def model_from_json(text: str) -> MnlModel:
    doc = json.loads(text)
    shape = tuple(doc["shape"])
    coef = np.array(doc["coefficients"], dtype=float).reshape(shape)
    if doc["constraint"] == "reference":
        constraint = Constraint.reference(int(doc["reference"]))
    else:
        constraint = Constraint.symmetric()
    penalty = PenaltySpec(PenaltyKind(doc["penalty"]), float(doc["lambda"]))
    return MnlModel(coef, constraint, penalty)
