"""Synthetic populations with known latent votes, plus a grid-search oracle.

Generated respondents draw a latent vote from a covariate-conditional
multinomial; a coarsened respondent reports a set that always contains
that vote, so the latent population shares are one admissible
completion of the survey and must fall inside every Dempster interval.

``oracle_constrained_bounds`` grid-searches within-set allocation
vectors, sharing nothing with the closed-form bounds it checks but the
effective allocation box.  It stays here, apart from the exact oracles
in ``tests/oracles.py``, because ``perfbench/checks.py`` imports it.

Randomness comes from numpy's default PCG64 generator, explicitly
seeded, so runs reproduce across platforms.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import AllocationConstraint, Interval, dempster_bounds, effective_allocation_limits, event_bounds
from .data import PartyRegistry, PartySet, Survey, csv_table, exact_sums, rounded
from .mnl import _check_integer

GRID_BUDGET = 2_000_000
# Rows of random keys ``_extra_parties`` draws at a time.
_KEY_ROWS = 1 << 12


def _real(v) -> float:
    """``v`` as a float if it is a real number; a string or a boolean, which ``float`` would read, raises TypeError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"not a real number: {v!r}")
    return float(v)


class CoarsenStyle(enum.Enum):
    ADD_RANDOM = "add_random"
    NEIGHBOR = "neighbor"


@dataclass(frozen=True)
class SimConfig:
    registry: PartyRegistry
    n: int
    coefficients: tuple[tuple[float, ...], ...]
    covariate_names: tuple[str, ...] = ()
    coarsen_prob: float = 0.2
    style: CoarsenStyle = CoarsenStyle.ADD_RANDOM
    seed: int = 0
    weight_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        _check_integer("n", self.n)
        _check_integer("seed", self.seed)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.coarsen_prob <= 1.0:
            raise ValueError("coarsen_prob must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        try:
            coef = tuple(tuple(map(_real, row)) for row in self.coefficients)
        except OverflowError:  # an integer too large for a float, as 1e400 reads as inf
            raise ValueError("coefficients must be finite") from None
        except (TypeError, ValueError):
            raise ValueError("coefficients must be a matrix of numbers") from None
        object.__setattr__(self, "coefficients", coef)
        p = 1 + len(self.covariate_names)
        if len(coef) != len(self.registry) or any(len(row) != p for row in coef):
            raise ValueError("coefficient matrix must be (registry size) x (1 + covariates)")
        if not all(map(math.isfinite, itertools.chain.from_iterable(coef))):
            raise ValueError("coefficients must be finite")
        lo, hi = self.weight_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError("weight_range must be finite and satisfy 0 < low <= high")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Latent vote per respondent and the resulting weighted population shares.

    ``votes`` is a read-only ``intp`` array of registry indices, one per
    respondent in survey order.
    """

    votes: np.ndarray
    shares: dict[str, float]

    def __post_init__(self):
        votes = np.array(self.votes, dtype=np.intp)
        votes.flags.writeable = False
        object.__setattr__(self, "votes", votes)


@dataclass(frozen=True)
class CoverageReport:
    violations: tuple[str, ...]
    margins: dict[str, float]

    @property
    def ok(self) -> bool:
        return not self.violations


def default_true_coefficients(k_categories: int, n_covariates: int) -> tuple[tuple[float, ...], ...]:
    """A fixed, centered coefficient pattern used when none is supplied."""
    coef = np.zeros((k_categories, 1 + n_covariates))
    coef[:, 0] = np.linspace(0.8, -0.8, k_categories)
    for j in range(1, 1 + n_covariates):
        for k in range(k_categories):
            coef[k, j] = 0.5 * ((-1) ** (k + j)) / j
    coef -= coef.mean(axis=0, keepdims=True)
    return tuple(tuple(float(v) for v in row) for row in coef)


def _extra_parties(
    rng: np.random.Generator, votes: np.ndarray, probs: np.ndarray, rows: np.ndarray, style: CoarsenStyle
) -> np.ndarray:
    """Bitmask of the parties each coarsened row in ``rows`` adds to its vote.

    A row adds 1 or 2 parties (fewer if there are not that many), the
    ones with the largest keys among those other than its vote.
    ADD_RANDOM keys are uniform, so the subset is uniform. NEIGHBOR keys
    are Efraimidis-Spirakis keys log(u)/p over the row's vote
    probabilities p, which select with the same distribution as drawing
    parties one at a time with probability proportional to p, without
    replacement.  The keys are drawn ``_KEY_ROWS`` rows at a time, each
    block's probabilities gathered from ``probs``; consecutive draws
    continue one stream, so the keys are those of one (len(rows), K) draw.
    """
    m, k = len(rows), probs.shape[1]
    n_extra = np.minimum(rng.integers(1, 3, size=m), k - 1)
    extras = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, _KEY_ROWS):
        block = rows[lo : lo + _KEY_ROWS]
        keys = rng.random((len(block), k))
        if style is CoarsenStyle.NEIGHBOR:
            with np.errstate(divide="ignore"):
                np.log(keys, out=keys)
                keys /= probs[block]
        at = np.arange(len(block))
        keys[at, votes[block]] = -np.inf
        for j in range(2):
            best = keys.argmax(axis=1)
            extras[lo : lo + len(block)] |= np.where(n_extra[lo : lo + len(block)] > j, np.left_shift(1, best), 0)
            keys[at, best] = -np.inf
    return extras


def generate_population(config: SimConfig) -> tuple[Survey, GroundTruth]:
    """Draw a survey and its latent votes; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    k = len(config.registry)
    n_cov = len(config.covariate_names)
    bits = rng.integers(0, 2, size=(config.n, n_cov)).astype(np.uint8)
    coef = np.array(config.coefficients)
    # In place: the n x K arrays dominate a large population's memory.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.hstack((np.ones((config.n, 1)), bits)) @ coef.T
        if not np.isfinite(probs).all():
            raise ValueError("choice scores overflow: the coefficients are too large")
        # A score far below its row's best may fall to -inf; its exp is 0.
        probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)

    votes = (rng.random((config.n, 1)) > probs.cumsum(axis=1)).sum(axis=1)
    votes = np.minimum(votes, k - 1)

    lo, hi = config.weight_range
    weights = rng.uniform(lo, hi, size=config.n) if hi > lo else np.full(config.n, lo)
    coarsen = rng.random(config.n) < config.coarsen_prob

    # Each row's set starts as its vote; coarsened rows add 1 or 2 other parties.
    masks = np.left_shift(1, votes)
    rows = np.flatnonzero(coarsen)
    masks[rows] |= _extra_parties(rng, votes, probs, rows, config.style)
    del probs
    survey = Survey.build(config.registry, config.covariate_names, weights, masks, bits)
    shares = {
        code: min(rounded(total) / survey.total_weight, 1.0)
        for code, total in zip(config.registry.options, exact_sums(weights, votes, k))
    }
    return survey, GroundTruth(votes, shares)


def _checked_votes(s: Survey, g: GroundTruth) -> np.ndarray:
    if len(g.votes) != len(s):
        raise ValueError("ground truth does not align with the survey")
    if len(g.votes) and not 0 <= g.votes.min() <= g.votes.max() < len(s.registry):
        raise ValueError("a latent vote lies outside the registry")
    return g.votes


def truth_to_csv(s: Survey, g: GroundTruth) -> str:
    """A ``vote`` column of each respondent's latent party code, quoted as ``survey_to_csv`` quotes it."""
    codes = [csv_table([code], ())[:-1] for code in s.registry.options]
    lines = ["vote"]
    lines.extend(map(codes.__getitem__, _checked_votes(s, g).tolist()))
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=4096)
def _grid_extremes(k: int, m: int, lo_units: int, hi_units: int, total_units: int) -> tuple[int, int]:
    """Extremal in-event unit mass over all grid allocations of a k-set.

    Enumerates every vector of k coordinates in [lo_units, hi_units]
    summing to total_units, where the first m coordinates belong to the
    event.  Returns (min, max) of the in-event unit sum.
    """
    best: list[int | None] = [None, None]
    leaves = [0]

    def recurse(depth: int, remaining: int, in_event_units: int):
        coords_left = k - depth
        if remaining < coords_left * lo_units or remaining > coords_left * hi_units:
            return
        if depth == k:
            leaves[0] += 1
            if leaves[0] > GRID_BUDGET:
                raise ValueError("allocation grid budget exceeded; use a coarser step")
            if best[0] is None or in_event_units < best[0]:
                best[0] = in_event_units
            if best[1] is None or in_event_units > best[1]:
                best[1] = in_event_units
            return
        for units in range(lo_units, hi_units + 1):
            recurse(depth + 1, remaining - units, in_event_units + (units if depth < m else 0))

    recurse(0, total_units, 0)
    if best[0] is None:
        raise ValueError("no grid allocation satisfies the box; refine the step")
    return best[0], best[1]


def oracle_constrained_bounds(
    s: Survey, event: PartySet, c: AllocationConstraint, step: float = 0.01
) -> Interval:
    """Constrained event bounds by grid search over within-set allocations."""
    if not 0 < step <= 0.5:
        raise ValueError("grid step must lie in (0, 0.5]")
    total_units = round(1.0 / step)
    w_total = s.total_weight
    lo_terms = []
    hi_terms = []
    for w, ps, _ in s.rows():
        k = ps.size
        m = (ps.mask & event.mask).bit_count()
        if k == 1:
            if m:
                lo_terms.append(w)
                hi_terms.append(w)
            continue
        alpha_eff, beta_eff = map(float, effective_allocation_limits(k, c))
        lo_units = math.ceil(alpha_eff * total_units - 1e-9)
        hi_units = math.floor(beta_eff * total_units + 1e-9)
        units_lo, units_hi = _grid_extremes(k, m, lo_units, hi_units, total_units)
        if units_lo:
            lo_terms.append(w * (units_lo / total_units))
        if units_hi:
            hi_terms.append(w * (units_hi / total_units))
    lower = min(math.fsum(lo_terms) / w_total, 1.0)
    upper = min(math.fsum(hi_terms) / w_total, 1.0)
    return Interval(lower, upper)


def coverage_check(s: Survey, g: GroundTruth, coalitions=()) -> CoverageReport:
    """Verify the latent shares fall inside the Dempster intervals.

    Checks every option and every supplied coalition; a violation would
    contradict the construction and is reported rather than raised.
    """
    votes = _checked_votes(s, g)
    forecast = dempster_bounds(s)
    violations = []
    margins = {}
    for code in s.registry.options:
        iv = forecast[code]
        share = g.shares[code]
        margins[code] = min(share - iv.lower, iv.upper - share)
        if not iv.contains(share):
            violations.append(code)
    for spec in coalitions:
        iv = event_bounds(s, spec.members)
        member_vote = (spec.members.mask >> votes & 1).astype(bool)
        share = min(rounded(exact_sums(s.weights[member_vote])[0]) / s.total_weight, 1.0)
        margins[spec.name] = min(share - iv.lower, iv.upper - share)
        if not iv.contains(share):
            violations.append(spec.name)
    return CoverageReport(tuple(violations), margins)
