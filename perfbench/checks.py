"""Output checks: every command's output is compared with a reference the
benchmark computes itself, or with one recorded at the seed commit.

Each check raises ``CheckFailed`` with a one-line reason.  Tolerances are
constants here so a reader can see what "matches" means:

- Dempster bounds, describe figures and conventional shares are sums of
  weights; the benchmark recomputes them with ``math.fsum`` and requires
  bit-identical values (conventional shares: within ``SUM_TOL``).
- 20/80 bounds (per party and per coalition) must lie within one grid step
  of ``pollsets.simulate.oracle_constrained_bounds``.
- Homogeneity shares must sum to one and match an independent Newton fit
  of the same multinomial logit within ``SHARE_TOL``; on the fixture they
  must also match the seed-commit reference within ``SHARE_TOL``.
- The ontic lambda must equal the reference, its coefficients and path
  norms must match within ``COEF_TOL``.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import gen

SUM_TOL = 1e-12
SHARE_TOL = 1e-4
COEF_TOL = 1e-3
GRID_STEP = 0.01
CONSTRAINT = (0.2, 0.8)


class CheckFailed(Exception):
    """An output did not match its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _bit(i: int) -> int:
    return 1 << i


def _label(parties, mask: int) -> str:
    return "+".join(p for i, p in enumerate(parties) if mask >> i & 1)


def _sort_key(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class Reference:
    """Figures the checks compare against, computed once per input wave."""

    def __init__(self, wave: gen.Wave):
        self.wave = wave
        self.weights = wave.weights.tolist()
        self.masks = wave.masks.tolist()
        self.total = math.fsum(self.weights)
        self.set_weight: dict[int, list[float]] = {}
        for w, m in zip(self.weights, self.masks):
            self.set_weight.setdefault(m, []).append(w)
        self._oracle_survey = None

    # -- exact sums ---------------------------------------------------------

    def dempster(self) -> dict[str, tuple[float, float]]:
        out = {}
        for i, code in enumerate(self.wave.parties):
            bel = [w for w, m in zip(self.weights, self.masks) if m == _bit(i)]
            pl = [w for w, m in zip(self.weights, self.masks) if m & _bit(i)]
            out[code] = (min(math.fsum(bel) / self.total, 1.0), min(math.fsum(pl) / self.total, 1.0))
        return out

    def describe(self, top: int = 15) -> dict:
        undecided = [w for w, m in zip(self.weights, self.masks) if m & (m - 1)]
        counts = {m: len(ws) for m, ws in self.set_weight.items()}
        order = sorted(counts, key=lambda m: (-counts[m], _sort_key(m)))[:top]
        return {
            "n": len(self.weights),
            "total_weight": self.total,
            "undecided_unweighted": len(undecided) / len(self.weights),
            "undecided_weighted": math.fsum(undecided) / self.total,
            "dropped_rows": 0,
            "groups": [
                {"parties": _label(self.wave.parties, m), "count": counts[m], "weight": math.fsum(self.set_weight[m])}
                for m in order
            ],
        }

    def conventional(self) -> dict[str, float]:
        decided = {m: ws for m, ws in self.set_weight.items() if not m & (m - 1)}
        total = math.fsum(w for ws in decided.values() for w in ws)
        return {
            code: math.fsum(decided.get(_bit(i), [])) / total for i, code in enumerate(self.wave.parties)
        }

    # -- constrained oracle -------------------------------------------------

    def constrained(self, members: tuple[str, ...]) -> tuple[float, float]:
        """Grid-search oracle on one respondent per distinct set (same weight sum).

        A respondent's extreme in-event mass depends on its set only, so
        merging equal sets changes the result by rounding alone, far
        below the grid step the oracle is accurate to.
        """
        from pollsets.bounds import AllocationConstraint
        from pollsets.data import PartyRegistry, PartySet, Respondent, Survey
        from pollsets.simulate import oracle_constrained_bounds

        registry = PartyRegistry(self.wave.parties)
        if self._oracle_survey is None:
            merged = tuple(
                Respondent(math.fsum(ws), PartySet(m)) for m, ws in sorted(self.set_weight.items())
            )
            self._oracle_survey = Survey(registry, (), merged)
        iv = oracle_constrained_bounds(
            self._oracle_survey, registry.set_of(members), AllocationConstraint(*CONSTRAINT), step=GRID_STEP
        )
        return iv.lower, iv.upper

    # -- homogeneity forecast by Newton's method ----------------------------

    def homogeneity(self, seats: tuple[str, ...] | None = None) -> dict[str, float]:
        """Shares when the undecided choose within their sets like the decided.

        Fits the unpenalized multinomial logit on decided cells by Newton's
        method (reference category 0), which shares no code with the
        program's accelerated proximal gradient fitter.
        """
        wave = self.wave
        k = len(wave.parties)
        pat = gen.pattern_ids(wave.x)
        patterns, inverse = np.unique(pat, return_inverse=True)
        x = np.hstack([np.ones((len(patterns), 1)), _pattern_rows(patterns, wave.x.shape[1])])
        single = (wave.masks & (wave.masks - 1)) == 0
        vote = np.log2(np.where(single, wave.masks, 1)).astype(int)
        counts = np.zeros((len(patterns), k))
        np.add.at(counts, (inverse[single], vote[single]), wave.weights[single])
        beta = _newton_mnl(x, counts)
        scores = x @ beta.T
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)

        mass = counts.sum(axis=0)
        und = np.flatnonzero(~single)
        cell_keys, cell_inv = np.unique(inverse[und] * (1 << k) + wave.masks[und], return_inverse=True)
        cell_w = np.bincount(cell_inv, weights=wave.weights[und])
        members = ((cell_keys % (1 << k))[:, None] >> np.arange(k)) & 1
        restricted = probs[cell_keys >> k] * members
        restricted /= restricted.sum(axis=1, keepdims=True)
        mass = mass + restricted.T @ cell_w
        shares = mass / mass.sum()
        out = dict(zip(wave.parties, shares.tolist()))
        if seats:
            total = math.fsum(out[c] for c in seats)
            out = {c: out[c] / total for c in seats}
        return out


def _pattern_rows(patterns: np.ndarray, p: int) -> np.ndarray:
    return ((patterns[:, None] >> np.arange(p)) & 1).astype(float)


def _newton_mnl(x: np.ndarray, counts: np.ndarray, iterations: int = 50) -> np.ndarray:
    """Weighted MNL maximum likelihood on grouped rows; returns K x P coefficients."""
    n_pat, p = x.shape
    k = counts.shape[1]
    totals = counts.sum(axis=1)
    beta = np.zeros((k - 1, p))
    for _ in range(iterations):
        scores = np.hstack([np.zeros((n_pat, 1)), x @ beta.T])
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        pi = probs[:, 1:]
        grad = ((counts[:, 1:] - totals[:, None] * pi).T @ x).ravel()
        hess = np.empty(((k - 1) * p, (k - 1) * p))
        for a in range(k - 1):
            for b in range(a, k - 1):
                c = totals * pi[:, a] * ((a == b) - pi[:, b])
                block = (x * c[:, None]).T @ x
                hess[a * p:(a + 1) * p, b * p:(b + 1) * p] = block
                hess[b * p:(b + 1) * p, a * p:(a + 1) * p] = block.T
        step = np.linalg.solve(hess, grad).reshape(k - 1, p)
        beta += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return np.vstack([np.zeros((1, p)), beta])


# -- per-command checks ------------------------------------------------------


def check_describe(ref: Reference, stdout: str) -> None:
    doc = json.loads(stdout)
    want = ref.describe()
    for key, value in want.items():
        require(doc.get(key) == value, f"describe {key}: got {str(doc.get(key))[:80]}, want {str(value)[:80]}")


def check_conventional(ref: Reference, stdout: str) -> None:
    doc = json.loads(stdout)
    want = ref.conventional()
    require(list(doc["shares"]) == list(want), "conventional: party order differs")
    for code, value in want.items():
        require(abs(doc["shares"][code] - value) <= SUM_TOL, f"conventional {code}: {doc['shares'][code]} != {value}")


def check_homogeneity(ref: Reference, stdout: str, seats=None, recorded=None) -> None:
    shares = json.loads(stdout)["shares"]
    require(abs(math.fsum(shares.values()) - 1.0) <= 1e-9, "homogeneity shares do not sum to 1")
    refs = [("Newton fit", ref.homogeneity(seats))]
    if recorded is not None:
        refs.append(("seed-commit reference", recorded))
    for what, want in refs:
        require(list(shares) == list(want), f"homogeneity parties {list(shares)} != {list(want)} ({what})")
        worst = max(abs(shares[c] - want[c]) for c in want)
        require(worst <= SHARE_TOL, f"homogeneity off the {what} by {worst:.2e}")


def check_dempster(ref: Reference, stdout: str) -> None:
    doc = json.loads(stdout)
    want = ref.dempster()
    require(list(doc) == list(want), "dempster: party order differs")
    for code, (lo, hi) in want.items():
        got = (doc[code]["lower"], doc[code]["upper"])
        require(got == (lo, hi), f"dempster {code}: {got} is not bit-identical to {(lo, hi)}")


def check_constrained(ref: Reference, stdout: str) -> None:
    doc = json.loads(stdout)
    require(list(doc) == list(ref.wave.parties), "constrained: party order differs")
    for code in ref.wave.parties:
        lo, hi = ref.constrained((code,))
        got = doc[code]
        ok = abs(got["lower"] - lo) <= GRID_STEP and abs(got["upper"] - hi) <= GRID_STEP
        require(ok, f"constrained {code}: {got} vs oracle {(lo, hi)}")


_VALUE = re.compile(r"\[([0-9.]+), ([0-9.]+)\]")


def check_coalitions_svg(ref: Reference, stdout: str, coalitions) -> None:
    root = ET.fromstring(stdout.encode("utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    bars = [el for el in root.iter(f"{ns}rect") if el.get("class") == "interval-bar"]
    require(len(bars) == len(coalitions), f"svg has {len(bars)} bars for {len(coalitions)} coalitions")
    names = [b.get("data-name") for b in bars]
    require(names == [name for name, _ in coalitions], "svg bar names differ from the coalition list")
    values = [m.groups() for m in (_VALUE.fullmatch(el.text or "") for el in root.iter(f"{ns}text")) if m]
    require(len(values) == len(coalitions), "svg does not label every bar with its interval")
    for (name, members), (lo_txt, hi_txt) in zip(coalitions, values):
        lo, hi = ref.constrained(members)
        # Labels carry three decimals, so allow half a unit of the last place.
        ok = abs(float(lo_txt) - lo) <= GRID_STEP + 5e-4 and abs(float(hi_txt) - hi) <= GRID_STEP + 5e-4
        require(ok, f"coalition {name}: [{lo_txt}, {hi_txt}] vs oracle [{lo:.4f}, {hi:.4f}]")


def check_ontic(stdout: str, stderr: str, path_csv: str, recorded: dict) -> None:
    found = re.search(r"selected lambda: (\S+)", stderr)
    require(found is not None, "ontic did not report the selected lambda")
    require(float(found.group(1)) == recorded["lambda"], f"ontic lambda {found.group(1)} != {recorded['lambda']!r}")
    doc = json.loads(stdout)
    require(doc["categories"] == recorded["categories"], "ontic categories differ from the reference")
    require(doc["covariates"] == recorded["covariates"], "ontic covariates differ from the reference")
    worst = float(np.max(np.abs(np.array(doc["coefficients"]) - np.array(recorded["coefficients"]))))
    require(worst <= COEF_TOL, f"ontic coefficients off the reference by {worst:.2e}")
    rows = [line.split(",") for line in path_csv.strip().splitlines()]
    require(rows[0] == ["lambda", *recorded["covariates"][1:]], "ontic path header differs")
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    want = np.array(recorded["path"])
    require(got.shape == want.shape, f"ontic path has {got.shape[0]} rows, want {want.shape[0]}")
    require(np.array_equal(got[:, 0], want[:, 0]), "ontic path lambdas differ from the reference grid")
    worst = float(np.max(np.abs(got[:, 1:] - want[:, 1:])))
    require(worst <= COEF_TOL, f"ontic path norms off the reference by {worst:.2e}")


def check_simulate(stdout: str, stderr: str, survey_path: Path, truth_path: Path, parties, schema, n: int) -> None:
    found = re.search(r"violations: (\d+)", stdout + stderr)
    require(found is not None and found.group(1) == "0", "simulate did not report zero violations")
    wave = gen.read_wave_csv(survey_path, parties, schema)
    require(wave.n == n, f"simulate wrote {wave.n} rows, want {n}")
    lines = truth_path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "vote" and len(lines) == n + 1, "truth file does not hold one vote per row")
    index = {code: i for i, code in enumerate(parties)}
    votes = np.array([index[code] for code in lines[1:]])
    require(bool(np.all(wave.masks >> votes & 1)), "a latent vote lies outside its reported set")
    # The latent shares are a completion, so they must sit inside the Dempster bounds.
    bounds = Reference(wave).dempster()
    total = math.fsum(wave.weights.tolist())
    for i, code in enumerate(parties):
        share = min(math.fsum(wave.weights[votes == i].tolist()) / total, 1.0)
        lo, hi = bounds[code]
        require(lo <= share <= hi, f"latent share of {code} lies outside its Dempster bounds")
