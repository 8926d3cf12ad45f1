"""Seeded survey generators for the benchmark's synthetic workloads.

The generators use numpy only and never import ``pollsets.simulate``, so
a change to the program's own simulator cannot change the benchmark's
inputs.  Each draw is a pure function of (spec, seed): the latent
choice model of a spec is fixed by a constant, and the seed draws the
respondents, so different seeds give different rows of the same shape
and timings stay comparable across seeds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WAVE3_PARTIES = ("SPD", "CDU_CSU", "GRUENE", "FDP", "AFD", "LINKE")
WAVE3_SCHEMA = ("female", "age_65plus", "east", "high_income", "urban")
WEIGHT_RANGE = (0.5, 2.0)
# Share of coarsened respondents who add two other parties instead of one.
P_TWO_EXTRA = 0.3


@dataclass(frozen=True)
class WaveSpec:
    """Shape of a synthetic wave: parties, covariates, size and coarsening."""

    parties: tuple[str, ...]
    schema: tuple[str, ...]
    n: int
    q: float
    model_seed: int = 0


@dataclass
class Wave:
    """Respondents as columns: weights, set bitmasks and a 0/1 covariate matrix."""

    parties: tuple[str, ...]
    schema: tuple[str, ...]
    weights: np.ndarray
    masks: np.ndarray
    x: np.ndarray

    @property
    def n(self) -> int:
        return len(self.weights)


def _true_coefficients(spec: WaveSpec) -> np.ndarray:
    """Fixed K x (1 + P) choice model of a spec, centered over categories."""
    rng = np.random.default_rng(spec.model_seed)
    k, p = len(spec.parties), len(spec.schema)
    coef = np.empty((k, 1 + p))
    coef[:, 0] = rng.normal(0.0, 0.4, size=k)
    coef[:, 1:] = rng.normal(0.0, 0.3, size=(k, p))
    return coef - coef.mean(axis=0, keepdims=True)


def generate_wave(spec: WaveSpec, seed: int) -> Wave:
    """Draw ``spec.n`` respondents; identical output for identical (spec, seed)."""
    rng = np.random.default_rng(seed)
    k, p = len(spec.parties), len(spec.schema)
    x = rng.integers(0, 2, size=(spec.n, p), dtype=np.uint8)
    design = np.hstack([np.ones((spec.n, 1)), x])
    scores = design @ _true_coefficients(spec).T
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    votes = np.minimum((rng.random((spec.n, 1)) > probs.cumsum(axis=1)).sum(axis=1), k - 1)
    masks = np.left_shift(np.int64(1), votes.astype(np.int64))

    coarse = np.flatnonzero(rng.random(spec.n) < spec.q)
    extras = np.where(rng.random(len(coarse)) < P_TWO_EXTRA, 2, 1)
    # Random keys with the latent vote pushed last: the first columns of
    # the argsort are distinct other parties, uniformly chosen.
    keys = rng.random((len(coarse), k))
    keys[np.arange(len(coarse)), votes[coarse]] = 2.0
    order = np.argsort(keys, axis=1)
    for j in range(2):
        take = extras > j
        masks[coarse[take]] |= np.left_shift(np.int64(1), order[take, j].astype(np.int64))

    weights = np.round(rng.uniform(*WEIGHT_RANGE, size=spec.n), 4)
    return Wave(spec.parties, spec.schema, weights, masks, x)


def _codes(parties: tuple[str, ...], mask: int) -> str:
    return ";".join(code for i, code in enumerate(parties) if mask >> i & 1)


def write_wave_csv(wave: Wave, path: Path) -> None:
    """Write the survey CSV format that ``pollsets`` reads."""
    labels = {int(m): _codes(wave.parties, int(m)) for m in np.unique(wave.masks)}
    cov = [",".join(map(str, row)) for row in wave.x.tolist()]
    lines = ["weight,parties," + ",".join(wave.schema)]
    for w, m, c in zip(wave.weights.tolist(), wave.masks.tolist(), cov):
        lines.append(f"{w!r},{labels[m]},{c}" if wave.schema else f"{w!r},{labels[m]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_wave_csv(path: Path, parties: tuple[str, ...], schema: tuple[str, ...]) -> Wave:
    """Strict reader used to check files the program writes and to load the fixture."""
    index = {code: i for i, code in enumerate(parties)}
    weights, masks, rows = [], [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["weight", "parties", *schema]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line, row in enumerate(reader, start=2):
            if len(row) != 2 + len(schema):
                raise ValueError(f"{path}:{line}: expected {2 + len(schema)} columns")
            weight = float(row[0])
            if not (math.isfinite(weight) and weight > 0):
                raise ValueError(f"{path}:{line}: bad weight {row[0]!r}")
            mask = 0
            for code in row[1].split(";"):
                mask |= 1 << index[code]
            if any(cell not in ("0", "1") for cell in row[2:]):
                raise ValueError(f"{path}:{line}: covariates must be 0/1")
            weights.append(weight)
            masks.append(mask)
            rows.append([int(cell) for cell in row[2:]])
    x = np.array(rows, dtype=np.uint8).reshape(len(rows), len(schema))
    return Wave(parties, schema, np.array(weights), np.array(masks, dtype=np.int64), x)


def pattern_ids(x: np.ndarray) -> np.ndarray:
    """Covariate pattern of each row as one integer (bit j = covariate j)."""
    bits = np.left_shift(np.int64(1), np.arange(x.shape[1], dtype=np.int64))
    return x.astype(np.int64) @ bits


def wave_stats(wave: Wave) -> dict[str, float]:
    """Shape figures that decide how much a cell table can compress the input."""
    sizes = np.array([bin(int(m)).count("1") for m in np.unique(wave.masks)])
    set_size = dict(zip(np.unique(wave.masks).tolist(), sizes.tolist()))
    undecided = np.fromiter((set_size[m] > 1 for m in wave.masks.tolist()), bool, wave.n)
    cells = np.unique(pattern_ids(wave.x) * (1 << len(wave.parties)) + wave.masks)
    return {
        "rows": wave.n,
        "undecided_share": float(undecided.mean()),
        "distinct_sets": len(set_size),
        "cells": len(cells),
        "rows_per_cell": wave.n / len(cells),
    }


def generate_coalitions(parties: tuple[str, ...], seed: int, count: int = 12) -> list[tuple[str, tuple[str, ...]]]:
    """Distinct coalitions of two to four parties, drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    seen: set[tuple[str, ...]] = set()
    out = []
    while len(out) < count:
        size = int(rng.integers(2, 5))
        members = tuple(parties[i] for i in sorted(rng.choice(len(parties), size, replace=False)))
        if members not in seen:
            seen.add(members)
            out.append((f"C{len(out) + 1:02d}", members))
    return out


def write_coalitions(coalitions, path: Path) -> None:
    path.write_text("".join(f"{name},{';'.join(m)}\n" for name, m in coalitions), encoding="utf-8")


def read_coalitions(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            name, _, members = line.partition(",")
            out.append((name.strip(), tuple(c.strip() for c in members.split(";") if c.strip())))
    return out
