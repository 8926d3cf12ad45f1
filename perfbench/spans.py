"""In-memory span recorder that wraps the program's layer functions at run time.

``Tracer.installed`` replaces each listed public function with a wrapper
at every module attribute that refers to it, so calls made through
another module's import (``cli`` calling ``dempster_bounds``) and calls
inside a module (``cross_validate`` calling ``fit``) both record a span.
Nothing under ``src/`` changes; the originals come back on exit.  A
listed function the program no longer has is recorded in
``Tracer.missing``, so the benchmark can report it as a failure instead
of a layer that takes no time.

A span is (name, parent, start, end, attributes).  Self time is a span's
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layer -> public functions traced in it.  Tiny helpers called per row or
# per iteration (predict_proba, project_constraint, prox_group) stay
# untraced: their time lands in the caller's self time.
TRACED = {
    "cli": ("main", "cmd_describe", "cmd_forecast", "cmd_bounds", "cmd_coalitions", "cmd_ontic", "cmd_simulate"),
    "data": ("parse_survey", "validate", "group_counts", "undecided_share", "survey_to_csv"),
    "bounds": ("dempster_bounds", "constrained_bounds", "event_bounds", "coalition_report", "parse_coalitions"),
    "forecast": ("conventional_forecast", "homogeneity_forecast", "decided_design", "transition_probabilities",
                 "seat_share"),
    "mnl": ("fit", "cross_validate", "default_lambda_grid", "lambda_max"),
    "ontic": ("build_ontic_categories", "ontic_design", "fit_ontic", "regularization_path", "path_to_csv"),
    "simulate": ("generate_population", "coverage_check", "truth_to_csv", "default_true_coefficients"),
    "svgplot": ("render_interval_bars",),
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


def _fit_attrs(signature):
    def attrs(args, kwargs, result) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = list(bound.arguments.values())
        options = next((v for v in values if hasattr(v, "max_iterations")), None)
        report = result[1]
        return {
            "rows": values[0].n,
            "iterations": report.iterations,
            "converged": bool(report.converged),
            "max_iterations": options.max_iterations if options is not None else None,
        }

    return attrs


def _parse_attrs(args, kwargs, result) -> dict:
    return {"rows": len(result)}


class Tracer:
    """Records spans while installed; spans stay in memory until read."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else -1, clock()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = clock()
                stack.pop()
            if attrs is not None:
                spans[index].attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, package: str = "pollsets"):
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{package}.{layer}.{name}")
                    continue
                attrs = None
                if (layer, name) == ("mnl", "fit"):
                    attrs = _fit_attrs(inspect.signature(fn))
                elif (layer, name) == ("data", "parse_survey"):
                    attrs = _parse_attrs
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn, attrs))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname == package or modname.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((module, attr, value))
                        setattr(module, attr, hit[1])
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def call_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing."""
    noop = Tracer().wrap("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function totals, per-layer self time and fit accounting from spans."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer = span.name.split(".", 1)[0]
        for key, value in (
            (f"{span.name}.s", span.duration),
            (f"{span.name}.self_s", own),
            (f"{span.name}.calls", 1),
            (f"{layer}.self_s", own),
        ):
            out[key] = out.get(key, 0) + value

    fits = [s for s in spans if s.name == "mnl.fit"]
    iterations = sum(s.attrs["iterations"] for s in fits)
    converged = sum(1 for s in fits if s.attrs["converged"])
    out["mnl.fit.iterations"] = iterations
    out["mnl.fit.rows"] = sum(s.attrs["rows"] for s in fits)
    out["mnl.fit.unconverged"] = len(fits) - converged
    out["mnl.fit.max_iteration_hits"] = sum(
        1 for s in fits if s.attrs["max_iterations"] is not None and s.attrs["iterations"] >= s.attrs["max_iterations"]
    )
    out["mnl.fit.converged_ratio"] = converged / len(fits) if fits else 0.0
    out["mnl.fit.ms_per_iteration"] = 1000.0 * out.get("mnl.fit.s", 0.0) / iterations if iterations else 0.0
    parses = [s for s in spans if s.name == "data.parse_survey"]
    parse_time = sum(s.duration for s in parses)
    out["data.parse_survey.rows_per_s"] = sum(s.attrs["rows"] for s in parses) / parse_time if parse_time else 0.0
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(selfs)
    return out
