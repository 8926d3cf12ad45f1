"""Tests of the benchmark itself: generators, output checks and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pollsets import cli  # noqa: E402

TINY_SIM = dataclasses.replace(workloads.SIM200K, n=3000)
TINY_WIDE = dataclasses.replace(workloads.WIDE50K, n=2000)


@pytest.mark.parametrize("spec", [TINY_SIM, TINY_WIDE])
def test_generator_is_deterministic_per_seed(spec, tmp_path):
    a, b, c = gen.generate_wave(spec, 5), gen.generate_wave(spec, 5), gen.generate_wave(spec, 6)
    for field in ("weights", "masks", "x"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.masks, c.masks)
    gen.write_wave_csv(a, tmp_path / "a.csv")
    gen.write_wave_csv(b, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    back = gen.read_wave_csv(tmp_path / "a.csv", spec.parties, spec.schema)
    assert np.array_equal(back.weights, a.weights) and np.array_equal(back.masks, a.masks)
    assert gen.generate_coalitions(spec.parties, 5) == gen.generate_coalitions(spec.parties, 5)


def test_wave_stats_count_sets_and_cells():
    wave = gen.Wave(("A", "B"), ("c",), np.ones(4), np.array([1, 1, 3, 2]), np.array([[0], [0], [1], [1]], np.uint8))
    assert gen.wave_stats(wave) == {
        "rows": 4, "undecided_share": 0.25, "distinct_sets": 3, "cells": 3, "rows_per_cell": 4 / 3,
    }


def _failures(commands, work) -> list[str]:
    """Failed checks of one untraced pass in the measured process."""
    result = run.measure(commands, 0, 0, work)
    attempted, failures = run.verify(commands, result)
    assert attempted == len(commands)
    assert len(result["setup_s"]) == run.SETUP_SAMPLES and result["peak_rss_mb"] > 0
    return failures


@pytest.mark.parametrize("spec, coalitions", [(TINY_SIM, False), (TINY_WIDE, True)])
def test_tiny_generated_run_passes_every_check(spec, coalitions, tmp_path):
    extra = gen.generate_coalitions(spec.parties, 3) if coalitions else None
    names = (*workloads.GENERATED_COMMANDS, "simulate")
    prepared = workloads.prepare_generated(spec, names, ROOT, tmp_path, 3, extra)
    assert _failures(prepared.commands, tmp_path) == []


def test_fixture_run_passes_every_check(tmp_path):
    # Fold seed 1 selects the same lambda as the benchmark's seed 0 but
    # does not stall, so the ontic check runs in seconds.
    commands = [workloads.ontic_command(ROOT, tmp_path, cv_seed=1), *workloads.prepare_wave3(ROOT, tmp_path, 0).commands]
    assert _failures(commands, tmp_path) == []


def test_wrong_output_counts_as_failed(tmp_path):
    prepared = workloads.prepare_generated(TINY_SIM, workloads.GENERATED_COMMANDS, ROOT, tmp_path, 3)
    other = gen.generate_wave(TINY_SIM, 4)
    gen.write_wave_csv(other, tmp_path / "wave.csv")  # same shape, different answers
    failures = _failures(prepared.commands, tmp_path)
    failed = {line.split(":")[0] for line in failures}
    assert {"describe", "forecast_homogeneity", "bounds_dempster"} <= failed


def _result(*runs, missing=()):
    return {"runs": {"describe": [dict(r) for r in runs]}, "missing": list(missing)}


def test_later_runs_must_repeat_the_first_runs_output(tmp_path):
    cmd = workloads.Command("describe", ["describe"], lambda o: checks.require(o.stdout == "ok", "not ok"))
    ok = {"rc": 0, "digest": "a", "stdout": "ok", "stderr": ""}
    changed = {**ok, "digest": "b"}
    crashed = {**ok, "rc": 2, "stderr": "Traceback\nValueError: boom"}
    attempted, failures = run.verify([cmd], _result(ok, ok, changed, crashed))
    assert attempted == 4
    assert failures == [
        "describe: output differs from this command's first run",
        "describe: exit code 2: ValueError: boom",
    ]
    wrong = {**ok, "stdout": "not it"}
    assert len(run.verify([cmd], _result(wrong, wrong))[1]) == 2


def test_a_layer_function_gone_from_the_program_counts_as_failed(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "data", (*spans.TRACED["data"], "parse_cells"))
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["pollsets.data.parse_cells"]
    cmd = workloads.Command("describe", ["describe"], lambda o: None)
    ok = {"rc": 0, "digest": "a", "stdout": "", "stderr": ""}
    attempted, failures = run.verify([cmd], _result(ok, missing=tracer.missing))
    assert attempted == 2 and len(failures) == 1 and "pollsets.data.parse_cells" in failures[0]


def _span(name, parent, start, end, **attrs):
    return spans.Span(name, parent, start, end, attrs)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("data.parse_survey", 0, 1.0, 4.0),
        _span("bounds.event_bounds", 0, 3.0, 6.0),  # overlaps its sibling
        _span("mnl.fit", 1, 2.0, 3.0),
        _span("svgplot.render_interval_bars", 0, 9.0, 12.0),  # runs past its parent
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    import pollsets.mnl as mnl

    original = mnl.fit
    tracer = spans.Tracer()
    with tracer.installed():
        assert mnl.fit is not original and cli.mnl.fit is mnl.fit
        commands = workloads.prepare_wave3(ROOT, tmp_path, 0).commands
        homogeneity = next(c for c in commands if c.name == "forecast_homogeneity")
        assert measure.execute(cli, {"argv": homogeneity.argv, "files": []})["rc"] == 0
    assert tracer.missing == []
    assert mnl.fit is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["cli.main", "cli.cmd_forecast"]
    fit = tracer.spans[names.index("mnl.fit")]
    assert tracer.spans[fit.parent].name == "forecast.homogeneity_forecast"
    assert fit.attrs["max_iterations"] == 10_000 and fit.attrs["iterations"] >= 1
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["trace.self_sum_s"] == pytest.approx(tracer.spans[0].duration)


def test_fit_accounting():
    recorded = [
        _span("mnl.cross_validate", -1, 0.0, 5.0),
        _span("mnl.fit", 0, 0.0, 1.0, rows=10, iterations=100, converged=True, max_iterations=100),
        _span("mnl.fit", 0, 1.0, 4.0, rows=10, iterations=200, converged=False, max_iterations=1000),
        _span("mnl.fit", 0, 4.0, 4.5, rows=5, iterations=50, converged=True, max_iterations=1000),
    ]
    m = spans.layer_metrics(recorded)
    assert m["mnl.fit.calls"] == 3 and m["mnl.fit.rows"] == 25
    assert m["mnl.fit.iterations"] == 350 and m["mnl.fit.ms_per_iteration"] == pytest.approx(4500 / 350)
    assert m["mnl.fit.unconverged"] == 1 and m["mnl.fit.max_iteration_hits"] == 1
    assert m["mnl.fit.converged_ratio"] == pytest.approx(2 / 3)
    assert m["mnl.cross_validate.self_s"] == pytest.approx(0.5)
    assert m["mnl.self_s"] == pytest.approx(5.0)


def test_percentile_note_needs_ten_samples_beyond():
    assert run.percentile_note([1.0] * 10) == "n=10"
    assert run.percentile_note([float(i) for i in range(100)]) == "n=100, p90=89"
