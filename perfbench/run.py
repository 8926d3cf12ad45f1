"""Benchmark of the ``pollsets`` command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide50k --seed 0 --seconds 10 --trace 0

This process builds the workload's inputs and output checks, then starts
``measure.py``, which drives the subcommands in-process through
``pollsets.cli.main(argv)``.  With ``--trace 0`` that process repeats
full passes over the workload's commands for ``--seconds`` seconds (at
least one) and the run reports the end-to-end metrics listed in
``BENCHMARK.json``.  With ``--trace 1`` it runs one traced pass and the
run reports the per-layer metrics.  Every command's output is checked
here; a failed check counts in ``failed`` instead of stopping the run.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread: on a two-core host the fits gained nothing from a
# second thread.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import Command, Output  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up is sampled before each of the first commands of a run; the
# median of these samples is ``setup_s``.
SETUP_SAMPLES = 9
# A run must end within 180 s; the measured process gets this long.
MEASURE_TIMEOUT_S = 165


def measure(commands: list[Command], seconds: float, trace: int, work: Path) -> dict:
    """Run the commands in a fresh ``measure.py`` process; return its result."""
    plan = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "setup_samples": SETUP_SAMPLES,
        "commands": [{"name": c.name, "argv": c.argv, "files": [str(p) for p in c.files]} for c in commands],
    }
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), str(plan_path), str(result_path)],
        cwd=ROOT, timeout=MEASURE_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the measured process exited {done.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def verify(commands: list[Command], result: dict) -> tuple[int, list[str]]:
    """Commands attempted, and one line per failed run or missing trace point.

    A command's first run is checked against its reference; every later run
    must exit 0 and give byte-identical output, which then shares that verdict.
    """
    attempted, failures = 0, []
    for cmd in commands:
        runs = result["runs"][cmd.name]
        first = runs[0]
        verdict = None
        if first["rc"] != 0:
            verdict = "its first run failed"
        else:
            files = {str(p): p.read_bytes() if p.exists() else b"" for p in cmd.files}
            try:
                cmd.check(Output(first["rc"], first["stdout"], first["stderr"], files))
            except Exception as exc:  # any malformed output is a failed check, not a crash
                verdict = f"{type(exc).__name__}: {exc}"
        for run in runs:
            attempted += 1
            if run["rc"] != 0:
                tail = run["stderr"].strip().splitlines()
                problem = f"exit code {run['rc']}: {tail[-1] if tail else ''}"
            elif run["digest"] != first["digest"]:
                problem = "output differs from this command's first run"
            else:
                problem = verdict
            if problem is not None:
                failures.append(f"{cmd.name}: {problem}")
    for name in result.get("missing", ()):
        attempted += 1
        failures.append(f"trace: {name} is not in the program, so its layer metrics cannot be measured")
    return attempted, failures


def percentile_note(samples: list[float]) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}"
    ordered = sorted(samples)
    return f"n={n}, p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"


def summarize(result: dict) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Metric values and, for timings, the samples behind each median."""
    if "layers" in result:
        return dict(result["layers"]), {}
    samples = {"wall_s": result["wall_s"], "setup_s": result["setup_s"]}
    for name, runs in result["runs"].items():
        samples[f"{name}_s"] = [run["seconds"] for run in runs]
    values = {"peak_rss_mb": result["peak_rss_mb"]}
    values.update((metric, statistics.median(xs)) for metric, xs in samples.items())
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pollsets" / "cli.py").is_file() or not (ROOT / workloads.FIXTURE).is_file():
        print(f"error: {ROOT} holds no pollsets source tree and fixture to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        prepared = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        result = measure(prepared.commands, args.seconds, args.trace, work)
        attempted, failures = verify(prepared.commands, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    values, samples = summarize(result)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    failed = len(failures)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"# environment: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, BLAS threads {BLAS_THREADS}"
    )
    print("# input: " + ", ".join(f"{k}={v:.6g}" for k, v in prepared.stats.items()))
    for name, value in values.items():
        note = f"  ({percentile_note(samples[name])})" if name in samples else ""
        print(f"# {name} = {value:.6g}{note}")
    print(f"# ops_failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in failures:
        print(f"# FAILED {failure}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
