"""The measured process: runs ``pollsets`` commands in-process and times them.

``run.py`` builds the inputs and the output checks, then starts this
program with a plan and reads back its result:

    python3 perfbench/measure.py PLAN.json RESULT.json

So the process whose time and peak memory are reported holds only the
interpreter, ``pollsets`` and the commands' own work, never the
benchmark's generated inputs or references.

The plan names the source tree, the commands (name, argv, files they
write), the seconds to measure, the number of set-up samples and whether
to trace.  Untraced, the process repeats full passes over the commands
until the seconds have passed, at least once, and times a fresh
interpreter's ``import pollsets.cli`` before each of the first commands.
Traced, it runs one pass with the span recorder installed and adds the
per-layer metrics.  For every run of every command the result holds its
exit code, its time and a digest of its stdout and files; each
command's first run also keeps its stdout and stderr for the checks.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; see run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_TIMEOUT_S = 60


def time_setup(src: str) -> float:
    """Wall time of a fresh interpreter importing ``pollsets.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import pollsets.cli"],
        env=dict(os.environ, PYTHONPATH=src), check=True, timeout=SETUP_TIMEOUT_S,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def execute(cli, cmd: dict) -> dict:
    """One command through ``cli.main``: exit code, seconds, output digest, output."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "uncaught exception"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8"))
    for name in sorted(cmd["files"]):
        path = Path(name)
        if path.exists():
            with path.open("rb") as fh:
                digest.update(hashlib.file_digest(fh, "sha256").digest())
    return {
        "rc": 0 if rc is None else rc if isinstance(rc, int) else str(rc),
        "seconds": elapsed,
        "digest": digest.hexdigest(),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def run_pass(cli, commands: list[dict], runs: dict[str, list[dict]], before_each=None) -> float:
    """One pass over the commands; keeps full output for each command's first run only."""
    total = 0.0
    for cmd in commands:
        if before_each is not None:
            before_each()
        result = execute(cli, cmd)
        if runs[cmd["name"]]:
            tail = result["stderr"].strip().splitlines()
            result["stderr"] = tail[-1] if result["rc"] != 0 and tail else ""
            result["stdout"] = ""
        runs[cmd["name"]].append(result)
        total += result["seconds"]
    return total


def measure(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from pollsets import cli

    commands = plan["commands"]
    runs: dict[str, list[dict]] = {c["name"]: [] for c in commands}
    result: dict = {"runs": runs}
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        with tracer.installed():
            wall = run_pass(cli, commands, runs)
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = len(tracer.spans) * spans.call_cost()
        layers["trace.unattributed_s"] = wall - layers["trace.self_sum_s"]
        result.update(layers=layers, missing=tracer.missing)
        return result

    wall_s: list[float] = []
    setup_s: list[float] = []

    def sample_setup():
        if len(setup_s) < plan["setup_samples"]:
            setup_s.append(time_setup(plan["src"]))

    start = time.perf_counter()
    while not wall_s or time.perf_counter() - start < plan["seconds"]:
        wall_s.append(run_pass(cli, commands, runs, sample_setup))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_s) < plan["setup_samples"]:
        sample_setup()
    result.update(wall_s=wall_s, setup_s=setup_s)
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(measure(plan)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
