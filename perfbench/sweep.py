"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/sweep.py --seeds 0-9                  # every workload
    python3 perfbench/sweep.py --workloads sim200k --seeds 0-4 --out after.json
    python3 perfbench/sweep.py --seeds 0-9 --baseline before.json

Each run is a fresh ``perfbench/run.py`` process.  For every workload it
prints each metric by name and unit with its median over the seeds and
its spread, the distance between the first and third quartile as a
share of the median.  With ``--baseline`` it also
prints how far each median moved against an earlier ``--out`` file and
whether that stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all", help="comma list, or 'all'")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--baseline", help="an earlier --out file to compare medians against")
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    metrics = spec["end_to_end"]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    results: dict[str, list[dict]] = {}
    for name in names:
        results[name] = [run_once(name, seed, spec["run_seconds"]) for seed in parse_seeds(args.seeds)]
        runs = results[name]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, ops failed {failed}/{attempted}, all correct: {all(r['correct'] for r in runs)}")
        for m in metrics:
            median, share = spread([r["metrics"][m["name"]]["value"] for r in runs])
            bound = m["bound"]
            line = f"  {m['name']:<36} {median:>12.6g} {m['unit']:<6} spread {share:6.3f}"
            verdict = "steady" if share <= bound / 3 else "within bound" if share <= bound else "WIDE"
            line += f" (bound {bound}: {verdict})"
            if name in baseline:
                before, _ = spread([r["metrics"][m["name"]]["value"] for r in baseline[name]])
                change = (median - before) / before if m["better"] == "lower" else (before - median) / before
                verdict = "within bound" if change <= bound else "WORSE than bound"
                line += f"  vs baseline {before:.6g}: {change:+.3f} {verdict}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
