"""Record the reference outputs the fixture checks compare against.

Run from the repository root at the commit that defines the baseline:

    python3 perfbench/make_reference.py > perfbench/reference.json

It records the homogeneity seat shares on the fixture and the ontic
fit (selected lambda, coefficient table, regularization path) at the
benchmark's fixed fold seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from pollsets import cli  # noqa: E402

SEATS = ("SPD", "CDU_CSU", "GRUENE", "FDP")


def run(argv: list[str]) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if cli.main(argv) != 0:
            raise SystemExit(f"command failed: {argv}\n{err.getvalue()}")
    return out.getvalue(), err.getvalue()


def main() -> None:
    fixture = str(ROOT / workloads.FIXTURE)
    io_args = ["--input", fixture, "--schema", ",".join(gen.WAVE3_SCHEMA)]
    shares, _ = run(["forecast", *io_args, "--method", "homogeneity", "--seats", ",".join(SEATS)])
    with tempfile.TemporaryDirectory() as tmp:
        path_out = Path(tmp) / "path.csv"
        table, diagnostics = run(workloads.ontic_argv(ROOT, path_out))
        path_csv = path_out.read_text(encoding="utf-8")
    lam = float(diagnostics.split("selected lambda: ")[1].split()[0])
    doc = json.loads(table)
    rows = [line.split(",") for line in path_csv.strip().splitlines()[1:]]
    reference = {
        "wave3_homogeneity_seats": json.loads(shares)["shares"],
        "wave3_ontic": {
            "lambda": lam,
            "categories": doc["categories"],
            "covariates": doc["covariates"],
            "coefficients": doc["coefficients"],
            "path": [[float(v) for v in row] for row in rows],
        },
    }
    print(json.dumps(reference, indent=1))


if __name__ == "__main__":
    main()
