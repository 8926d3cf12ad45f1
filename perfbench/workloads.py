"""Workloads: the input files each one builds and the ``pollsets`` commands it runs.

The command lists follow what an analyst runs on each kind of wave; the
benchmark reports each command's latency in its printed report and times
the whole list as one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import gen

FIXTURE = Path("data") / "wave3_synthetic.csv"
FIXTURE_COALITIONS = Path("data") / "coalitions_2021.csv"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SIM200K = gen.WaveSpec(gen.WAVE3_PARTIES, gen.WAVE3_SCHEMA, n=200_000, q=0.3)
WIDE50K = gen.WaveSpec(
    tuple(f"P{i}" for i in range(10)), tuple(f"c{j:02d}" for j in range(14)), n=50_000, q=0.5, model_seed=1
)
# The ontic fold split stays at seed 0 on every run: that split holds the
# known fitter stall, and a seed-dependent split would make run time
# bimodal across seeds (roughly one split in three stalls).
ONTIC_CV_SEED = 0
ONTIC_ARGS = ["--k", "5", "--grid-points", "5", "--folds", "3"]

FIXTURE_COMMANDS = (
    "describe", "forecast_conventional", "forecast_homogeneity", "bounds_dempster", "bounds_constrained", "coalitions",
)
GENERATED_COMMANDS = ("describe", "forecast_homogeneity", "bounds_dempster", "bounds_constrained", "coalitions")


@dataclass
class Output:
    rc: object
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation, its name in reports and its output check."""

    name: str
    argv: list[str]
    check: Callable[[Output], None]
    files: tuple[Path, ...] = ()


@dataclass
class Prepared:
    commands: list[Command]
    stats: dict


def _io_args(path: Path, parties, schema) -> list[str]:
    return ["--input", str(path), "--registry", ",".join(parties), "--schema", ",".join(schema)]


def analysis_commands(
    wave: gen.Wave,
    path: Path,
    coalitions_path: Path,
    work: Path,
    seed: int,
    names: tuple[str, ...],
    seats: tuple[str, ...] | None = None,
    recorded_shares: dict | None = None,
) -> list[Command]:
    """The named per-wave commands, checked against references for ``wave``."""
    ref = checks.Reference(wave)
    coalitions = gen.read_coalitions(coalitions_path)
    io_args = _io_args(path, wave.parties, wave.schema)
    homogeneity = ["forecast", *io_args, "--method", "homogeneity"]
    box = ["--alpha", f"{checks.CONSTRAINT[0]:g}", "--beta", f"{checks.CONSTRAINT[1]:g}"]
    constrained = ["bounds", *io_args, *box]
    if seats:
        homogeneity += ["--seats", ",".join(seats)]
        constrained += ["--seats", "all"]
    sim_out, truth_out = work / "simulated.csv", work / "simulated.truth.csv"
    undecided = gen.wave_stats(wave)["undecided_share"]
    simulate = [
        "simulate", "--registry", ",".join(wave.parties), "--covariates", ",".join(wave.schema),
        "--n", str(wave.n), "--q", f"{undecided:.2f}", "--seed", str(seed),
        "--weight-low", f"{gen.WEIGHT_RANGE[0]:g}", "--weight-high", f"{gen.WEIGHT_RANGE[1]:g}",
        "--out", str(sim_out), "--truth-out", str(truth_out),
    ]
    commands = [
        Command("describe", ["describe", *io_args], lambda o: checks.check_describe(ref, o.stdout)),
        Command(
            "forecast_conventional",
            ["forecast", *io_args, "--method", "conventional"],
            lambda o: checks.check_conventional(ref, o.stdout),
        ),
        Command(
            "forecast_homogeneity",
            homogeneity,
            lambda o: checks.check_homogeneity(ref, o.stdout, seats, recorded_shares),
        ),
        Command("bounds_dempster", ["bounds", *io_args], lambda o: checks.check_dempster(ref, o.stdout)),
        Command("bounds_constrained", constrained, lambda o: checks.check_constrained(ref, o.stdout)),
        Command(
            "coalitions",
            ["coalitions", *io_args, "--coalitions", str(coalitions_path), *box, "--format", "svg"],
            lambda o: checks.check_coalitions_svg(ref, o.stdout, coalitions),
        ),
        Command(
            "simulate",
            simulate,
            lambda o: checks.check_simulate(
                o.stdout, o.stderr, sim_out, truth_out, wave.parties, wave.schema, wave.n
            ),
            files=(sim_out, truth_out),
        ),
    ]
    return [c for c in commands if c.name in names]


def _recorded() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _fixture(root: Path, work: Path, seed: int) -> tuple[gen.Wave, list[Command]]:
    path = root / FIXTURE
    wave = gen.read_wave_csv(path, gen.WAVE3_PARTIES, gen.WAVE3_SCHEMA)
    recorded = _recorded()["wave3_homogeneity_seats"]
    commands = analysis_commands(
        wave, path, root / FIXTURE_COALITIONS, work, seed, FIXTURE_COMMANDS,
        seats=tuple(recorded), recorded_shares=recorded,
    )
    return wave, commands


def ontic_argv(root: Path, path_out: Path, cv_seed: int = ONTIC_CV_SEED) -> list[str]:
    return [
        "ontic", *_io_args(root / FIXTURE, gen.WAVE3_PARTIES, gen.WAVE3_SCHEMA), *ONTIC_ARGS,
        "--seed", str(cv_seed), "--path-out", str(path_out),
    ]


def ontic_command(root: Path, work: Path, cv_seed: int = ONTIC_CV_SEED) -> Command:
    path_out = work / "ontic_path.csv"
    recorded = _recorded()["wave3_ontic"]
    return Command(
        "ontic",
        ontic_argv(root, path_out, cv_seed),
        lambda o: checks.check_ontic(o.stdout, o.stderr, o.files[str(path_out)].decode("utf-8"), recorded),
        files=(path_out,),
    )


def prepare_wave3(root: Path, work: Path, seed: int) -> Prepared:
    wave, commands = _fixture(root, work, seed)
    return Prepared(commands, gen.wave_stats(wave))


def prepare_wave3_ontic(root: Path, work: Path, seed: int) -> Prepared:
    wave, commands = _fixture(root, work, seed)
    return Prepared([ontic_command(root, work), *commands], gen.wave_stats(wave))


def prepare_generated(
    spec: gen.WaveSpec, names: tuple[str, ...], root: Path, work: Path, seed: int, coalitions=None
) -> Prepared:
    wave = gen.generate_wave(spec, seed)
    path = work / "wave.csv"
    gen.write_wave_csv(wave, path)
    if coalitions is None:
        coalitions_path = root / FIXTURE_COALITIONS
    else:
        coalitions_path = work / "coalitions.csv"
        gen.write_coalitions(coalitions, coalitions_path)
    return Prepared(analysis_commands(wave, path, coalitions_path, work, seed, names), gen.wave_stats(wave))


def prepare_sim200k(root: Path, work: Path, seed: int) -> Prepared:
    return prepare_generated(SIM200K, GENERATED_COMMANDS, root, work, seed)


def prepare_wide50k(root: Path, work: Path, seed: int) -> Prepared:
    coalitions = gen.generate_coalitions(WIDE50K.parties, seed)
    return prepare_generated(WIDE50K, (*GENERATED_COMMANDS, "simulate"), root, work, seed, coalitions)


WORKLOADS: dict[str, Callable[[Path, Path, int], Prepared]] = {
    "wave3_ontic": prepare_wave3_ontic,
    "sim200k": prepare_sim200k,
    "wide50k": prepare_wide50k,
}
