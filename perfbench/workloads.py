"""The workloads and the checks on every output they produce.

Each workload is a closed loop in one process, calling
``rcsbounds.cli.main`` in-process: a command is issued only after the
previous one finished.  Commands are grouped in rounds with a fixed mix;
a run executes whole rounds until its time is up, so every run measures
the same mix whatever its length.  Round r of a run draws its campaign
seed from (workload seed, r), so one seed always gives the same inputs.

* fuzz-matrix: ``rcsbounds fuzz`` campaigns for the four matrix-valued
  ids, where the Jacobi kernel does nearly all the work.  Each campaign
  of the default dims (1, 2, 4, 8) is issued as one campaign per
  dimension with equal trial counts: the same expected mix as the default
  draw, without its sampling noise (at 100 trials the seeded draw moves
  ms/trial by up to 2x between seeds).  One ADD_MATRIX --dims 16
  campaign per round covers the largest supported size.
* fuzz-scalar: campaigns for the nine functional and sequence ids plus
  one ``compare --csv``.  The kernel is nearly idle; per-trial Python
  overhead dominates.  A kernel-only change should not move it.

Campaign sizes follow the documented traffic rather than what fits a
short run.  The ROADMAP Baseline times 200-trial campaigns per matrix id
and its batched-Jacobi prototype was measured on batches of 50, so each
matrix id runs 50 trials at each default d (200 per id) and the d=16
campaign runs 25; a batched kernel has whole batches to work on, and
per-command overhead is spread as in real use.  The scalar campaigns and
``compare`` use the CLI defaults, 1000 trials and 10000 windows.  A
fuzz-matrix round takes 20-25 s and a fuzz-scalar round 5-6 s on a
2-vCPU Xeon, so a 40 s run holds two and seven rounds.

One-shot use (a fresh interpreter per ``verify``, replay or
``sharpness``) is not a workload of its own: over ten seeds its
per-invocation times spread by 0.22 of their median, and nearly all of
that time is start-up.  Its two parts are measured on every workload
instead: start-up as ``setup_s`` and the import probe, the in-process
part of each command by the command probe (see layers.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
INSTANCES = {
    "docs/instances/additive_matrix_diagonal.json": 0.25,
    "docs/instances/operator_pair_swap.json": 5.0625,
    "docs/instances/refined_constants_family.json": 0.25,
}

MATRIX_IDS = ("ADD_MATRIX", "MULT_MATRIX", "OP_PAIR_ADD", "OP_PAIR_MULT")
DEFAULT_DIMS = (1, 2, 4, 8)
FUZZ_MATRIX_TRIALS = 50
FUZZ_MATRIX_D16_TRIALS = 25

FUNCTIONAL_IDS = ("ADD_FUNCTIONAL", "MULT_FUNCTIONAL")
SEQUENCE_IDS = (
    "INT_ADD",
    "INT_MULT",
    "GREUB_RHEINBOLDT",
    "WEIGHTED_ADD",
    "PS_MULT",
    "PS_ADD",
    "PS_IMPROVED",
)
SCALAR_IDS = FUNCTIONAL_IDS + SEQUENCE_IDS
FUZZ_SCALAR_TRIALS = 1000
COMPARE_SAMPLES = 10000
COMPARE_FAMILIES = 3

REPLAY_TRIAL_RANGE = 1000
SHARPNESS_KINDS = ("vector_state", "trace", "weighted_sum")

# Default tolerance of the package (matalg.DEFAULT_TOL), used for the
# independent margin checks.
RTOL = 1e-9
ATOL = 1e-12


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one command returned: exit code, streams and wall seconds."""

    code: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Command:
    """One CLI command, the bound reports it evaluates, and its output check."""

    argv: list[str]
    reports: int
    check: Callable[[Outcome], list[str]]


@dataclass
class Tally:
    """Latencies, report counts and failures over the commands of a pass."""

    latencies: list[float] = field(default_factory=list)
    reports: list[int] = field(default_factory=list)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def count(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; any problem makes it a failed one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    def record(self, command: Command, outcome: Outcome) -> None:
        """Count and time one workload command after checking its output."""
        self.latencies.append(outcome.seconds)
        self.reports.append(command.reports)
        self.count(" ".join(command.argv), run_check(command.check, outcome))


def run_inprocess(argv: list[str]) -> Outcome:
    """Call rcsbounds.cli.main(argv) with both streams captured."""
    from rcsbounds import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed command, not a crashed benchmark
        seconds = time.perf_counter() - start
        return Outcome(99, out.getvalue(), f"Traceback: {exc!r}", seconds)
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def run_subprocess(argv: list[str]) -> Outcome:
    """Run ``python -m rcsbounds.cli argv`` in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rcsbounds.cli", *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
    )
    return Outcome(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def run_check(check: Callable[[Outcome], list[str]], outcome: Outcome) -> list[str]:
    """Apply a check; output that lacks the expected fields fails it."""
    try:
        return check(outcome)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"unexpected output: {exc!r}"]


def _json_line(outcome: Outcome) -> tuple[Optional[dict], list[str]]:
    if "Traceback" in outcome.stderr:
        return None, ["traceback on stderr"]
    try:
        return json.loads(outcome.stdout), []
    except json.JSONDecodeError:
        return None, ["stdout is not one JSON document"]


def _decode_matrix(node) -> np.ndarray:
    arr = np.asarray(node, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def check_report_margin(report: dict) -> list[str]:
    """Margin against an independent recomputation from the report's sides.

    Matrix-valued margins are the least eigenvalue of rhs - lhs, checked
    with numpy's eigvalsh within the package's default tolerance band;
    scalar margins are rhs - lhs exactly.
    """
    margin = report["margin"]
    if not isinstance(margin, float) or not math.isfinite(margin):
        return [f"margin {margin!r} is not a finite number"]
    if isinstance(report["lhs"], list):
        lhs = _decode_matrix(report["lhs"])
        rhs = _decode_matrix(report["rhs"])
        diff = rhs - lhs
        oracle = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)[0])
        band = ATOL + RTOL * max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        if abs(oracle - margin) > band:
            return [f"margin {margin!r} differs from eigvalsh {oracle!r} by more than {band:.3e}"]
        return []
    if margin != report["rhs"] - report["lhs"]:
        return [f"margin {margin!r} is not rhs - lhs"]
    return []


def check_fuzz(campaign_argv: list[str], trials: int) -> Callable[[Outcome], list[str]]:
    """Summary counts, then the worst trial replayed bit for bit."""

    def check(outcome: Outcome) -> list[str]:
        summary, problems = _json_line(outcome)
        if summary is None:
            return problems
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if summary["violated"] != 0:
            problems.append(f"{summary['violated']} violated trials")
        if summary["trials_run"] != trials or summary["holds"] + summary[
            "precondition_failed"
        ] != trials:
            problems.append("holds + precondition_failed != trials")
        if summary["worst_seed"] is None:
            return problems + ["no trial produced a margin"]
        replay = run_inprocess(campaign_argv + ["--replay", str(summary["worst_seed"])])
        report, replay_problems = _json_line(replay)
        if report is None:
            return problems + [f"replay: {p}" for p in replay_problems]
        if report["margin"] != summary["worst_margin"]:
            problems.append(
                f"replayed margin {report['margin']!r} != worst margin {summary['worst_margin']!r}"
            )
        problems.extend(check_report_margin(report))
        return problems

    return check


def check_verify(expected_margin: float) -> Callable[[Outcome], list[str]]:
    def check(outcome: Outcome) -> list[str]:
        report, problems = _json_line(outcome)
        if report is None:
            return problems
        if outcome.code != 0 or report["verdict"] != "HOLDS":
            problems.append(f"exit {outcome.code}, verdict {report['verdict']}")
        if abs(report["margin"] - expected_margin) > 1e-12 * max(1.0, expected_margin):
            problems.append(f"margin {report['margin']!r} != {expected_margin}")
        return problems + check_report_margin(report)

    return check


def check_replay(expected: dict) -> Callable[[Outcome], list[str]]:
    """The in-process replay must equal `expected`, the same replay run in a
    fresh interpreter, bit for bit: trials are deterministic across processes."""

    def check(outcome: Outcome) -> list[str]:
        report, problems = _json_line(outcome)
        if report is None:
            return problems
        if outcome.code not in (0, 3) or report["verdict"] == "VIOLATED":
            problems.append(f"exit {outcome.code}, verdict {report['verdict']}")
        if report["margin"] != expected["margin"]:
            problems.append(f"margin {report['margin']!r} != fresh interpreter's {expected['margin']!r}")
        return problems + check_report_margin(report)

    return check


def check_sharpness(outcome: Outcome) -> list[str]:
    payload, problems = _json_line(outcome)
    if payload is None:
        return problems
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}")
    if payload["deviation"] is None or payload["deviation"] > 1e-12:
        problems.append(f"ratio {payload['ratio']!r} is not 1/4 within 1e-12")
    return problems


def check_compare(csv_path: Path, samples: int) -> Callable[[Outcome], list[str]]:
    """Row count, argmin and the refined bound on every CSV row."""

    def check(outcome: Outcome) -> list[str]:
        payload, problems = _json_line(outcome)
        if payload is None:
            return problems
        rows_expected = samples + COMPARE_FAMILIES
        if outcome.code != 0 or payload["samples"] != rows_expected:
            problems.append(f"exit {outcome.code}, {payload['samples']} samples")
        if sum(payload["argmin_counts"].values()) != rows_expected:
            problems.append("argmin counts do not add up to the sample count")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        if len(lines) != rows_expected + 1:
            return problems + [f"csv has {len(lines) - 1} rows, expected {rows_expected}"]
        for n, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            values = [float(c) for c in cells]
            c = values[4:7]
            argmin, lhs, margin = int(values[7]), values[8], values[9]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"row {n}: non-finite value")
            elif argmin not in (1, 2, 3) or c[argmin - 1] > min(c) * (1 + 1e-12):
                problems.append(f"row {n}: argmin {argmin} is not the least constant")
            elif margin != min(c) - lhs:
                problems.append(f"row {n}: margin is not the least constant minus lhs")
            elif margin < -(ATOL + RTOL * max(abs(lhs), min(c), 1.0)):
                problems.append(f"row {n}: refined bound violated by {margin!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named generator of command rounds."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[Command]:
        raise NotImplementedError


def fuzz_command(inequality_id: str, trials: int, seed: int, dims: tuple[int, ...] = ()) -> Command:
    argv = ["fuzz", inequality_id, "--trials", str(trials), "--seed", str(seed)]
    if dims:
        argv += ["--dims", *map(str, dims)]
    argv.append("--json")
    return Command(argv, trials, check_fuzz(argv, trials))


def compare_command(samples: int, seed: int) -> Command:
    csv_path = OUT / "compare.csv"
    argv = [
        "compare", "--samples", str(samples), "--seed", str(seed),
        "--csv", str(csv_path), "--json",
    ]
    return Command(argv, samples + COMPARE_FAMILIES, check_compare(csv_path, samples))


class FuzzMatrix(Workload):
    name = "fuzz-matrix"

    def round(self, r: int) -> list[Command]:
        seed = round_seed(self.seed, r)
        commands = [
            fuzz_command(i, FUZZ_MATRIX_TRIALS, seed, (d,))
            for i in MATRIX_IDS
            for d in DEFAULT_DIMS
        ]
        commands.append(fuzz_command("ADD_MATRIX", FUZZ_MATRIX_D16_TRIALS, seed, (16,)))
        return commands


class FuzzScalar(Workload):
    name = "fuzz-scalar"

    def round(self, r: int) -> list[Command]:
        seed = round_seed(self.seed, r)
        commands = [fuzz_command(i, FUZZ_SCALAR_TRIALS, seed) for i in SCALAR_IDS]
        commands.append(compare_command(COMPARE_SAMPLES, seed))
        return commands


def oneshot_commands(seed: int) -> list[Command]:
    """What a one-shot user runs: verify each shipped instance, one replay, sharpness."""
    g = np.random.default_rng(seed)
    commands = [
        Command(["verify", path, "--json"], 1, check_verify(margin))
        for path, margin in INSTANCES.items()
    ]
    replay = [
        "fuzz", "ADD_MATRIX", "--seed", str(seed),
        "--replay", str(int(g.integers(REPLAY_TRIAL_RANGE))), "--json",
    ]
    expected, _ = _json_line(run_subprocess(replay))
    commands.append(Command(replay, 1, check_replay(expected or {"margin": None})))
    omega = complex(g.uniform(0.2, 3.0), g.uniform(-1.0, 1.0))
    spread = complex(g.uniform(0.2, 3.0), g.uniform(-1.0, 1.0))
    sharp = [
        "sharpness",
        "--omega", repr(omega).strip("()"),
        "--Omega", repr(omega + spread).strip("()"),
        "--kind", SHARPNESS_KINDS[int(g.integers(len(SHARPNESS_KINDS)))],
        "--dim", str(int(g.integers(2, 5))),
        "--seed", str(seed),
        "--json",
    ]
    commands.append(Command(sharp, 1, check_sharpness))
    return commands


WORKLOADS = {w.name: w for w in (FuzzMatrix, FuzzScalar)}


def run_command(command: Command, tracer=None) -> Outcome:
    """Run one command in-process, under the tracer when one is given."""
    if tracer is None:
        return run_inprocess(command.argv)
    with tracer.installed():
        return run_inprocess(command.argv)
