"""Write the package's reference outputs to a directory, for a byte-identity check.

Usage:

    python3 tools/dump_outputs.py OUTDIR
    python3 tools/dump_outputs.py --compare OLD NEW

It imports rcsbounds from the src/ directory next to this script and writes:

* verify/<instance>.json and verify/<instance>.txt: ``verify --json`` and
  the table for each shipped instance in docs/instances;
* run_trial/<ID>.jsonl: ``run_trial(GeneratorConfig(seed=0), ID, i).to_dict()``
  for every inequality id and i in 0..199, one JSON line per trial;
* fuzz/<ID>.json: ``fuzz ID --trials 150 --seed 11 --json``, with
  ``--dims 1 2 4`` for the ids that draw a matrix dimension;
* fuzz_full/<ID>.json: ``fuzz ID --seed 12 --json`` at the default 1000
  trials, one window, for each functional and sequence id;
* fuzz_window/<ID>.json: ``fuzz ID --seed 13 --json`` for INT_ADD at
  2474 trials and ADD_FUNCTIONAL at 1295, one trial more than a window
  of each holds (2473 sequence trials, and 1294 functional trials at the
  default dims), so both cross a window boundary;
* fuzz_edge/<ID>.json: the same at ``--seed 18446744073709551615``, the
  largest seed, where Philox's key arithmetic wraps at 2^64;
* compare/default.csv, compare/n1_samples500.csv,
  compare/n16_samples500.csv, compare/seed5_samples2000.csv,
  compare/seedmax_samples500.csv, compare/seed6_samples9500.csv and
  compare/n4096_samples25.csv: ``compare --csv`` at the defaults, at
  ``--n 1 --samples 500``, at ``--n 16 --samples 500``, at ``--seed 5
  --samples 2000``, at ``--seed 18446744073709551615 --samples 500``, at
  ``--seed 6 --samples 9500``, two windows of 4681 rows at the default
  n = 8 and part of a third, and at ``--n 4096 --samples 25``, three
  windows of at most 10 rows, with the printed summary of each in the
  matching .txt file;
* sharpness/<kind>.json: ``sharpness --json --kind KIND --dim 3`` for each
  functional kind, and sharpness/complex_window.json: the same for the
  default kind with ``--omega 1+2j --Omega 3-1j``;
* run_trial_strict/<ID>.jsonl: ``run_trial(GeneratorConfig(seed=4,
  trials=30, dims=(2,)), ID, i, Tolerance(3e-17, 3e-17)).to_dict()`` for
  the four matrix-valued ids and i in 0..29, a band below roundoff where
  some generated instances fail a hypothesis (PRECONDITION_FAILED reports);
* run_trial_d16/<ID>.jsonl: ``run_trial(GeneratorConfig(seed=0,
  dims=(16,)), ID, i).to_dict()`` for the four matrix-valued ids and the
  two functional ids and i in 0..19, trials at the largest dimension,
  where the eigensolver works hardest and the functionals sum the most terms;
* env.json: the Python and numpy versions, the BLAS library and version
  that numpy reports (``np.show_config``) and ``OPENBLAS_CORETYPE``, the
  environment variable that picks OpenBLAS's CPU kernel.  Outputs are
  reproducible bit for bit on one machine and one numpy/BLAS build; another
  kernel may move the last bits of matrix margins.

Run it on two checkouts and compare the directories with ``diff -r``: no
output means every report, summary and row is byte-identical.

``--compare OLD NEW`` tells a moved last bit from a regression where
``diff -r`` cannot.  A record is a line of a file (a CSV row, a JSON
line, or a line of text).  For each file it prints:

* how many records differ byte for byte;
* how many verdicts changed: a report's ``verdict``, a fuzz summary's
  ``holds``, ``violated`` or ``precondition_failed`` count, a table's
  ``verdict:`` line or an ``exit`` line;
* the largest change of a ``margin`` or ``worst_margin``, relative to
  the scale its verdict is judged at, over both records: max(||lhs||,
  ||rhs||, 1) (Frobenius norms), and for an ``OP_PAIR_ADD`` report also
  the size ``norm_tv_sq * norm_sv_sq`` from its details, the products
  its lhs cancels from.

It prints env.json of both sides first ("none" for a side without one)
and does not count it as a record or as a file present on one side only.
It exits 1 on any verdict change or on a file present on one side only,
and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rcsbounds import INEQUALITY_IDS, GeneratorConfig, Tolerance, cli, run_trial  # noqa: E402
from rcsbounds.bounds import _REGISTRY  # noqa: E402

INSTANCES = sorted((ROOT / "docs" / "instances").glob("*.json"))
TRIALS = 200
FUZZ_ARGS = ["--trials", "150", "--seed", "11", "--json"]
# Sequence ids draw their length n themselves and reject --dims.
DIMS_ARGS = ["--dims", "1", "2", "4"]
FULL_FUZZ_ARGS = ["--seed", "12", "--json"]
MAX_SEED = str((1 << 64) - 1)
EDGE_FUZZ_ARGS = ["--seed", MAX_SEED, "--json"]
SCALAR_PAYLOADS = ("functional_form", "sequences")
# One trial more than a window of each payload holds.
WINDOW_FUZZ_RUNS = {"INT_ADD": 2474, "ADD_FUNCTIONAL": 1295}
WINDOW_FUZZ_ARGS = ["--seed", "13", "--json"]
COMPARE_RUNS = {
    "default": [],
    "n1_samples500": ["--n", "1", "--samples", "500"],
    "n16_samples500": ["--n", "16", "--samples", "500"],
    "seed5_samples2000": ["--seed", "5", "--samples", "2000"],
    "seedmax_samples500": ["--seed", MAX_SEED, "--samples", "500"],
    "seed6_samples9500": ["--seed", "6", "--samples", "9500"],
    "n4096_samples25": ["--n", "4096", "--samples", "25"],
}
SHARPNESS_RUNS = {
    **{kind: ["--kind", kind] for kind in ("vector_state", "trace", "weighted_sum")},
    "complex_window": ["--omega", "1+2j", "--Omega", "3-1j"],
}
MATRIX_IDS = ("ADD_MATRIX", "MULT_MATRIX", "OP_PAIR_ADD", "OP_PAIR_MULT")
D16_IDS = MATRIX_IDS + ("ADD_FUNCTIONAL", "MULT_FUNCTIONAL")
STRICT_CONFIG = GeneratorConfig(seed=4, trials=30, dims=(2,))
STRICT_TOL = Tolerance(3e-17, 3e-17)
D16_CONFIG = GeneratorConfig(seed=0, dims=(16,))
D16_TRIALS = 20
VERDICT_KEYS = ("verdict", "holds", "violated", "precondition_failed")
VERDICT_PREFIXES = ("verdict:", "exit ")
MARGIN_KEYS = ("margin", "worst_margin")
ENV_FILE = "env.json"


def _environment() -> dict:
    """What the outputs' last bits depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"),
    }


def _cli(argv: list[str]) -> str:
    """stdout of one in-process CLI call, with its exit code as the last line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def _records(path: Path) -> list[tuple[str, object]]:
    """Each line of a file with its decoded record: a CSV data row as a
    dict of its columns, a JSON line as its value, any other line as text."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv" and lines:
        rows = csv.reader(lines)
        header = next(rows)
        return [(lines[0], lines[0])] + list(zip(lines[1:], (dict(zip(header, r)) for r in rows)))
    records = []
    for line in lines:
        try:
            records.append((line, json.loads(line)))
        except ValueError:
            records.append((line, line))
    return records


def _verdict(record):
    """The verdict-bearing part of a record, None if it has none."""
    if isinstance(record, dict):
        return tuple(record.get(key) for key in VERDICT_KEYS)
    if isinstance(record, str) and record.startswith(VERDICT_PREFIXES):
        return record
    return None


def _size(value) -> float:
    """Frobenius norm of an encoded value: a number, or nested lists of numbers."""
    if isinstance(value, list):
        return math.sqrt(sum(_size(v) ** 2 for v in value))
    try:
        return abs(float(value))
    except (TypeError, ValueError):
        return 0.0


def _operand_size(record: dict) -> float:
    """||Tv||^2 ||Sv||^2 of an OP_PAIR_ADD report, from its details; 0 for other records."""
    details = record.get("details")
    if not isinstance(details, dict):
        return 0.0
    return _size(details.get("norm_tv_sq")) * _size(details.get("norm_sv_sq"))


def _margin_change(old, new) -> float:
    """|new margin - old margin| over the verdict's scale, max(||lhs||,
    ||rhs||, operand size, 1) over both records; 0 for records without a
    margin, inf for one that is missing (NaN) on one side."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return 0.0
    for key in MARGIN_KEYS:
        if key in old and key in new:
            if old[key] == new[key]:
                return 0.0
            try:
                change = abs(float(new[key]) - float(old[key]))
            except (TypeError, ValueError):
                return math.inf
            sizes = [_size(r.get(side)) for r in (old, new) for side in ("lhs", "rhs")]
            sizes += [_operand_size(r) for r in (old, new)]
            return change / max(*sizes, 1.0)
    return 0.0


def compare(old: Path, new: Path) -> int:
    """Print the per-file summary of --compare; 1 on a verdict change or an unmatched file."""
    for root in (old, new):
        env = root / ENV_FILE
        print(f"{ENV_FILE} of {root}: {env.read_text().strip() if env.is_file() else 'none'}")
    files = {p.relative_to(root) for root in (old, new) for p in root.rglob("*") if p.is_file()}
    names = sorted(files - {Path(ENV_FILE)})
    failed = identical = 0
    for name in names:
        if not ((old / name).is_file() and (new / name).is_file()):
            print(f"{name}: only in {old if (old / name).is_file() else new}")
            failed = 1
            continue
        pairs = list(itertools.zip_longest(_records(old / name), _records(new / name)))
        changed = verdicts = 0
        worst = 0.0
        for a, b in pairs:
            (line_a, rec_a), (line_b, rec_b) = a or (None, None), b or (None, None)
            changed += line_a != line_b
            verdicts += _verdict(rec_a) != _verdict(rec_b)
            worst = max(worst, _margin_change(rec_a, rec_b))
        identical += not changed
        failed |= verdicts > 0
        print(
            f"{name}: {changed} of {len(pairs)} records changed, {verdicts} verdict changes, "
            f"largest relative margin change {worst:.3g}"
        )
    print(f"{identical} of {len(names)} files byte-identical")
    return failed


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: dump_outputs.py OUTDIR | --compare OLD NEW", file=sys.stderr)
        return 1
    out = Path(argv[0])
    subdirs = (
        "verify",
        "run_trial",
        "fuzz",
        "fuzz_full",
        "fuzz_edge",
        "fuzz_window",
        "compare",
        "sharpness",
        "run_trial_strict",
        "run_trial_d16",
    )
    for sub in subdirs:
        (out / sub).mkdir(parents=True, exist_ok=True)
    (out / ENV_FILE).write_text(json.dumps(_environment()) + "\n")
    for path in INSTANCES:
        (out / "verify" / f"{path.stem}.json").write_text(_cli(["verify", str(path), "--json"]))
        (out / "verify" / f"{path.stem}.txt").write_text(_cli(["verify", str(path)]))
    config = GeneratorConfig(seed=0)
    for inequality_id in INEQUALITY_IDS:
        lines = (
            json.dumps(run_trial(config, inequality_id, i).to_dict()) + "\n" for i in range(TRIALS)
        )
        (out / "run_trial" / f"{inequality_id}.jsonl").write_text("".join(lines))
        payload = _REGISTRY[inequality_id].payload
        dims = [] if payload == "sequences" else DIMS_ARGS
        fuzz = _cli(["fuzz", inequality_id, *FUZZ_ARGS, *dims])
        (out / "fuzz" / f"{inequality_id}.json").write_text(fuzz)
        if payload in SCALAR_PAYLOADS:
            full = _cli(["fuzz", inequality_id, *FULL_FUZZ_ARGS])
            (out / "fuzz_full" / f"{inequality_id}.json").write_text(full)
            edge = _cli(["fuzz", inequality_id, *EDGE_FUZZ_ARGS])
            (out / "fuzz_edge" / f"{inequality_id}.json").write_text(edge)
    for inequality_id, trials in WINDOW_FUZZ_RUNS.items():
        window = _cli(["fuzz", inequality_id, "--trials", str(trials), *WINDOW_FUZZ_ARGS])
        (out / "fuzz_window" / f"{inequality_id}.json").write_text(window)
    for name, flags in COMPARE_RUNS.items():
        csv_path = out / "compare" / f"{name}.csv"
        summary = _cli(["compare", *flags, "--csv", str(csv_path)])
        # The summary names the CSV path, which differs between checkouts.
        (out / "compare" / f"{name}.txt").write_text(summary.replace(str(csv_path), "<csv>"))
    for name, flags in SHARPNESS_RUNS.items():
        sharpness = _cli(["sharpness", "--json", "--dim", "3", *flags])
        (out / "sharpness" / f"{name}.json").write_text(sharpness)
    for inequality_id in MATRIX_IDS:
        lines = (
            json.dumps(run_trial(STRICT_CONFIG, inequality_id, i, STRICT_TOL).to_dict()) + "\n"
            for i in range(STRICT_CONFIG.trials)
        )
        (out / "run_trial_strict" / f"{inequality_id}.jsonl").write_text("".join(lines))
    for inequality_id in D16_IDS:
        lines = (
            json.dumps(run_trial(D16_CONFIG, inequality_id, i).to_dict()) + "\n"
            for i in range(D16_TRIALS)
        )
        (out / "run_trial_d16" / f"{inequality_id}.jsonl").write_text("".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
