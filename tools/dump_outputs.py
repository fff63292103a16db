"""Write the package's reference outputs to a directory, for a byte-identity check.

Usage:

    python3 tools/dump_outputs.py OUTDIR

It imports rcsbounds from the src/ directory next to this script and writes:

* verify/<instance>.json and verify/<instance>.txt: ``verify --json`` and
  the table for each shipped instance in docs/instances;
* run_trial/<ID>.jsonl: ``run_trial(GeneratorConfig(seed=0), ID, i).to_dict()``
  for every inequality id and i in 0..199, one JSON line per trial;
* fuzz/<ID>.json: ``fuzz ID --trials 150 --seed 11 --json``, with
  ``--dims 1 2 4`` for the ids that draw a matrix dimension;
* fuzz_full/<ID>.json: ``fuzz ID --seed 12 --json`` at the default 1000
  trials (full 64-trial windows) for each functional and sequence id;
* compare/default.csv, compare/n1_samples500.csv and
  compare/seed5_samples2000.csv: ``compare --csv`` at the defaults, at
  ``--n 1 --samples 500`` and at ``--seed 5 --samples 2000``, with the
  printed summary of each in the matching .txt file;
* sharpness/<kind>.json: ``sharpness --json --kind KIND --dim 3`` for each
  functional kind, and sharpness/complex_window.json: the same for the
  default kind with ``--omega 1+2j --Omega 3-1j``.

Run it on two checkouts and compare the directories with ``diff -r``: no
output means every report, summary and row is byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rcsbounds import INEQUALITY_IDS, GeneratorConfig, cli, run_trial  # noqa: E402
from rcsbounds.bounds import _REGISTRY  # noqa: E402

INSTANCES = sorted((ROOT / "docs" / "instances").glob("*.json"))
TRIALS = 200
FUZZ_ARGS = ["--trials", "150", "--seed", "11", "--json"]
# Sequence ids draw their length n themselves and reject --dims.
DIMS_ARGS = ["--dims", "1", "2", "4"]
FULL_FUZZ_ARGS = ["--seed", "12", "--json"]
SCALAR_PAYLOADS = ("functional_form", "sequences")
COMPARE_RUNS = {
    "default": [],
    "n1_samples500": ["--n", "1", "--samples", "500"],
    "seed5_samples2000": ["--seed", "5", "--samples", "2000"],
}
SHARPNESS_RUNS = {
    **{kind: ["--kind", kind] for kind in ("vector_state", "trace", "weighted_sum")},
    "complex_window": ["--omega", "1+2j", "--Omega", "3-1j"],
}


def _cli(argv: list[str]) -> str:
    """stdout of one in-process CLI call, with its exit code as the last line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{out.getvalue()}exit {code}\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: dump_outputs.py OUTDIR", file=sys.stderr)
        return 1
    out = Path(argv[0])
    for sub in ("verify", "run_trial", "fuzz", "fuzz_full", "compare", "sharpness"):
        (out / sub).mkdir(parents=True, exist_ok=True)
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
    for name, flags in COMPARE_RUNS.items():
        csv_path = out / "compare" / f"{name}.csv"
        summary = _cli(["compare", *flags, "--csv", str(csv_path)])
        # The summary names the CSV path, which differs between checkouts.
        (out / "compare" / f"{name}.txt").write_text(summary.replace(str(csv_path), "<csv>"))
    for name, flags in SHARPNESS_RUNS.items():
        sharpness = _cli(["sharpness", "--json", "--dim", "3", *flags])
        (out / "sharpness" / f"{name}.json").write_text(sharpness)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
