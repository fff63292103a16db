"""rcsbounds benchmark: seeded CLI workloads, end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fuzz-matrix --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for why each exists): fuzz-matrix and
fuzz-scalar.  The program is imported from ``src/`` of the checkout;
nothing is installed.

With ``--trace 0`` the run measures the end-to-end metrics, untraced:

* setup_s: seconds from launching a fresh interpreter until
  ``rcsbounds.cli`` is imported and a first command could be issued,
  median of several launches;
* reports_per_s: bound reports evaluated (fuzz trials and compare rows)
  per second of command wall time, over the run's whole rounds;
* peak_rss_mb: peak resident memory of the benchmark process.

With ``--trace 1`` the run issues each command of the workload twice,
untraced and then under the span tracer, and then runs the layer
probes; it reports the per-layer metrics (see layers.py).

Every command's output is checked; a failed check counts in ``failed``
and error_share = failed / attempted.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  An
untraced run writes its command latencies, a traced run its spans, to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from spans import SpanTable, Tracer
from workloads import OUT, ROOT, SRC, WORKLOADS, Tally, child_env, run_command

SETUP_RUNS = 15
# Share of --seconds a traced run spends on the workload; the layer
# probes take the rest.
TRACE_SHARE = 0.6
SETUP_CODE = "import rcsbounds.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def setup_once() -> float:
    """Seconds from launching a fresh interpreter until rcsbounds.cli is imported."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def run_rounds(workload, passes, seconds: float, setup=None) -> int:
    """Issue whole rounds until `seconds` have passed; return the round count.

    passes is a list of (tally, tracer or None): each command runs once per
    pass, back to back, so the passes see the same phases of the machine.
    With a `setup` list, SETUP_RUNS set-up probes are spread evenly over
    the run, between commands, so a passing slow phase of the machine
    cannot take them all.
    """
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for command in workload.round(r):
            if setup is not None and len(setup) < SETUP_RUNS:
                if time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
                    setup.append(setup_once())
            for tally, tracer in passes:
                tally.record(command, run_command(command, tracer))
        r += 1
    while setup is not None and len(setup) < SETUP_RUNS:
        setup.append(setup_once())
    return r


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float) -> tuple[dict, Tally]:
    setup: list[float] = []
    tally = Tally()
    rounds = run_rounds(workload, [(tally, None)], seconds, setup=setup)
    with open(OUT / f"latencies-{workload.name}-{workload.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"seconds": tally.latencies, "setup": setup}, fh)
    # Shared machines have phases, from seconds to minutes long, that run
    # the same command up to 2x slower or faster.  Over three ten-seed
    # sets, this total over whole rounds spread 0.09-0.17 between runs, a
    # per-command median over rounds 0.10-0.18, and each command's fastest
    # run 0.09-0.28, as it also picks up the short fast phases.
    metrics = {
        "setup_s": (float(np.median(setup)), "s"),
        "reports_per_s": (sum(tally.reports) / sum(tally.latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"rounds: {rounds}, commands: {tally.attempted}, reports: {sum(tally.reports)}")
    return metrics, tally


def per_layer(workload, seconds: float) -> tuple[dict, Tally]:
    import layers

    untraced, traced, tally = Tally(), Tally(), Tally()
    tracer = Tracer()
    rounds = run_rounds(workload, [(untraced, None), (traced, tracer)], seconds * TRACE_SHARE)
    tracer.dump(OUT / f"spans-{workload.name}.jsonl")
    metrics = layers.workload_metrics(SpanTable(tracer.spans))
    overhead = sum(traced.latencies) / sum(untraced.latencies)
    metrics["trace.overhead_share"] = (overhead - 1.0, "share")

    probe_tracer = Tracer()
    metrics.update(layers.id_probe(workload.seed, tally, probe_tracer))
    probe_tracer.dump(OUT / f"spans-{workload.name}-probe.jsonl")
    samples = tracer.eig_samples + probe_tracer.eig_samples
    metrics.update(layers.kernel_probe(workload.seed, tally, samples))
    metrics.update(layers.import_probe())
    metrics.update(layers.command_probe(workload.seed, tally))
    print(f"rounds: {rounds}, each command untraced then traced; spans: {len(tracer.spans)}")
    for done in (untraced, traced):
        tally.attempted += done.attempted
        tally.failed += done.failed
        tally.problems += done.problems
    return metrics, tally


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment(workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": workload.seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcsbounds" / "cli.py").is_file():
        print(f"perfbench: no rcsbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    print("env: " + json.dumps(environment(workload)))
    measure = per_layer if args.trace else end_to_end
    metrics, tally = measure(workload, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:14.6g} {unit}")
    print(f"error_share: {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1):.6g}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
