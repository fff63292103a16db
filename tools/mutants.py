"""Mutation survey: how many seeded faults the focused tests catch.

Usage:

    python3 tools/mutants.py

MUTANTS is a fixed list of exact (file, old text, new text) edits to the
package, each applied alone.  It holds:

* one edit per distinct expression of a right-hand side, scaling it by
  1.01, each naming the inequality ids whose rhs it computes, so that the
  13 ids are covered: a test suite that checks the sides should notice a
  bound 1% too loose;
* three controls, each forcing a theorem hypothesis check to pass
  (root_commutation of ADD_MATRIX, cross_term_normal of MULT_MATRIX and
  re_term_positive of the functional ids), which only the necessity
  witnesses in docs/instances can expose.

The script copies the repository to a temporary directory and, for each
mutant in turn, applies its edit there and runs SELECTION with pytest;
the working tree is never touched.  It prints the kill matrix (each
mutant with the tests that fail on it) and the survivors, the mutants no
test fails on.  It exits 1, before running anything, when an edit's old
text does not occur exactly once in its file, so the list has to follow
the code, and also when a test of the selection fails without a mutant.
Survivors do not change the exit code.  It needs only the standard
library and the interpreter that runs the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INEQUALITY_IDS = (
    "ADD_MATRIX", "MULT_MATRIX", "ADD_FUNCTIONAL", "MULT_FUNCTIONAL", "OP_PAIR_ADD",
    "OP_PAIR_MULT", "INT_ADD", "INT_MULT", "GREUB_RHEINBOLDT", "WEIGHTED_ADD", "PS_MULT",
    "PS_ADD", "PS_IMPROVED",
)

SELECTION = (
    "tests/test_bounds_discrete.py",
    "tests/test_bounds_functional.py",
    "tests/test_bounds_matrix.py",
    "tests/test_operator_pairs.py",
    "tests/test_equality_verdicts.py",
    "tests/test_cli.py::test_necessity_witness_fails_its_hypothesis_and_its_bound",
)

BOUNDS = "src/rcsbounds/bounds.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    ids: tuple[str, ...]  # the ids whose rhs (or check) the edit changes
    path: str
    old: str
    new: str
    control: bool = False


MUTANTS = (
    Mutant(
        "rhs_additive_matrix", ("ADD_MATRIX",), BOUNDS,
        "rhs = re_part(_quarter_spread(omega, Omega)[:, None, None] * (yy @ yy))",
        "rhs = re_part(1.01 * _quarter_spread(omega, Omega)[:, None, None] * (yy @ yy))",
    ),
    Mutant(
        "rhs_multiplicative_matrix", ("MULT_MATRIX",), BOUNDS,
        "rhs = re_part(coeffs[:, None, None] * absolute)",
        "rhs = re_part(1.01 * coeffs[:, None, None] * absolute)",
    ),
    Mutant(
        "rhs_additive_functional", ("ADD_FUNCTIONAL", "OP_PAIR_ADD"), BOUNDS,
        "rhs = _quarter_spread(omega, Omega) * _pow2(fyy)",
        "rhs = 1.01 * _quarter_spread(omega, Omega) * _pow2(fyy)",
    ),
    Mutant(
        "rhs_multiplicative_functional", ("MULT_FUNCTIONAL", "OP_PAIR_MULT"), BOUNDS,
        "rhs = coeff * _hypot(cross)",
        "rhs = 1.01 * coeff * _hypot(cross)",
    ),
    Mutant(
        "rhs_operator_pair", ("OP_PAIR_ADD", "OP_PAIR_MULT"), BOUNDS,
        "rhs = np.min([r.rhs for r in reports], axis=0) * scale",
        "rhs = 1.01 * np.min([r.rhs for r in reports], axis=0) * scale",
    ),
    Mutant(
        "rhs_additive_sums", ("INT_ADD", "WEIGHTED_ADD"), BOUNDS,
        "return sa2 * sb2 - sab * sab, _min(branch_a, branch_b), sa2 * sb2, details",
        "return sa2 * sb2 - sab * sab, 1.01 * _min(branch_a, branch_b), sa2 * sb2, details",
    ),
    Mutant(
        "rhs_multiplicative_sums", ("INT_MULT",), BOUNDS,
        'return lhs, coeff * sab, 1.0, {"coefficient": coeff}',
        'return lhs, 1.01 * coeff * sab, 1.0, {"coefficient": coeff}',
    ),
    Mutant(
        "rhs_product", ("GREUB_RHEINBOLDT", "PS_MULT"), BOUNDS,
        "return sa2 * sb2, _divide(_pow2(A * B + a * b), 4.0 * prod) * sab * sab, 1.0, {}",
        "return sa2 * sb2, 1.01 * _divide(_pow2(A * B + a * b), 4.0 * prod) * sab * sab, 1.0, {}",
    ),
    Mutant(
        "rhs_classical_additive", ("PS_ADD",), BOUNDS,
        "return sa2 * sb2 - sab * sab, _scaled_constants(sa2, sb2, sab, win)[2], sa2 * sb2, {}",
        "return sa2 * sb2 - sab * sab, 1.01 * _scaled_constants(sa2, sb2, sab, win)[2], sa2 * sb2, {}",
    ),
    Mutant(
        "rhs_improved", ("PS_IMPROVED",), BOUNDS,
        "return sa2 * sb2 - sab * sab, least, sa2 * sb2, details",
        "return sa2 * sb2 - sab * sab, 1.01 * least, sa2 * sb2, details",
    ),
    Mutant(
        "force_root_commutation", ("ADD_MATRIX",), BOUNDS,
        "ok, value = _root_commutation(root, xy, tol)",
        "ok, value = _root_commutation(root, xy, tol); ok = ok | True",
        control=True,
    ),
    Mutant(
        "force_cross_term_normal", ("MULT_MATRIX",), BOUNDS,
        "ok, value = is_normal(xy, tol)",
        "ok, value = is_normal(xy, tol); ok = ok | True",
        control=True,
    ),
    Mutant(
        "force_functional_re_term", ("ADD_FUNCTIONAL", "MULT_FUNCTIONAL"), BOUNDS,
        'preconditions = (("re_term_positive", *loewner_leq(np.zeros_like(re_term), re_term, tol)),)',
        "ok, value = loewner_leq(np.zeros_like(re_term), re_term, tol); "
        'preconditions = (("re_term_positive", ok | True, value),)',
        control=True,
    ),
)


def check_list(root: str) -> list[str]:
    """The problems of MUTANTS against the files under root: an old text
    that does not occur exactly once, a repeated name, an uncovered id."""
    problems = []
    for m in MUTANTS:
        with open(os.path.join(root, m.path), encoding="utf-8") as f:
            count = f.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}: {m.old!r}")
    names = [m.name for m in MUTANTS]
    if len(set(names)) != len(names):
        problems.append("mutant names repeat")
    covered = {i for m in MUTANTS if not m.control for i in m.ids}
    missing = [i for i in INEQUALITY_IDS if i not in covered]
    if missing:
        problems.append(f"no rhs mutant covers {', '.join(missing)}")
    return problems


def failing_tests(copy: str) -> list[str]:
    """The ids of the SELECTION tests that fail or error in the copy."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "-o", "addopts=", *SELECTION]
    result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if result.returncode not in (0, 1) and not failed:  # no test ran to an outcome
        failed = [f"pytest exit code {result.returncode}"]
    return failed


def main() -> int:
    problems = check_list(ROOT)
    if problems:
        for problem in problems:
            print(f"mutants: {problem}", file=sys.stderr)
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = os.path.join(tmp, "repo")
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "perfbench")
        shutil.copytree(ROOT, copy, ignore=ignore)
        baseline = failing_tests(copy)
        if baseline:
            print("mutants: the selection fails without a mutant:", *baseline, sep="\n  ")
            return 1
        kills = {}
        for m in MUTANTS:
            path = os.path.join(copy, m.path)
            with open(path, encoding="utf-8") as f:
                original = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(m.old, m.new))
            try:
                kills[m.name] = failing_tests(copy)
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
    print(f"{len(MUTANTS)} mutants, {len(SELECTION)} selections, "
          f"{time.perf_counter() - start:.1f} s")
    for m in MUTANTS:
        kind = "control" if m.control else "rhs x1.01"
        print(f"\n{m.name} ({kind}; {', '.join(m.ids)}): killed by {len(kills[m.name])}")
        for test in kills[m.name]:
            print(f"  {test}")
    survivors = [m.name for m in MUTANTS if not kills[m.name]]
    print(f"\nsurvivors ({len(survivors)}): {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
