"""Mutation survey: how many seeded faults the focused tests catch.

Usage:

    python3 tools/mutants.py

MUTANTS is a fixed list of exact (file, old text, new text) edits to the
package, each applied alone.  It holds:

* one edit per distinct expression of a right-hand side, scaling it by
  1.01, each naming the inequality ids whose rhs it computes, so that the
  13 ids are covered: a test suite that checks the sides should notice a
  bound 1% too loose;
* one edit per distinct expression of a left-hand side, scaling it by
  0.99, named and covering the 13 ids the same way: a side 1% too small;
* the two verdict comparisons, margin >= -band made strict, of the
  scalar ids (bounds._scalar_reports) and of the Loewner order
  (matalg.loewner_leq);
* one draw edit, rng._words keyed at index + 1, which moves every
  trial of every id onto the next trial's stream;
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
    "tests/test_rng.py",
    "tests/test_bounds_discrete.py",
    "tests/test_bounds_functional.py",
    "tests/test_bounds_matrix.py",
    "tests/test_operator_pairs.py",
    "tests/test_equality_verdicts.py",
    "tests/test_cli.py::test_necessity_witness_fails_its_hypothesis_and_its_bound",
)

BOUNDS = "src/rcsbounds/bounds.py"
MATALG = "src/rcsbounds/matalg.py"
RNG = "src/rcsbounds/rng.py"

SCALAR_IDS = tuple(i for i in INEQUALITY_IDS if i not in ("ADD_MATRIX", "MULT_MATRIX"))

# The kinds of mutant; the rhs and lhs edits must each cover every id.
RHS, LHS, VERDICT, DRAW, CONTROL = "rhs x1.01", "lhs x0.99", "verdict", "draw", "control"


@dataclass(frozen=True)
class Mutant:
    name: str
    ids: tuple[str, ...]  # the ids whose side (or check, or draws) the edit changes
    path: str
    old: str
    new: str
    kind: str = RHS


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
        "lhs_additive_matrix", ("ADD_MATRIX",), BOUNDS,
        "lhs = re_part(product - cross)",
        "lhs = re_part(0.99 * (product - cross))",
        LHS,
    ),
    Mutant(
        "lhs_multiplicative_matrix", ("MULT_MATRIX",), BOUNDS,
        "lhs = re_part(root_x @ root_y + root_y @ root_x)",
        "lhs = re_part(0.99 * (root_x @ root_y + root_y @ root_x))",
        LHS,
    ),
    Mutant(
        "lhs_additive_functional", ("ADD_FUNCTIONAL",), BOUNDS,
        "lhs = size - _pow2(_hypot(cross))",
        "lhs = 0.99 * (size - _pow2(_hypot(cross)))",
        LHS,
    ),
    Mutant(
        "lhs_multiplicative_functional", ("MULT_FUNCTIONAL",), BOUNDS,
        "lhs = np.sqrt(np.maximum(fxx, 0.0)) * np.sqrt(np.maximum(fyy, 0.0))",
        "lhs = 0.99 * np.sqrt(np.maximum(fxx, 0.0)) * np.sqrt(np.maximum(fyy, 0.0))",
        LHS,
    ),
    Mutant(
        "lhs_operator_pair", ("OP_PAIR_ADD", "OP_PAIR_MULT"), BOUNDS,
        "lhs = reports[0].lhs * scale",
        "lhs = 0.99 * reports[0].lhs * scale",
        LHS,
    ),
    Mutant(
        "lhs_additive_sums", ("INT_ADD", "WEIGHTED_ADD"), BOUNDS,
        "return sa2 * sb2 - sab * sab, _min(branch_a, branch_b), sa2 * sb2, details",
        "return 0.99 * (sa2 * sb2 - sab * sab), _min(branch_a, branch_b), sa2 * sb2, details",
        LHS,
    ),
    Mutant(
        "lhs_multiplicative_sums", ("INT_MULT",), BOUNDS,
        "lhs = np.sqrt(sa2) * np.sqrt(sb2)",
        "lhs = 0.99 * np.sqrt(sa2) * np.sqrt(sb2)",
        LHS,
    ),
    Mutant(
        "lhs_product", ("GREUB_RHEINBOLDT", "PS_MULT"), BOUNDS,
        "return sa2 * sb2, _divide(_pow2(A * B + a * b), 4.0 * prod) * sab * sab, 1.0, {}",
        "return 0.99 * sa2 * sb2, _divide(_pow2(A * B + a * b), 4.0 * prod) * sab * sab, 1.0, {}",
        LHS,
    ),
    Mutant(
        "lhs_classical_additive", ("PS_ADD",), BOUNDS,
        "return sa2 * sb2 - sab * sab, _scaled_constants(sa2, sb2, sab, win)[2], sa2 * sb2, {}",
        "return 0.99 * (sa2 * sb2 - sab * sab), _scaled_constants(sa2, sb2, sab, win)[2], sa2 * sb2, {}",
        LHS,
    ),
    Mutant(
        "lhs_improved", ("PS_IMPROVED",), BOUNDS,
        "return sa2 * sb2 - sab * sab, least, sa2 * sb2, details",
        "return 0.99 * (sa2 * sb2 - sab * sab), least, sa2 * sb2, details",
        LHS,
    ),
    Mutant(
        "verdict_scalar_strict", SCALAR_IDS, BOUNDS,
        "holds = margin >= -tol.band(scale)",
        "holds = margin > -tol.band(scale)",
        VERDICT,
    ),
    Mutant(
        "verdict_loewner_strict", ("ADD_MATRIX", "MULT_MATRIX"), MATALG,
        "holds = margin >= -(tol.atol + np.maximum(norms, floor))",
        "holds = margin > -(tol.atol + np.maximum(norms, floor))",
        VERDICT,
    ),
    Mutant(
        "draw_words_next_index", INEQUALITY_IDS, RNG,
        "index = np.fromiter(indices, dtype=np.uint64)",
        "index = np.fromiter(indices, dtype=np.uint64) + np.uint64(1)",
        DRAW,
    ),
    Mutant(
        "force_root_commutation", ("ADD_MATRIX",), BOUNDS,
        "ok, value = _root_commutation(root, xy, tol)",
        "ok, value = _root_commutation(root, xy, tol); ok = ok | True",
        CONTROL,
    ),
    Mutant(
        "force_cross_term_normal", ("MULT_MATRIX",), BOUNDS,
        "ok, value = is_normal(xy, tol)",
        "ok, value = is_normal(xy, tol); ok = ok | True",
        CONTROL,
    ),
    Mutant(
        "force_functional_re_term", ("ADD_FUNCTIONAL", "MULT_FUNCTIONAL"), BOUNDS,
        'preconditions = (("re_term_positive", *loewner_leq(np.zeros_like(re_term), re_term, tol)),)',
        "ok, value = loewner_leq(np.zeros_like(re_term), re_term, tol); "
        'preconditions = (("re_term_positive", ok | True, value),)',
        CONTROL,
    ),
)


def check_list(root: str) -> list[str]:
    """The problems of MUTANTS against the files under root: an old text
    that does not occur exactly once, a repeated name, an id no rhs or no
    lhs edit covers."""
    problems = []
    for m in MUTANTS:
        with open(os.path.join(root, m.path), encoding="utf-8") as f:
            count = f.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}: {m.old!r}")
    names = [m.name for m in MUTANTS]
    if len(set(names)) != len(names):
        problems.append("mutant names repeat")
    for kind in (RHS, LHS):
        covered = {i for m in MUTANTS if m.kind == kind for i in m.ids}
        missing = [i for i in INEQUALITY_IDS if i not in covered]
        if missing:
            problems.append(f"no {kind} mutant covers {', '.join(missing)}")
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
        print(f"\n{m.name} ({m.kind}; {', '.join(m.ids)}): killed by {len(kills[m.name])}")
        for test in kills[m.name]:
            print(f"  {test}")
    survivors = [m.name for m in MUTANTS if not kills[m.name]]
    print(f"\nsurvivors ({len(survivors)}): {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
