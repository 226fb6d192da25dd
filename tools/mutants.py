"""Check that the tests catch each committed mutant of sosq.

    python3 tools/mutants.py

A mutant is data: (path, old text, new text, test ids).  For each one, in a
scratch copy of src/, tests/ and pyproject.toml, the runner fails it when
  - its old text does not occur exactly once in the file (a stale mutant);
  - its tests fail on the clean copy;
  - its tests pass once the old text is replaced by the new (a survivor).
A mutated run that outlasts TIMEOUT_S counts as caught.  The runner prints
one line per mutant and exits 1 if any failed.  It needs pytest and the
test dependencies, and nothing else beyond the standard library.

A change that a test pins adds its mutant here, with the test that fails
on it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


SUMSQUARES = "src/sosq/sumsquares.py"
TESTS = "tests/test_sumsquares.py"
SYSTEMS = "src/sosq/systems.py"
SYSTEMS_TESTS = "tests/test_systems.py"
SOLUTIONS = "src/sosq/solutions.py"
SOLUTIONS_TESTS = "tests/test_solutions.py"

MUTANTS = (
    # the table screen runs on past rest 1, one gcd a run to the table's end
    Mutant(
        SUMSQUARES,
        "        if rest == 1:\n            break\n",
        "",
        (f"{TESTS}::test_screen_takes_one_gcd_a_run",),
    ),
    # a run whose gcd with the rest is 1 ends the screen instead of being skipped
    Mutant(
        SUMSQUARES,
        "        if h == 1:\n            continue\n",
        "        if h == 1:\n            break\n",
        (f"{TESTS}::TestFactorize::test_matches_wheel_on_table_prime_squares",),
    ),
    # the scan of a run stops after its first prime, whatever h has left
    Mutant(
        SUMSQUARES,
        "                if h == 1:\n                    break\n",
        "                break\n",
        (f"{TESTS}::TestFactorize::test_matches_wheel_smooth",),
    ),
    # no rest is ever proved prime, so the wheel must reach its square root
    Mutant(
        SUMSQUARES,
        "    return _PRIME_TEST_FROM <= rest < _MR_PROOF_LIMIT and _is_prime(rest)\n",
        "    return False\n",
        (f"{TESTS}::TestPrimePowers::test_gate_ends_below_psi_13",),
    ),
    # Euclid's pair comes back unchecked
    Mutant(
        SUMSQUARES,
        "    if a * a + b * b != p:\n"
        "        raise ArithmeticError(f\"Euclid's algorithm found no two squares"
        " of prime {p}\")\n",
        "",
        (f"{TESTS}::TestTwoSquareDecompose::test_euclid_checks_its_pair",),
    ),
    # one token past the limit is accepted
    Mutant(
        "src/sosq/exprs.py",
        "        if len(tokens) == MAX_TOKENS:\n",
        "        if len(tokens) == MAX_TOKENS + 1:\n",
        ("tests/test_exprs.py::TestLimits::test_one_token_too_many",),
    ),
    # solve_four's x, then its z, keeps the sign of a zero that p + q or p - q
    # gives as -2^-1074 halved
    Mutant(
        SYSTEMS,
        "    xs, ys = (p + q) / 2.0 + 0.0, ",
        "    xs, ys = (p + q) / 2.0, ",
        (f"{SYSTEMS_TESTS}::TestSolveFour::test_unsigning_add_on_x_and_z_is_reached",),
    ),
    Mutant(
        SYSTEMS,
        "    zs, ws = (p - q) / 2.0 + 0.0, ",
        "    zs, ws = (p - q) / 2.0, ",
        (f"{SYSTEMS_TESTS}::TestSolveFour::test_unsigning_add_on_x_and_z_is_reached",),
    ),
    # and y, then w, keeps the sign of a zero, as on the golden solve4 input 496
    Mutant(
        SYSTEMS,
        "(s - t) / 2.0 + 0.0\n",
        "(s - t) / 2.0\n",
        ("tests/test_solver_golden.py::test_solver_bits[496]",),
    ),
    Mutant(
        SYSTEMS,
        "(s + t) / 2.0 + 0.0\n",
        "(s + t) / 2.0\n",
        ("tests/test_solver_golden.py::test_solver_bits[496]",),
    ),
    # a NaN defect (inf - inf) stays NaN, and so reads as no excess
    Mutant(
        "src/sosq/stability.py",
        "    if total != total:\n"
        "        defects = [math.inf if d != d else d for d in defects]\n",
        "",
        ("tests/test_stability.py::TestHypothesisTwo::test_nan_defect_is_infinite_excess",),
    ),
    # check_conclusion_* reports the paired sample (p, p), not p
    Mutant(
        "src/sosq/stability.py",
        "    return report._replace(worst_point=point and point[:int(bounds.arity)])\n",
        "    return report\n",
        ("tests/test_sweep_calls.py::test_conclusion_folds_each_block_once",),
    ),
    # verify tests no block for a non-finite value
    Mutant(
        SOLUTIONS,
        "        if not _finite_sum(lhs, rhs):\n",
        "        if False:\n",
        (f"{SOLUTIONS_TESTS}::TestVerifyEquation::test_complex_infinity_fails_at_its_sample",),
    ),
    # a block whose sum overflows fails at its first sample, each value unchecked
    Mutant(
        SOLUTIONS,
        "            finite = [cmath.isfinite(a) and cmath.isfinite(b)"
        " for a, b in zip(lhs, rhs)]\n",
        "            finite = [False] * len(lhs)\n",
        (f"{SOLUTIONS_TESTS}::TestVerifyEquation::"
         "test_finite_values_whose_sum_overflows_pass",),
    ),
    # an exact (Fraction) sum past the double range raises instead of being
    # tested value by value
    Mutant(
        SOLUTIONS,
        "    except OverflowError:\n        return False\n",
        "    except OverflowError:\n        raise\n",
        (f"{SOLUTIONS_TESTS}::TestVerifyEquation::"
         "test_finite_values_whose_sum_overflows_pass",),
    ),
    # the report's config keeps the --out path
    Mutant(
        "src/sosq/cli.py",
        'if k not in ("command", "output", "out")}',
        'if k not in ("command", "output")}',
        ("tests/test_cli.py::TestConfig::test_config_is_the_parsed_arguments",),
    ),
    # solve_two's report lacks its alpha: a five-field SolveReport
    Mutant(
        SYSTEMS,
        "        tol,\n        None,\n    ))\n",
        "        tol,\n    ))\n",
        ("tests/test_records.py::test_reprs", "tests/test_records.py::test_alpha_defaults_to_none"),
    ),
    # each solver's report is built by SolveReport._make, a second Python frame
    Mutant(
        SYSTEMS,
        "    return tuple.__new__(SolveReport, (\n",
        "    return SolveReport._make((\n",
        (f"{SYSTEMS_TESTS}::test_a_solve_runs_in_one_python_frame[UNZ]",),
    ),
    Mutant(
        SYSTEMS,
        "    return tuple.__new__(SolveReport, (solution,",
        "    return SolveReport._make((solution,",
        (f"{SYSTEMS_TESTS}::test_a_solve_runs_in_one_python_frame[D]",),
    ),
    # each solver multiplies by 2^-e2 at e2 = -1024 too, where it overflows:
    # ldexp(1.0, 1024) raises OverflowError
    Mutant(
        SYSTEMS,
        "    if e2 > -1024:\n        one = ldexp(1.0, -e2)\n        us, vs",
        "    if e2 > -1026:\n        one = ldexp(1.0, -e2)\n        us, vs",
        (f"{SYSTEMS_TESTS}::TestScalingEdges::test_two_at_the_overflow_edge",),
    ),
    Mutant(
        SYSTEMS,
        "    if e2 > -1024:\n        one = ldexp(1.0, -e2)\n        as_",
        "    if e2 > -1026:\n        one = ldexp(1.0, -e2)\n        as_",
        (f"{SYSTEMS_TESTS}::TestScalingEdges::test_four_at_the_overflow_edge",),
    ),
    # and solve_four by 2^-e3 at e3 = -1024
    Mutant(
        SYSTEMS,
        "        if e3 > -1024:\n",
        "        if e3 > -1026:\n",
        (f"{SYSTEMS_TESTS}::TestScalingEdges::test_four_direction_at_the_overflow_edge",),
    ),
    # the scale-back exponent off by one, in each solver (golden records 0 and
    # 255 are the first of solve_two and of solve_four)
    Mutant(
        SYSTEMS,
        "    root = ldexp(1.0, e2 // 2)\n    return",
        "    root = ldexp(1.0, e2 // 2 + 1)\n    return",
        ("tests/test_solver_golden.py::test_solver_bits[0]",),
    ),
    Mutant(
        SYSTEMS,
        "    root = ldexp(1.0, e2 // 2)\n    x, z",
        "    root = ldexp(1.0, e2 // 2 - 1)\n    x, z",
        ("tests/test_solver_golden.py::test_solver_bits[255]",),
    ),
    # solve_two scales its solution back by one ldexp per component
    Mutant(
        SYSTEMS,
        "        (xs * root, ys * root),\n",
        "        (ldexp(xs, e2 // 2), ldexp(ys, e2 // 2)),\n",
        (f"{SYSTEMS_TESTS}::test_one_ldexp_per_power_of_two[UNZ]",),
    ),
    # the cofactor search skips Miller-Rabin at every size
    Mutant(
        SUMSQUARES,
        "(p < _SCREEN_PROOF_LIMIT or _is_prime(p))",
        "(True or _is_prime(p))",
        (f"{TESTS}::TestCofactorSearch::test_candidates_are_screened_before_miller_rabin",),
    ),
    # and, the other way, tests candidates below 2048**2 too
    Mutant(
        SUMSQUARES,
        "(p < _SCREEN_PROOF_LIMIT or _is_prime(p))",
        "_is_prime(p)",
        (f"{TESTS}::TestCofactorSearch::test_the_screen_proves_candidates_below_2048_squared",),
    ),
    # one token-sample past the cap is accepted
    Mutant(
        "src/sosq/cli.py",
        "    if args.samples * tokens > MAX_SAMPLE_TOKENS:\n",
        "    if args.samples * tokens > MAX_SAMPLE_TOKENS + 1:\n",
        ("tests/test_cli.py::TestUsage::test_sample_tokens_up_to_the_cap",),
    ),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit code for tests in tree (None past TIMEOUT_S), and its output."""
    # no bytecode: a mutant of the same size, restored within the second,
    # would otherwise leave its .pyc to the next run
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout + done.stderr


def failure(mutant: Mutant, tree: Path) -> str | None:
    """Why mutant fails the check in the clean copy tree, or None if it is caught."""
    target = tree / mutant.path
    source = target.read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found != 1:
        return f"stale: the old text occurs {found} times"
    code, output = run_tests(tree, mutant.tests)
    if code != 0:
        return f"its tests fail on the clean tree (pytest exit {code})\n{output}"
    target.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code, output = run_tests(tree, mutant.tests)
    finally:
        target.write_text(source, encoding="utf-8")
    if code == 0:
        return "survived: its tests pass on the mutated tree"
    if code not in (1, None):
        return f"pytest exit {code} on the mutated tree\n{output}"
    return None


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for number, mutant in enumerate(MUTANTS, 1):
            why = failure(mutant, tree)
            old = " / ".join(line.strip() for line in mutant.old.splitlines())
            print(f"mutant {number} ({mutant.path}: {old[:60]!r}): {why or 'caught'}")
            failed += why is not None
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
