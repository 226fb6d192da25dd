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
