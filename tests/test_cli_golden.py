"""Byte-for-byte pins of the CLI's output.

Each case in CASES runs once in human form and once with `--output json`;
tests/data/cli_golden.txt holds, one JSON record per line, the exit code,
stdout and stderr of every run.  Usage errors from argparse (exit 2, with
a usage line first) pin only the exit code, because argparse's wording
differs between Python versions; sosq's own usage errors (exit 2,
"error: ...") are pinned in full.

Regenerate the data file after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sosq.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.txt"

CASES = [
    ["compose2", "1", "2", "2", "1"],
    ["compose2", "-3", "0", "0", "5"],
    ["compose2", str(10**40), "1", str(10**40), "1"],
    ["compose4", "1", "1", "1", "1", "1", "1", "1", "1"],
    ["compose4", "1", "2", "3", "4", "5", "6", "7", "8"],
    ["solve2", "0", "4"],
    ["solve2", "0", "-9"],
    ["solve2", "3", "4"],
    ["solve2", "--", "3", "-1e200"],
    ["solve2", "1e-300", "1e300", "--zero-eps", "1e-200"],
    ["solve4", "0", "0", "0", "1"],
    ["solve4", "1", "2", "3", "4"],
    ["solve4", "1", "2", "3", "4", "--tol", "1e-30"],
    ["solve4", "0", "-4", "0", "0"],
    ["solve4", "1", "4", "1", "0"],
    ["solve4", "1", "-4", "1", "0"],
    ["solve4", "--", "1e-5", "-1e150", "2e-5", "3e-5"],
    # branch D's alpha (a squared coordinate) passes DBL_MAX: reported as inf
    ["solve4", "--", "6.242860920368655e-05", "-2.154589341872986e+201",
     "-1.7976931348623157e+308", "-1.7976931348623157e+308"],
    # b < 0 dominates, and x + z rounds to 0 beside x - z
    ["solve4", "--", "-3.2805988059568653e+76", "-1.5827434674871792e+201",
     "-5.144581422464274e-197", "-2.5331356772152737e+25"],
    ["verify", "--arity", "2", "--model", "power:c=2", "--samples", "300", "--seed", "7"],
    ["verify", "--arity", "4", "--model", "power:c=3", "--samples", "200", "--seed", "11"],
    ["verify", "--arity", "2", "--model", "power:c=2,sigma=-1", "--samples", "200"],
    ["verify", "--arity", "4", "--model", "signedpower:c=1", "--samples", "100"],
    ["verify", "--arity", "2", "--model", "power:c=400", "--samples", "10"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "0",
     "--samples", "300"],
    ["stability", "--arity", "4", "--model", "zero", "--bounds", "min(1/4, abs(x))",
     "--samples", "200"],
    ["stability", "--arity", "2", "--model", "one", "--bounds", "1;2;x*x;pow(x,2)+1",
     "--samples", "100", "--seed", "5"],
    ["stability", "--arity", "2", "--model", "power:c=2,sigma=-1", "--bounds", "1",
     "--samples", "100"],
    ["stability", "--arity", "4", "--model", "power:c=1", "--bounds",
     "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1;abs(x)+3;min(x*x+1,100);1;x*x+abs(x)+1",
     "--samples", "100"],
    ["stability", "--arity", "2", "--model", "power:c=400", "--bounds", "1",
     "--samples", "10"],
    # slot 1 reads x2 in the hypothesis and x1 in the conclusion: at seed 2
    # the one sample has x1 < 0 <= x2, so only the conclusion sees a bad bound
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "1;pow(x,0.5);1;1",
     "--samples", "1", "--seed", "2"],
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds",
     "1;pow(x,0.5);1;1;1;1;1;1", "--samples", "1", "--seed", "2"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "1;pow(x,0.5);1;1",
     "--samples", "100"],
    # past the expression limits: too many tokens, nested too deep
    ["stability", "--arity", "2", "--model", "one", "--bounds", "+".join(["x"] * 5000)],
    ["stability", "--arity", "2", "--model", "one", "--bounds", "(" * 250 + "x" + ")" * 250],
    ["classify", "--model", "power:c=2"],
    ["classify", "--model", "zero"],
    ["classify", "--model", "power:c=2", "--mult-tol", "0"],
    ["classify", "--model", "power:c=-1", "--growth-threshold", "10"],
    ["decompose", "--squares", "2", "65"],
    ["decompose", "--squares", "2", "21"],
    ["decompose", "--squares", "2", "1"],
    ["decompose", "--squares", "4", "7"],
    ["decompose", "--squares", "4", "0"],
    ["decompose", "--squares", "4", "2026"],
    ["rep-check", "45"],
    ["rep-check", "21"],
    ["rep-check", "1"],
    ["rep-check", str(2**64)],
    ["rep-check", str(3 * 2**64)],
]

USAGE_CASES = [
    ["frobnicate"],
    ["verify", "--arity", "2"],
    ["verify", "--arity", "3", "--model", "one"],
    ["verify", "--arity", "2", "--model", "power:c=abc"],
    ["verify", "--arity", "2", "--model", "one", "--samples", "0"],
    ["solve2", "nan", "1"],
    ["solve2", "1", "2", "--tol", "-1"],
    ["stability", "--arity", "2", "--model", "one", "--bounds", "1;2;3"],
    ["stability", "--arity", "2", "--model", "one", "--bounds", "min(1"],
    ["decompose", "--squares", "2", "0"],
    ["decompose", "--squares", "4", "-3"],
    ["rep-check", "0"],
    # a non-finite tolerance or threshold is refused, not a vacuous PASS
    ["verify", "--arity", "2", "--model", "power:c=2,sigma=-1", "--samples", "50",
     "--tol", "inf"],
    ["verify", "--output", "json", "--arity", "2", "--model", "power:c=2,sigma=-1",
     "--samples", "50", "--tol", "inf"],
    ["classify", "--model", "power:c=2,sigma=-1", "--mult-tol", "inf"],
    ["classify", "--output", "json", "--model", "power:c=2,sigma=-1", "--mult-tol", "inf"],
]


# options go before the positionals, which may follow "--"
INVOCATIONS = [
    form for argv in CASES for form in (argv, [argv[0], "--output", "json", *argv[1:]])
] + USAGE_CASES


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    if code == 2 and not err.getvalue().startswith("error: "):
        return {"argv": argv, "code": code}
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with DATA.open(encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {tuple(rec["argv"]): rec for rec in records}


def test_golden_covers_every_invocation(golden):
    assert list(golden) == [tuple(argv) for argv in INVOCATIONS]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_bytes(argv, golden, monkeypatch):
    monkeypatch.delenv("SOSQ_SEED", raising=False)
    assert run_cli(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    os.environ.pop("SOSQ_SEED", None)
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        for argv in INVOCATIONS:
            fh.write(json.dumps(run_cli(argv)) + "\n")
