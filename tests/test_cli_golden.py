"""Byte-for-byte pins of the CLI's output.

Each case in CASES and SIGN_CASES runs once in human form and once with
`--output json`; tests/data/cli_golden.txt holds, one JSON record per line,
the exit code, stdout and stderr of every run.  Usage errors from argparse (exit 2, with
a usage line first) pin only the exit code, because argparse's wording
differs between Python versions; sosq's own usage errors (exit 2,
"error: ...") are pinned in full.

Regenerate the data file after an intended output change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sosq.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.txt"

SMOOTH_N = "796229763520486260311072665796622111837258600"
LARGE_PRIME_N = str(10**18 + 3)
SEMIPRIME_N = str((10**9 + 7) * (10**9 + 9))

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
    # more samples than one sampler block (256)
    ["verify", "--arity", "4", "--model", "power:c=2", "--samples", "1000"],
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
    ["stability", "--arity", "4", "--model", "power:c=1", "--bounds", "1+abs(x)",
     "--samples", "600"],
    # slot 1 reads x2 in the hypothesis and x1 in the conclusion: at seed 2
    # the one sample has x1 < 0 <= x2, so only the conclusion sees a bad bound
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "1;pow(x,0.5);1;1",
     "--samples", "1", "--seed", "2"],
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds",
     "1;pow(x,0.5);1;1;1;1;1;1", "--samples", "1", "--seed", "2"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "1;pow(x,0.5);1;1",
     "--samples", "100"],
    # the deciding sample lies past the first sampler block (256 samples):
    # the first non-finite value at sample 414, the first bound invalid
    # (|x| > 9.99) at sample 306
    ["verify", "--arity", "2", "--model", "power:c=140", "--samples", "600",
     "--seed", "6"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds",
     "pow(9.99-abs(x),0.5)", "--samples", "400", "--seed", "10"],
    # slot 1 fails first in the conclusion, past the first block: at seed 1
    # that error is held to the end; at seed 6 a later hypothesis error wins
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds",
     "1;pow(9.99-abs(x),0.5);1;1", "--samples", "2000", "--seed", "1"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds",
     "1;pow(9.99-abs(x),0.5);1;1", "--samples", "2000", "--seed", "6"],
    # NaN defects (inf - inf) reported as infinite excess
    ["stability", "--arity", "4", "--model", "power:c=140", "--bounds", "1+abs(x)",
     "--samples", "600", "--seed", "4"],
    # valid caps whose column sum overflows
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds", "1.5e308",
     "--samples", "600", "--seed", "4"],
    # past the expression limits: too many tokens, nested too deep
    ["stability", "--arity", "2", "--model", "one", "--bounds", "+".join(["x"] * 5000)],
    ["stability", "--arity", "2", "--model", "one", "--bounds", "(" * 250 + "x" + ")" * 250],
    ["classify", "--model", "power:c=2"],
    ["classify", "--model", "zero"],
    ["classify", "--model", "power:c=2", "--mult-tol", "0"],
    # classify has no --growth-threshold: an argparse usage error
    ["classify", "--model", "power:c=-1", "--growth-threshold", "10"],
    # every nonzero residual is NaN (inf * 0, inf - inf) and counts as inf
    ["classify", "--model", "power:c=1e308"],
    # -|t|^c is neither multiplicative nor within the delta = 0 line 1
    ["classify", "--model", "power:c=2,sigma=-1"],
    ["classify", "--model", "power:c=0.5,sigma=-1"],
    ["decompose", "--squares", "2", "65"],
    ["decompose", "--squares", "2", "21"],
    ["decompose", "--squares", "2", "1"],
    ["decompose", "--squares", "4", "7"],
    ["decompose", "--squares", "4", "0"],
    ["decompose", "--squares", "4", "2026"],
    # 999999999959 = 7 mod 8: four nonzero squares, from the cofactor search
    # as it is a prime past the table
    ["decompose", "--squares", "4", "999999999959"],
    # a smooth n across both ends of the prime table: 2^3 3^2 5^2 13 17 29 37
    # 41 53 61 101 1009 1013 1997 2003^2 2017 2029 2039^2 (2039, the last
    # table prime, squared; 3 and 2003 = 3 mod 4 at even powers)
    ["decompose", "--squares", "2", SMOOTH_N],
    ["decompose", "--squares", "4", SMOOTH_N],
    ["rep-check", "45"],
    ["rep-check", "21"],
    ["rep-check", "1"],
    ["rep-check", str(2**64)],
    ["rep-check", str(3 * 2**64)],
    # 1323 = 3^3 * 7^2: the certificate is 3^3, the even power of 7 is not one
    ["rep-check", "1323"],
    ["rep-check", SMOOTH_N],
    # 10^18 + 3, a prime 3 mod 4 past 2^40: Miller-Rabin proves it prime
    # before the wheel starts, which would need ~10^9 / 3 trial divisions;
    # four squares do not factor it
    ["rep-check", LARGE_PRIME_N],
    ["decompose", "--squares", "2", LARGE_PRIME_N],
    ["decompose", "--squares", "4", LARGE_PRIME_N],
    # (10^9+7)(10^9+9) is 3 mod 4: "no" before any factor, where the wheel
    # would take minutes to reach 10^9+7
    ["decompose", "--squares", "2", SEMIPRIME_N],
    # it has no table factor, so four squares represent it whole, unfactored
    ["decompose", "--squares", "4", SEMIPRIME_N],
]

# the benchmark's sweep mix (SWEEP_MIX in perfbench/workloads.py) at its full
# size: 2000 samples, several sampler blocks per sweep
SWEEP_MIX_HEADS = [
    ["verify", "--arity", "2", "--model", "power:c=2"],
    ["verify", "--arity", "4", "--model", "power:c=2"],
    ["stability", "--arity", "2", "--model", "power:c=2",
     "--bounds", "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1"],
    ["stability", "--arity", "4", "--model", "power:c=1",
     "--bounds", "1+abs(x);2+x*x;max(1,abs(x));pow(x,2)+1;"
                 "abs(x)+3;min(x*x+1,100);1;x*x+abs(x)+1"],
    ["verify", "--arity", "2", "--model", "power:c=2,sigma=-1"],
]
CASES += [head + ["--samples", "2000", "--seed", "3"] for head in SWEEP_MIX_HEADS]

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
    # nor is a negative one, which no residual (or sup) can meet
    ["classify", "--model", "power:c=2", "--mult-tol", "-1"],
    ["classify", "--output", "json", "--model", "power:c=2", "--mult-tol", "-1"],
    # classify has no --growth-threshold
    ["classify", "--model", "power:c=2", "--growth-threshold", "-5"],
    ["classify", "--output", "json", "--model", "power:c=2", "--growth-threshold", "-5"],
    ["stability", "--arity", "2", "--model", "power:c=1", "--bounds", "1", "--mult-tol", "-1"],
    ["stability", "--output", "json", "--arity", "2", "--model", "power:c=1", "--bounds", "1",
     "--mult-tol", "-1"],
    # a negative --zero-eps calls no input zero, so the case label would be wrong
    ["solve2", "0", "4", "--zero-eps", "-1"],
    ["solve4", "1", "4", "1", "0", "--zero-eps", "-1"],
    # past the int-to-str digit limit: refused for its length, digits not echoed
    ["verify", "--arity", "2", "--model", "one", "--samples", "10",
     "--seed", "1" + "0" * 4400],
    # past the sample cap (MAX_SAMPLES), whose sweep would overrun the time budget
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds", "1",
     "--samples", "1000001"],
    ["stability", "--output", "json", "--arity", "4", "--model", "power:c=2", "--bounds", "1",
     "--samples", "1000001"],
    # past the digit cap on n (OPERAND_DIGITS), which bounds the time of four squares
    ["decompose", "--squares", "4", "1" + "0" * 1000],
    ["rep-check", "1" + "0" * 1000],
    # past the cap on samples times bound tokens (MAX_SAMPLE_TOKENS): 80 tokens
    # a sample, over the 8 slots
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds", "x*x+abs(x)+1",
     "--samples", "1000000"],
    ["stability", "--output", "json", "--arity", "4", "--model", "power:c=2",
     "--bounds", "x*x+abs(x)+1", "--samples", "1000000"],
]


# sigma = -1 on the models the cases above cover only with sigma = +1
SIGN_CASES = [
    [command, *arity, "--model", model, *samples]
    for model in ("one,sigma=-1", "zero,sigma=-1", "signedpower:c=0,sigma=-1")
    for command, arity, samples in (
        ("verify", ("--arity", "2"), ("--samples", "200")),
        ("verify", ("--arity", "4"), ("--samples", "200")),
        ("classify", (), ()),
    )
]


def both_forms(cases):
    # options go before the positionals, which may follow "--"
    return [
        form for argv in cases for form in (argv, [argv[0], "--output", "json", *argv[1:]])
    ]


# stability runs whose diagonal verdict turns on the zero-coordinate bound
# slots at 0: f = -1 under bound 2 (bounded, not multiplicative), and a slot
# fed by a zero coordinate that is undefined at 0
LINE_CASES = [
    ["stability", "--arity", "2", "--model", "one,sigma=-1", "--bounds", "2",
     "--samples", "100"],
    ["stability", "--arity", "4", "--model", "one,sigma=-1", "--bounds", "2",
     "--samples", "100"],
    ["stability", "--arity", "2", "--model", "power:c=2", "--bounds", "1;1;1/abs(x);1",
     "--samples", "100"],
    ["stability", "--arity", "4", "--model", "power:c=2", "--bounds",
     "1;1;1/abs(x);1;1;1;1;1", "--samples", "100"],
    # -t^2 stays within the delta = 1e9 line (~31,623) on the +-2^-4..2^6
    # ladder but crosses it at |t| ~ 178, inside BOUNDED's +-2^k reach
    ["stability", "--arity", "2", "--model", "power:c=2,sigma=-1", "--bounds", "1e9",
     "--samples", "2000"],
]


INVOCATIONS = (
    both_forms(CASES) + USAGE_CASES + both_forms(SIGN_CASES) + both_forms(LINE_CASES)
)


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
def test_cli_bytes(argv, golden):
    assert run_cli(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        for argv in INVOCATIONS:
            fh.write(json.dumps(run_cli(argv)) + "\n")
