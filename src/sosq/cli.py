"""Command-line front end.

Subcommands cover exact composition (compose2/compose4), the closed-form
solvers (solve2/solve4), seeded equation verification (verify), stability
checks (stability), the diagonal classifier (classify), integer square
decompositions (decompose), and the representability check (rep-check,
which proves its answer with a witness or a prime-power certificate).

Every run is reproducible: a report depends on its arguments alone (the
seed is --seed, 42 by default), its config is those arguments as parsed,
and JSON output renders floats with 17 significant digits, so identical
runs produce identical bytes.

Exit codes: 0 on PASS/success, 1 on FAIL/violation, 2 on usage errors
(including an --out path that cannot be written).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from . import jsonfmt
from .exprs import ExpressionError, _tokenize
from .identities import compose_two, compose_four, norm
from .sampling import HIGH, LOW, UniformSampler
from .solutions import (
    Arity,
    MultiplicativeFamily,
    SolutionModel,
    verify_equation_two,
    verify_equation_four,
)
from .stability import (
    BoundSpec,
    DEFAULT_MULT_TOL,
    classify_diagonal,
    run_stability,
)
from .systems import DEFAULT_TOL_FOUR, DEFAULT_TOL_TWO, ResidualExceededError
from .systems import solve_two, solve_four
from .sumsquares import (
    _two_squares_from,
    factorize,
    four_square_decompose,
    two_square_decompose,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10000
# the slowest sweep, stability --arity 4, takes ~6 s at this many samples on
# a shared 2-core host with short bounds, inside README's 10 s budget
MAX_SAMPLES = 10**6
# a bound's cost grows with its length, so stability takes --samples times
# the bound tokens summed over every slot up to this cap: the benchmark's
# arity-4 bounds (55 tokens) at MAX_SAMPLES fit; on the same host the
# costliest bounds measured, max(1,1) in every slot (48 tokens), took 7.6-9.2 s
# at MAX_SAMPLES, and eight ~999-token bounds 0.6-1.6 s at the cap
MAX_SAMPLE_TOKENS = 6 * 10**7
# compose operands of d digits give norms of at most 4d + 2 digits, which
# stays under Python's default 4300-digit limit on int-to-str conversion;
# the n of decompose and rep-check has the same cap, where four squares of
# a random n took at most 0.46 s over 30 n on a shared 2-core host
OPERAND_DIGITS = 1000


class UsageError(Exception):
    """Bad model/bound spec or argument combination; maps to exit code 2."""


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _integer(text: str, max_digits: int) -> int:
    """int(text), refusing more than max_digits digits (0: no cap)."""
    if max_digits and sum(ch.isdigit() for ch in text) > max_digits:
        raise argparse.ArgumentTypeError(f"more than {max_digits} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _operand(text: str) -> int:
    return _integer(text, OPERAND_DIGITS)


def _int(text: str) -> int:
    # int() refuses more digits than the int-to-str limit (none where it is 0
    # or, before Python 3.10.7, missing); the cap reports that reason
    # instead of "not an integer", and echoes none of the digits
    return _integer(text, getattr(sys, "get_int_max_str_digits", int)())


def _nonneg_operand(text: str) -> int:
    value = _operand(text)
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def parse_model_spec(spec: str, arity: Arity) -> SolutionModel:
    """Parse `power:c=<real>`, `signedpower:c=<real>`, `one`, or `zero`,
    optionally followed by `,sigma=-1` for the constant sign -1 (or
    `,sigma=+1`, the default +1)."""
    head, *options = [part.strip() for part in spec.split(",")]
    sign = 1
    for option in options:
        if option == "sigma=-1":
            sign = -1
        elif option in ("sigma=1", "sigma=+1"):
            sign = 1
        else:
            raise UsageError(f"unrecognized model option {option!r}")

    if head == "one":
        family = MultiplicativeFamily.power(0.0)
    elif head == "zero":
        family = MultiplicativeFamily.zero()
    else:
        kind, sep, param = head.partition(":")
        if kind not in ("power", "signedpower") or not sep:
            raise UsageError(f"unrecognized model kind {head!r}")
        name, eq, value = param.partition("=")
        if name != "c" or not eq:
            raise UsageError(f"expected c=<real> in model spec, got {param!r}")
        try:
            c = float(value)
        except ValueError:
            raise UsageError(f"bad exponent {value!r} in model spec")
        if not math.isfinite(c):
            raise UsageError(f"bad exponent {value!r} in model spec")
        family = (
            MultiplicativeFamily.power(c)
            if kind == "power"
            else MultiplicativeFamily.signed_power(c)
        )
    return SolutionModel(arity, family, sign)


def parse_bounds_spec(spec: str, arity: Arity) -> BoundSpec:
    """Semicolon-separated bound expressions: one for every slot, or exactly
    4 (arity 2) / 8 (arity 4) in slot order."""
    exprs = [part.strip() for part in spec.split(";")]
    if any(not part for part in exprs):
        raise UsageError("empty bound expression in --bounds")
    try:
        return BoundSpec.from_expressions(arity, exprs)
    except ExpressionError as exc:
        raise UsageError(f"bad bound expression: {exc}")
    except ValueError as exc:
        raise UsageError(str(exc))


def _bound_tokens(spec: str, arity: Arity) -> int:
    """The tokens of a valid --bounds spec, summed over its 2 * arity slots:
    one expression for every slot counts once per slot."""
    exprs = spec.split(";")
    # each token list ends with an end marker, no token of the source
    return sum(len(_tokenize(expr)) - 1 for expr in exprs) * (2 * arity // len(exprs))


def _check_run_config(args) -> None:
    samples = getattr(args, "samples", 1)
    if samples < 1:
        raise UsageError(f"--samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be <= {MAX_SAMPLES}, got {samples}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise UsageError(f"--tol must be > 0, got {tol!r}")
    for option in ("mult_tol", "zero_eps"):
        value = getattr(args, option, None)
        if value is not None and value < 0:
            flag = "--" + option.replace("_", "-")
            raise UsageError(f"{flag} must be >= 0, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosq",
        description="Square-composition identities, functional-equation "
        "verification, stability checks, and sum-of-squares decompositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", choices=("human", "json"), default="human",
        help="report format (default: human)",
    )
    common.add_argument("--out", metavar="PATH", help="also write the report to PATH")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose2", parents=[common],
                       help="compose two integer pairs exactly")
    for name in ("x1", "y1", "x2", "y2"):
        p.add_argument(name, type=_operand)

    p = sub.add_parser("compose4", parents=[common],
                       help="compose two integer quadruples exactly")
    for name in ("x1", "y1", "z1", "w1", "x2", "y2", "z2", "w2"):
        p.add_argument(name, type=_operand)

    p = sub.add_parser("solve2", parents=[common],
                       help="solve 2xy = u, x^2 - y^2 = v")
    p.add_argument("u", type=_finite_float)
    p.add_argument("v", type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_TWO)
    p.add_argument("--zero-eps", type=_finite_float, default=0.0,
                   help="treat |u| <= eps as structural zero (default 0)")

    p = sub.add_parser("solve4", parents=[common],
                       help="solve the four-variable composition system")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL_FOUR)
    p.add_argument("--zero-eps", type=_finite_float, default=0.0)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a model against the functional equation")
    p.add_argument("--arity", type=_int, choices=(2, 4), required=True)
    p.add_argument("--model", required=True,
                   help="model spec, e.g. power:c=2 or power:c=2,sigma=-1")
    p.add_argument("--samples", type=_int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_finite_float, default=1e-9)

    p = sub.add_parser("stability", parents=[common],
                       help="hypothesis/conclusion excess checks plus classification")
    p.add_argument("--arity", type=_int, choices=(2, 4), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", required=True,
                   help="bound expressions, ';'-separated (one expression is "
                        "replicated to every slot)")
    p.add_argument("--samples", type=_int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--mult-tol", type=_finite_float, default=DEFAULT_MULT_TOL)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a model's first-axis restriction")
    p.add_argument("--model", required=True)
    p.add_argument("--mult-tol", type=_finite_float, default=DEFAULT_MULT_TOL)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose n into 2 or 4 squares")
    p.add_argument("--squares", type=_int, choices=(2, 4), required=True)
    p.add_argument("n", type=_nonneg_operand)

    p = sub.add_parser("rep-check", parents=[common],
                       help="two-square representability, with a checked proof")
    p.add_argument("n", type=_nonneg_operand)

    return parser


def _config(args, **extra) -> dict:
    """A report's config: the parsed arguments in parser order, without the
    subcommand and the output options, then extra."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "output", "out")}
    return {**config, **extra}


def _cmd_compose(args):
    two = args.command == "compose2"
    coords, compose = ("xy", compose_two) if two else ("xyzw", compose_four)
    first = [getattr(args, f"{c}1") for c in coords]
    second = [getattr(args, f"{c}2") for c in coords]
    result = compose(first, second)
    law_holds = norm(result) == norm(first) * norm(second)
    config = dict(zip(("p1", "p2") if two else ("q1", "q2"), (first, second)))
    detail = {
        "result": result,
        "norm_product": norm(first) * norm(second),
        "norm_of_result": norm(result),
        "norm_law_holds": law_holds,
    }
    show = lambda values: f"({', '.join(map(str, values))})"
    head = f"{show(first)} o {show(second)} = " if two else "result: "
    human = (
        f"{head}{show(result)}\n"
        f"norm check: {norm(first)} * {norm(second)} = {norm(result)}"
    )
    return config, detail, "PASS" if law_holds else "FAIL", human


def _cmd_solve(args):
    two = args.command == "solve2"
    names, unknowns, solve = (
        (("u", "v"), "(x, y)", solve_two) if two
        else (("a", "b", "c", "d"), "(x, y, z, w)", solve_four)
    )
    rhs = [getattr(args, name) for name in names]
    config = _config(args)
    try:
        report = solve(*rhs, tol=args.tol, zero_eps=args.zero_eps)
    except ResidualExceededError as exc:
        return config, {"error": str(exc), "residual": exc.residual}, "FAIL", str(exc)
    human = (
        f"{unknowns} = {report.solution!r}   case {report.case_label.value}\n"
        f"residual {report.residual:.3e} (tol {report.tol:.1e})"
    )
    detail = {
        "solution": list(report.solution),
        "case_label": report.case_label.value,
        "residual": report.residual,
        "norm_residual": report.norm_residual,
        "tol": report.tol,
    }
    if report.alpha is not None:
        detail["alpha"] = report.alpha
    return config, detail, "PASS", human


def _cmd_verify(args):
    arity = Arity(args.arity)
    model = parse_model_spec(args.model, arity)
    verify = verify_equation_two if arity is Arity.TWO else verify_equation_four
    report = verify(model, UniformSampler(args.seed, args.samples), args.tol)
    human = (
        f"{report.verdict}: max relative residual {report.max_rel_residual:.3e} "
        f"(tol {args.tol:.1e}) over {args.samples} samples, seed {args.seed}\n"
        f"worst point: {report.worst_point}"
    )
    return _config(args, low=LOW, high=HIGH), report._asdict(), report.verdict, human


def _cmd_stability(args):
    arity = Arity(args.arity)
    model = parse_model_spec(args.model, arity)
    bounds = parse_bounds_spec(args.bounds, arity)
    tokens = _bound_tokens(args.bounds, arity)
    if args.samples * tokens > MAX_SAMPLE_TOKENS:
        raise UsageError(
            f"--samples times the bound tokens must be <= {MAX_SAMPLE_TOKENS}, "
            f"got {args.samples} * {tokens}"
        )
    report = run_stability(
        model, bounds, seed=args.seed, samples=args.samples, tol=args.tol,
        mult_tol=args.mult_tol,
    )
    verdict = "PASS" if report.passed else "FAIL"
    human = (
        f"{verdict}: hypothesis excess {report.hypothesis_max_violation:.3e}, "
        f"conclusion excess {report.conclusion_max_violation:.3e} "
        f"(tol {args.tol:.1e})\n"
        f"diagonal classification: {report.diagonal_classification}"
    )
    return _config(args), report._asdict(), verdict, human


def _cmd_classify(args):
    model = parse_model_spec(args.model, Arity.TWO)
    # at delta = 0: the diagonal verdict of stability --arity 2 --bounds 0
    report = classify_diagonal(lambda t: model(t, 0.0), mult_tol=args.mult_tol)
    detail = {"classification": report.verdict.value, **report.to_dict()}
    verdict = report.verdict.value
    human = (
        f"{verdict}: max multiplicativity residual {report.max_mult_residual:.3e}, "
        f"sup |m| = {report.sup_abs:.6g} at {report.sup_at}"
    )
    return _config(args), detail, verdict, human


def _cmd_decompose(args):
    config = _config(args)
    if args.squares == 2:
        if args.n < 1:
            raise UsageError("--squares 2 requires n >= 1")
        rep = two_square_decompose(args.n)
        if rep is None:
            return config, {"representable": False}, "FAIL", "not representable"
        a, b = rep.components
        detail = {
            "representable": True,
            "components": [a, b],
            "squared_sum": a * a + b * b,
        }
        return config, detail, "PASS", f"{args.n} = {a}^2 + {b}^2"
    rep = four_square_decompose(args.n)
    comps = list(rep.components)
    detail = {
        "components": comps,
        "squared_sum": sum(c * c for c in comps),
    }
    human = f"{args.n} = " + " + ".join(f"{c}^2" for c in comps)
    return config, detail, "PASS", human


def _cmd_rep_check(args):
    n = args.n
    if n < 1:
        raise UsageError("rep-check requires n >= 1")
    fac = factorize(n)
    # n is a sum of two squares iff no prime q = 3 mod 4 has odd exponent e;
    # factorize proves q prime, by trial division or, for a last factor
    # between 2**40 and 3.3e24, by Miller-Rabin to 13 bases, a proof there;
    # so q^e dividing n exactly proves n is none
    certificate = next(([p, e] for p, e in fac.factors if p % 4 == 3 and e % 2), None)
    criterion = certificate is None
    witness = None
    if criterion:
        a, b = witness = list(_two_squares_from(n, fac.factors).components)
        agree = a * a + b * b == n
        text, route, proof = "representable", "witness", f"{n} = {a}^2 + {b}^2"
    else:
        q, e = certificate
        agree = q % 4 == 3 and e % 2 == 1 and n % q**e == 0 and n % q ** (e + 1) != 0
        text, route = "not representable", "certificate"
        proof = f"{q}^{e} divides {n} and {q}^{e + 1} does not; {q} is a prime = 3 mod 4"
    detail = {
        "criterion": criterion,
        "witness": witness,
        "certificate": certificate,
        "factors": [[p, e] for p, e in fac.factors],
        "agree": agree,
    }
    verdict = "PASS" if agree else "FAIL"
    human = (
        f"{verdict}: {n} is {text}; criterion and {route} agree: {agree}\n{route}: {proof}"
    )
    return _config(args), detail, verdict, human


_HANDLERS = {
    "compose2": _cmd_compose,
    "compose4": _cmd_compose,
    "solve2": _cmd_solve,
    "solve4": _cmd_solve,
    "verify": _cmd_verify,
    "stability": _cmd_stability,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "rep-check": _cmd_rep_check,
}

_VERDICT_EXIT = {"PASS": EXIT_OK, "BOUNDED": EXIT_OK, "MULTIPLICATIVE": EXIT_OK}


# parsing keeps no state in the parser, so one per process serves every
# main() call; built on the first call, so importing sosq.cli stays cheap
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        _check_run_config(args)
        config, result, verdict, human = _HANDLERS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.output == "json":
        text = jsonfmt.dumps(
            {"command": args.command, "config": config, "result": result,
             "verdict": verdict}
        )
    else:
        text = human
    # a reader that closes stdout early (`sosq ... | head`) changes
    # neither --out nor the exit code
    with contextlib.suppress(BrokenPipeError):
        print(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_USAGE
    return _VERDICT_EXIT.get(verdict, EXIT_FAIL)


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit cannot fail again
        # and print "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
