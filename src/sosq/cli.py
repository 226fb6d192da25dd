"""Command-line front end.

Subcommands cover exact composition (compose2/compose4), the closed-form
solvers (solve2/solve4), seeded equation verification (verify), stability
checks (stability), the diagonal classifier (classify), integer square
decompositions (decompose), and the representability cross-check
(rep-check; its brute-force route is skipped above BRUTE_FORCE_MAX = 10**12).

Every verification run is reproducible: reports depend only on the
arguments and the seed (flag --seed, else env var SOSQ_SEED, else 42), and
JSON output renders floats with 17 significant digits, so identical runs
produce identical bytes.

Exit codes: 0 on PASS/success, 1 on FAIL/violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import jsonfmt
from .exprs import ExpressionError
from .identities import IntPair, IntQuad, compose_two, compose_four, norm
from .sampling import UniformSampler
from .solutions import (
    Arity,
    MultiplicativeFamily,
    SignumMap,
    SolutionModel,
    verify_equation_two,
    verify_equation_four,
)
from .stability import (
    BoundSpec,
    DEFAULT_GROWTH_THRESHOLD,
    DEFAULT_MULT_TOL,
    classify_diagonal,
    run_stability,
)
from .systems import ResidualExceededError, solve_two, solve_four
from .sumsquares import (
    factorize,
    four_square_decompose,
    is_sum_of_two_squares,
    two_square_brute_force,
    two_square_decompose,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 10000
# rep-check's brute-force cross-check takes O(sqrt n) steps; above this n it
# is skipped and the witness comes from the factorization route instead
BRUTE_FORCE_MAX = 10**12


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


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def parse_model_spec(spec: str, arity: Arity) -> SolutionModel:
    """Parse `power:c=<real>`, `signedpower:c=<real>`, `one`, or `zero`,
    optionally followed by `,sigma=-1` for the constant negative sign map."""
    head, *options = [part.strip() for part in spec.split(",")]
    sigma = SignumMap.constant_plus()
    for option in options:
        if option == "sigma=-1":
            sigma = SignumMap.constant_minus()
        elif option in ("sigma=1", "sigma=+1"):
            sigma = SignumMap.constant_plus()
        else:
            raise UsageError(f"unrecognized model option {option!r}")

    if head == "one":
        family = MultiplicativeFamily.one()
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
    return SolutionModel(arity, family, sigma)


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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SOSQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"SOSQ_SEED={env!r} is not an integer")
    return DEFAULT_SEED


def _check_run_config(args) -> None:
    if getattr(args, "samples", 1) < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise UsageError(f"--tol must be > 0, got {tol!r}")


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
    p.add_argument("x1", type=int)
    p.add_argument("y1", type=int)
    p.add_argument("x2", type=int)
    p.add_argument("y2", type=int)

    p = sub.add_parser("compose4", parents=[common],
                       help="compose two integer quadruples exactly")
    for name in ("x1", "y1", "z1", "w1", "x2", "y2", "z2", "w2"):
        p.add_argument(name, type=int)

    p = sub.add_parser("solve2", parents=[common],
                       help="solve 2xy = u, x^2 - y^2 = v")
    p.add_argument("u", type=_finite_float)
    p.add_argument("v", type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--zero-eps", type=_finite_float, default=0.0,
                   help="treat |u| <= eps as structural zero (default 0)")

    p = sub.add_parser("solve4", parents=[common],
                       help="solve the four-variable composition system")
    for name in ("a", "b", "c", "d"):
        p.add_argument(name, type=_finite_float)
    p.add_argument("--tol", type=_finite_float, default=1e-6)
    p.add_argument("--zero-eps", type=_finite_float, default=0.0)

    p = sub.add_parser("verify", parents=[common],
                       help="verify a model against the functional equation")
    p.add_argument("--arity", type=int, choices=(2, 4), required=True)
    p.add_argument("--model", required=True,
                   help="model spec, e.g. power:c=2 or power:c=2,sigma=-1")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=_finite_float, default=1e-9)

    p = sub.add_parser("stability", parents=[common],
                       help="hypothesis/conclusion excess checks plus classification")
    p.add_argument("--arity", type=int, choices=(2, 4), required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bounds", required=True,
                   help="bound expressions, ';'-separated (one expression is "
                        "replicated to every slot)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--growth-threshold", type=_finite_float,
                   default=DEFAULT_GROWTH_THRESHOLD)
    p.add_argument("--mult-tol", type=_finite_float, default=DEFAULT_MULT_TOL)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a model's first-axis restriction")
    p.add_argument("--model", required=True)
    p.add_argument("--growth-threshold", type=_finite_float,
                   default=DEFAULT_GROWTH_THRESHOLD)
    p.add_argument("--mult-tol", type=_finite_float, default=DEFAULT_MULT_TOL)

    p = sub.add_parser("decompose", parents=[common],
                       help="decompose n into 2 or 4 squares")
    p.add_argument("--squares", type=int, choices=(2, 4), required=True)
    p.add_argument("n", type=_nonneg_int)

    p = sub.add_parser("rep-check", parents=[common],
                       help="two-square representability: criterion vs brute force")
    p.add_argument("n", type=_nonneg_int)

    return parser


def _cmd_compose(args):
    two = args.command == "compose2"
    coords, point, compose = (
        ("xy", IntPair, compose_two) if two else ("xyzw", IntQuad, compose_four)
    )
    first = [getattr(args, f"{c}1") for c in coords]
    second = [getattr(args, f"{c}2") for c in coords]
    p1, p2 = point(*first), point(*second)
    result = compose(p1, p2)
    comps = [getattr(result, c) for c in coords]
    law_holds = norm(result) == norm(p1) * norm(p2)
    config = dict(zip(("p1", "p2") if two else ("q1", "q2"), (first, second)))
    detail = {
        "result": comps,
        "norm_product": norm(p1) * norm(p2),
        "norm_of_result": norm(result),
        "norm_law_holds": law_holds,
    }
    show = lambda values: f"({', '.join(map(str, values))})"
    head = f"{show(first)} o {show(second)} = " if two else "result: "
    human = f"{head}{show(comps)}\nnorm check: {norm(p1)} * {norm(p2)} = {norm(result)}"
    return config, detail, "PASS" if law_holds else "FAIL", human


def _cmd_solve(args):
    two = args.command == "solve2"
    names, unknowns, solve = (
        (("u", "v"), "(x, y)", solve_two) if two
        else (("a", "b", "c", "d"), "(x, y, z, w)", solve_four)
    )
    rhs = [getattr(args, name) for name in names]
    config = {**dict(zip(names, rhs)), "tol": args.tol, "zero_eps": args.zero_eps}
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
    seed = _resolve_seed(args)
    model = parse_model_spec(args.model, arity)
    f = model.as_function()
    sampler = UniformSampler(seed, args.samples)
    if arity is Arity.TWO:
        report = verify_equation_two(f, sampler, args.tol)
    else:
        report = verify_equation_four(f, sampler, args.tol)
    config = {
        "arity": args.arity,
        "model": args.model,
        "samples": args.samples,
        "seed": seed,
        "tol": args.tol,
        "low": sampler.low,
        "high": sampler.high,
    }
    human = (
        f"{report.verdict}: max relative residual {report.max_rel_residual:.3e} "
        f"(tol {args.tol:.1e}) over {args.samples} samples, seed {seed}\n"
        f"worst point: {report.worst_point}"
    )
    return config, report.to_dict(), report.verdict, human


def _cmd_stability(args):
    arity = Arity(args.arity)
    seed = _resolve_seed(args)
    model = parse_model_spec(args.model, arity)
    bounds = parse_bounds_spec(args.bounds, arity)
    f = model.as_function()
    report = run_stability(
        f, bounds,
        seed=seed, samples=args.samples, tol=args.tol,
        growth_threshold=args.growth_threshold, mult_tol=args.mult_tol,
    )
    config = {
        "arity": args.arity,
        "model": args.model,
        "bounds": args.bounds,
        "samples": args.samples,
        "seed": seed,
        "tol": args.tol,
        "growth_threshold": args.growth_threshold,
        "mult_tol": args.mult_tol,
    }
    verdict = "PASS" if report.passed else "FAIL"
    human = (
        f"{verdict}: hypothesis excess {report.hypothesis_max_violation:.3e}, "
        f"conclusion excess {report.conclusion_max_violation:.3e} "
        f"(tol {args.tol:.1e})\n"
        f"diagonal classification: {report.diagonal_classification}"
    )
    return config, report.to_dict(), verdict, human


def _cmd_classify(args):
    model = parse_model_spec(args.model, Arity.TWO)
    f = model.as_function()
    report = classify_diagonal(
        lambda t: f(t, 0.0),
        growth_threshold=args.growth_threshold,
        mult_tol=args.mult_tol,
    )
    config = {
        "model": args.model,
        "growth_threshold": args.growth_threshold,
        "mult_tol": args.mult_tol,
    }
    detail = {
        "classification": report.verdict.value,
        "max_mult_residual": report.max_mult_residual,
        "worst_pair": list(report.worst_pair) if report.worst_pair else None,
        "sup_abs": report.sup_abs,
        "sup_at": report.sup_at,
        "decades": report.decades,
        "growth_threshold": report.growth_threshold,
        "mult_tol": report.mult_tol,
    }
    verdict = report.verdict.value
    human = (
        f"{verdict}: max multiplicativity residual {report.max_mult_residual:.3e}, "
        f"sup |m| = {report.sup_abs:.6g} at {report.sup_at}"
    )
    return config, detail, verdict, human


def _cmd_decompose(args):
    config = {"squares": args.squares, "n": args.n}
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
    config = {"n": n}
    fac = factorize(n)
    criterion = is_sum_of_two_squares(n, factorization=fac)
    if n <= BRUTE_FORCE_MAX:
        witness = two_square_brute_force(n)
        brute_force = witness is not None
        route = "brute force"
    else:
        rep = two_square_decompose(n, factorization=fac)
        witness = rep.components if rep is not None else None
        brute_force = None
        route = "decomposition"
    agree = criterion == (witness is not None) and (
        witness is None or sum(c * c for c in witness) == n
    )
    detail = {
        "criterion": criterion,
        "brute_force": brute_force,
        "witness": list(witness) if witness else None,
        "factors": [[p, e] for p, e in fac.factors],
        "agree": agree,
    }
    verdict = "PASS" if agree else "FAIL"
    text = "representable" if criterion else "not representable"
    human = f"{verdict}: {n} is {text}; criterion and {route} agree: {agree}"
    if brute_force is None:
        human += f" (brute force skipped above {BRUTE_FORCE_MAX})"
    if witness:
        human += f"\nwitness: {n} = {witness[0]}^2 + {witness[1]}^2"
    return config, detail, verdict, human


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        _check_run_config(args)
        config, result, verdict, human = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.output == "json":
        text = jsonfmt.dumps(
            {"command": args.command, "config": config, "result": result,
             "verdict": verdict}
        )
    else:
        text = human
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return _VERDICT_EXIT.get(verdict, EXIT_FAIL)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
