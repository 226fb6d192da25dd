import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sosq import cli, sumsquares
from sosq.cli import main, parse_model_spec, UsageError
from sosq.solutions import Arity, FamilyKind, MultiplicativeFamily
from test_cli_golden import CASES, SIGN_CASES


# every model spec the golden records run, and two whose diagonal -|t|^c
# grows without being multiplicative
CLASSIFY_MODELS = list(dict.fromkeys(
    [argv[argv.index("--model") + 1] for argv in CASES + SIGN_CASES if "--model" in argv]
    + ["power:c=2,sigma=-1", "power:c=0.5,sigma=-1"]
))


def run_json(capsys, *argv):
    code = main([*argv, "--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestComposeCommands:
    def test_compose2(self, capsys):
        code, report, _ = run_json(capsys, "compose2", "1", "2", "2", "1")
        assert code == 0
        assert report["command"] == "compose2"
        assert report["result"]["result"] == [4, -3]
        assert report["result"]["norm_law_holds"] is True
        assert report["verdict"] == "PASS"

    def test_compose2_big_integers(self, capsys):
        n = str(10**40)
        code, report, _ = run_json(capsys, "compose2", n, "1", n, "1")
        assert code == 0
        assert report["result"]["norm_of_result"] == (10**80 + 1) ** 2

    def test_compose4(self, capsys):
        code, report, _ = run_json(
            capsys, "compose4", "1", "1", "1", "1", "1", "1", "1", "1"
        )
        assert code == 0
        assert report["result"]["result"] == [4, 0, 0, 0]

    @pytest.mark.parametrize("output", ["human", "json"])
    @pytest.mark.parametrize("command,names", [("compose2", "xy"), ("compose4", "xyzw")])
    def test_operands_at_the_digit_cap(self, capsys, command, names, output):
        # every norm printed stays under the 4300-digit int-to-str limit
        big = 10**cli.OPERAND_DIGITS - 1
        code = main([command, "--output", output] + [str(big)] * 2 * len(names))
        out = capsys.readouterr().out
        assert code == 0
        norm = len(names) * big * big
        if output == "json":
            assert json.loads(out)["result"]["norm_of_result"] == norm * norm
        else:
            assert out.endswith(f" = {norm * norm}\n")

    @pytest.mark.parametrize("output", ["human", "json"])
    @pytest.mark.parametrize(
        "command,count,last", [("compose2", 4, "y2"), ("compose4", 8, "w2")]
    )
    def test_operand_past_the_digit_cap(self, capsys, command, count, last, output):
        operands = ["1"] * (count - 1) + ["9" * (cli.OPERAND_DIGITS + 1)]
        assert main([command, "--output", output, *operands]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {last}: more than {cli.OPERAND_DIGITS} digits" in captured.err
        assert "integer string conversion" not in captured.err


class TestSolveCommands:
    def test_solve2(self, capsys):
        code, report, _ = run_json(capsys, "solve2", "0", "4")
        assert code == 0
        assert report["result"]["solution"] == [2.0, 0.0]
        assert report["result"]["case_label"] == "U0_VPOS"

    def test_solve4_case_label_and_alpha(self, capsys):
        code, report, _ = run_json(capsys, "solve4", "0", "0", "0", "1")
        assert code == 0
        assert report["result"]["case_label"] == "D"
        assert report["result"]["alpha"] == 0.0

    def test_solve2_rejects_nan(self, capsys):
        assert main(["solve2", "nan", "1"]) == 2

    def test_solve2_rejects_inf(self, capsys):
        assert main(["solve2", "1", "inf"]) == 2


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--arity", "2", "--model", "power:c=2",
            "--samples", "1000", "--seed", "7",
        )
        assert code == 0
        assert report["verdict"] == "PASS"
        assert report["config"]["seed"] == 7

    def test_negative_sigma_fails_verification(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--arity", "2", "--model", "power:c=2,sigma=-1",
            "--samples", "200",
        )
        assert code == 1
        assert report["verdict"] == "FAIL"

    @pytest.mark.parametrize("arity", ["2", "4"])
    @pytest.mark.parametrize("model", ["power:c=400", "signedpower:c=400"])
    def test_overflowing_model_fails_with_reason(self, capsys, arity, model):
        code, report, _ = run_json(
            capsys, "verify", "--arity", arity, "--model", model, "--samples", "10",
        )
        assert code == 1
        assert report["verdict"] == "FAIL"
        assert report["result"]["max_rel_residual"] == math.inf
        assert report["result"]["failure_reason"].startswith("non-finite value")

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "--arity", "4", "--model", "power:c=3",
                "--samples", "300", "--seed", "11")
        _, _, out1 = run_json(capsys, *args)
        _, _, out2 = run_json(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["verify", "--arity", "2", "--model", "one", "--samples", "10",
                     "--output", "json", "--out", str(target)])
        assert code == 0
        on_disk = target.read_text()
        assert json.loads(on_disk)["verdict"] == "PASS"
        assert on_disk.rstrip("\n") == capsys.readouterr().out.rstrip("\n")

    @pytest.mark.parametrize("output", ["human", "json"])
    def test_unwritable_out_path_is_usage_error(self, capsys, tmp_path, output):
        target = tmp_path / "missing" / "report.json"
        code = main(["verify", "--arity", "2", "--model", "power:c=2", "--samples", "3",
                     "--output", output, "--out", str(target)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out  # the report itself still reaches stdout
        assert err == f"error: cannot write {str(target)!r}: No such file or directory\n"
        assert not target.exists()

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SOSQ_SEED", "123")
        _, report, _ = run_json(
            capsys, "verify", "--arity", "2", "--model", "one", "--samples", "10"
        )
        assert report["config"]["seed"] == 123

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SOSQ_SEED", "123")
        _, report, _ = run_json(
            capsys, "verify", "--arity", "2", "--model", "one",
            "--samples", "10", "--seed", "9",
        )
        assert report["config"]["seed"] == 9


class TestStabilityCommand:
    def test_norm_model_zero_bounds(self, capsys):
        code, report, _ = run_json(
            capsys, "stability", "--arity", "2", "--model", "power:c=2",
            "--bounds", "0", "--samples", "2000",
        )
        assert code == 0
        assert report["result"]["diagonal_classification"] == "MULTIPLICATIVE"

    def test_expression_bounds(self, capsys):
        code, report, _ = run_json(
            capsys, "stability", "--arity", "4", "--model", "zero",
            "--bounds", "min(1/4, abs(x))", "--samples", "500",
        )
        assert code == 0

    def test_full_slot_list(self, capsys):
        bounds = ";".join(["1"] * 4)
        code, _, _ = run_json(
            capsys, "stability", "--arity", "2", "--model", "one",
            "--bounds", bounds, "--samples", "100",
        )
        assert code == 0

    def test_wrong_slot_count(self, capsys):
        assert main(["stability", "--arity", "2", "--model", "one",
                     "--bounds", "1;2;3"]) == 2

    def test_bad_expression_is_usage_error(self, capsys):
        assert main(["stability", "--arity", "2", "--model", "one",
                     "--bounds", "min(1"]) == 2
        assert "'<end>'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds", ["-1", "1e308*10-1e308*10", "pow(x,0.5)", "x/0", "pow(10,400)"]
    )
    def test_invalid_bound_value_is_usage_error(self, capsys, bounds):
        # negative, NaN, complex, raising and overflowing bounds
        assert main(["stability", "--arity", "2", "--model", "power:c=2",
                     "--bounds", bounds, "--samples", "10"]) == 2
        assert "probe" in capsys.readouterr().err

    @pytest.mark.parametrize("arity", ["2", "4"])
    @pytest.mark.parametrize("model", ["power:c=400", "signedpower:c=400"])
    def test_overflowing_model_fails(self, capsys, arity, model):
        # both sides overflow on some samples (inf - inf is NaN), which
        # must not leave the excess at zero
        code, report, _ = run_json(
            capsys, "stability", "--arity", arity, "--model", model,
            "--bounds", "1", "--samples", "10",
        )
        assert code == 1
        assert report["verdict"] == "FAIL"
        assert report["result"]["hypothesis_max_violation"] == math.inf
        assert report["result"]["conclusion_max_violation"] == math.inf
        assert report["result"]["evidence"]["hypothesis_defect"] == math.inf

    def test_unknown_name_reported(self, capsys):
        assert main(["stability", "--arity", "2", "--model", "one",
                     "--bounds", "sin(x)"]) == 2
        assert "'sin'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["stability", "--arity", "2", "--model", "one", "--bounds", "1"],
         ["classify", "--model", "one"]],
        ids=lambda argv: argv[0],
    )
    def test_growth_threshold_is_not_an_option(self, capsys, argv):
        # the BOUNDED line is derived from --bounds, and classify's from delta = 0
        assert main([*argv, "--growth-threshold", "5"]) == 2
        assert "unrecognized arguments: --growth-threshold 5" in capsys.readouterr().err


class TestClassifyCommand:
    def test_multiplicative(self, capsys):
        code, report, _ = run_json(capsys, "classify", "--model", "power:c=2")
        assert code == 0
        assert report["verdict"] == "MULTIPLICATIVE"

    def test_bounded(self, capsys):
        code, report, _ = run_json(capsys, "classify", "--model", "zero")
        assert code == 0  # ZERO classifies as multiplicative (tie-break)
        assert report["verdict"] == "MULTIPLICATIVE"

    def test_bounded_via_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "classify", "--model", "power:c=2", "--mult-tol", "0"
        )
        # residual is exactly 0 on the power-of-two ladder, still passes
        assert report["verdict"] == "MULTIPLICATIVE"

    @pytest.mark.parametrize("model", CLASSIFY_MODELS)
    def test_equals_stability_at_bounds_zero(self, capsys, model):
        # one rule: classify is the diagonal verdict of stability at delta = 0
        code, report, _ = run_json(capsys, "classify", "--model", model)
        _, stability, _ = run_json(
            capsys, "stability", "--arity", "2", "--model", model, "--bounds", "0",
            "--samples", "1",
        )
        result = list(report["result"].items())
        evidence = list(stability["result"]["evidence"].items())
        assert result[0] == ("classification", stability["result"]["diagonal_classification"])
        assert result[1:] == evidence[-len(result) + 1:]
        assert result[1] == ("delta", 0.0)
        assert code == (0 if report["verdict"] != "INCONCLUSIVE" else 1)


class TestDecomposeCommands:
    def test_two_squares(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--squares", "2", "65")
        assert code == 0
        a, b = report["result"]["components"]
        assert a * a + b * b == 65

    def test_two_squares_unrepresentable(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--squares", "2", "21")
        assert code == 1
        assert report["result"]["representable"] is False
        assert report["verdict"] == "FAIL"

    def test_two_squares_human_message(self, capsys):
        code = main(["decompose", "--squares", "2", "21"])
        assert code == 1
        assert "not representable" in capsys.readouterr().out

    def test_four_squares(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--squares", "4", "7")
        assert code == 0
        assert report["result"]["components"] == [2, 1, 1, 1]
        assert report["result"]["squared_sum"] == 7

    def test_four_squares_zero(self, capsys):
        code, report, _ = run_json(capsys, "decompose", "--squares", "4", "0")
        assert code == 0

    def test_two_squares_zero_rejected(self, capsys):
        assert main(["decompose", "--squares", "2", "0"]) == 2

    def test_negative_rejected(self, capsys):
        assert main(["decompose", "--squares", "4", "-3"]) == 2


class TestRepCheck:
    def test_representable(self, capsys):
        code, report, _ = run_json(capsys, "rep-check", "45")
        assert code == 0
        assert report["result"]["criterion"] is True
        assert report["result"]["agree"] is True
        a, b = report["result"]["witness"]
        assert a * a + b * b == 45

    def test_unrepresentable(self, capsys):
        code, report, _ = run_json(capsys, "rep-check", "21")
        assert code == 0  # the certificate checks, so the answer passes
        assert report["result"]["criterion"] is False
        assert report["result"]["witness"] is None

    @pytest.mark.parametrize("n, representable", [(2**64, True), (3 * 2**64, False)])
    def test_large_n_skips_brute_force(self, capsys, n, representable):
        # a brute-force search would take ~3e9 steps here
        code, report, out = run_json(capsys, "rep-check", str(n))
        assert code == 0
        result = report["result"]
        assert result["criterion"] is representable
        assert result["agree"] is True
        if representable:
            a, b = result["witness"]
            assert a * a + b * b == n
        else:
            assert result["witness"] is None

    @pytest.mark.parametrize(
        "n, certificate", [(21, [3, 1]), (1323, [3, 3]), (3 * 2**64, [3, 1])], ids=str
    )
    def test_certificate(self, capsys, n, certificate):
        # the first prime 3 mod 4 of odd exponent, here 3, in 1323 = 3^3 * 7^2
        code, report, _ = run_json(capsys, "rep-check", str(n))
        assert code == 0
        assert report["result"]["certificate"] == certificate
        q, e = certificate
        assert n % q**e == 0 and n % q ** (e + 1) != 0
        assert main(["rep-check", str(n)]) == 0
        assert capsys.readouterr().out.endswith(
            f"\ncertificate: {q}^{e} divides {n} and {q}^{e + 1} does not; "
            f"{q} is a prime = 3 mod 4\n"
        )

    @pytest.mark.parametrize("n", [45, 50, 2**64])
    def test_representable_has_no_certificate(self, capsys, n):
        _, report, _ = run_json(capsys, "rep-check", str(n))
        assert report["result"]["certificate"] is None
        assert "brute_force" not in report["result"]

    def test_wrong_witness_fails(self, capsys, monkeypatch):
        # an answer that does not check is reported as FAIL, exit 1
        wrong = sumsquares.SquareRep(45, (6, 2))
        monkeypatch.setattr(cli, "_two_squares_from", lambda n, factors: wrong)
        code, report, _ = run_json(capsys, "rep-check", "45")
        assert code == 1
        assert report["result"]["agree"] is False
        assert report["verdict"] == "FAIL"

    def test_wrong_certificate_fails(self, capsys, monkeypatch):
        # 3^3 does not divide 21, so a factorization claiming it fails the check
        wrong = sumsquares.Factorization(21, ((3, 3),))
        monkeypatch.setattr(cli, "factorize", lambda n: wrong)
        code, report, _ = run_json(capsys, "rep-check", "21")
        assert code == 1
        assert report["result"]["certificate"] == [3, 3]
        assert report["result"]["agree"] is False

    # 999953 * 999961 is representable and wheel-bound: a second
    # factoring of it would cost as much as the first
    @pytest.mark.parametrize("n", ["45", "21", str(2**64), str(3 * 2**64), "999914001833"])
    def test_factors_n_once(self, capsys, monkeypatch, n):
        calls = []
        real = sumsquares.factorize

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sumsquares, "factorize", counted)
        monkeypatch.setattr(cli, "factorize", counted)
        # the decompositions and the criterion factor through _prime_powers
        generated = []
        real_powers = sumsquares._prime_powers

        def generated_counted(m):
            generated.append(m)
            return real_powers(m)

        monkeypatch.setattr(sumsquares, "_prime_powers", generated_counted)
        code, report, _ = run_json(capsys, "rep-check", n)
        assert code == 0 and report["result"]["agree"] is True
        assert calls == [int(n)]
        assert generated == [int(n)]


class TestModelSpecParsing:
    def test_kinds(self):
        assert parse_model_spec("power:c=2", Arity.TWO).m.kind is FamilyKind.POWER
        assert parse_model_spec("signedpower:c=1.5", Arity.TWO).m.exponent == 1.5
        assert parse_model_spec("one", Arity.FOUR).m == MultiplicativeFamily.power(0.0)
        assert parse_model_spec("zero", Arity.TWO).m.kind is FamilyKind.ZERO

    def test_sigma_option(self):
        model = parse_model_spec("power:c=2,sigma=-1", Arity.TWO)
        assert model.sign == -1
        model = parse_model_spec("power:c=2,sigma=+1", Arity.TWO)
        assert model.sign == 1

    def test_same_spec_gives_equal_models(self):
        for spec in ("power:c=2,sigma=-1", "signedpower:c=1.5", "one,sigma=-1"):
            a, b = parse_model_spec(spec, Arity.TWO), parse_model_spec(spec, Arity.TWO)
            assert a == b and hash(a) == hash(b)
        assert parse_model_spec("one,sigma=-1", Arity.TWO) != parse_model_spec(
            "one", Arity.TWO
        )

    @pytest.mark.parametrize(
        "spec", ["power", "power:d=2", "power:c=abc", "power:c=inf",
                 "wibble", "one,sigma=0", "power:c=2,flip=1"]
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(UsageError):
            parse_model_spec(spec, Arity.TWO)

    def test_malformed_spec_exit_code(self, capsys):
        assert main(["verify", "--arity", "2", "--model", "power:c=abc"]) == 2
        assert "abc" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["verify", "--arity", "2"]) == 2

    def test_samples_must_be_positive(self, capsys):
        assert main(["verify", "--arity", "2", "--model", "one",
                     "--samples", "0"]) == 2

    def test_samples_up_to_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 5)
        argv = ["verify", "--arity", "2", "--model", "one", "--samples"]
        assert main([*argv, "5"]) == 0
        capsys.readouterr()
        assert main([*argv, "6"]) == 2
        assert capsys.readouterr().err == "error: --samples must be <= 5, got 6\n"

    def test_tol_must_be_positive(self, capsys):
        assert main(["verify", "--arity", "2", "--model", "one",
                     "--tol", "0"]) == 2
        assert main(["solve2", "1", "2", "--tol", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["classify", "--model", "power:c=2"], "--mult-tol"),
            (["stability", "--arity", "2", "--model", "power:c=1", "--bounds", "1",
              "--samples", "10"], "--mult-tol"),
        ],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_negative_classifier_option_is_usage_error(self, capsys, argv, option):
        # a negative tolerance can be met by no residual, so the
        # verdict would rest on the other test alone
        assert main([*argv, option, "-1"]) == 2
        assert capsys.readouterr().err == f"error: {option} must be >= 0, got -1.0\n"

    @pytest.mark.parametrize(
        "argv", [["solve2", "0", "4"], ["solve4", "1", "4", "1", "0"]], ids=lambda a: a[0]
    )
    def test_negative_zero_eps_is_usage_error(self, capsys, argv):
        # no input is within a negative eps of zero, not even 0
        assert main([*argv, "--zero-eps", "-1"]) == 2
        assert capsys.readouterr().err == "error: --zero-eps must be >= 0, got -1.0\n"

    @pytest.mark.parametrize(
        "argv", [["rep-check"], ["decompose", "--squares", "4"]], ids=lambda a: a[0]
    )
    def test_integer_past_the_str_digit_limit(self, capsys, argv):
        # int() refuses n for its length alone: the error says so, and does
        # not echo the digits; one digit fewer is accepted
        limit = sys.get_int_max_str_digits()
        assert main([*argv, "1" + "0" * limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument n: more than {limit} digits\n")
        assert len(captured.err) < 300
        assert main([*argv, "1" + "0" * (limit - 1)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("option", ["--seed", "--samples"])
    def test_option_past_the_str_digit_limit(self, capsys, option):
        limit = sys.get_int_max_str_digits()
        argv = ["verify", "--arity", "2", "--model", "one", option, "1" + "0" * limit]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error: argument {option}: more than {limit} digits\n"
        )
        assert len(captured.err) < 300

    def test_seed_variable_past_the_str_digit_limit(self, capsys, monkeypatch):
        # SOSQ_SEED gets the same reason, and echoes none of its digits
        limit = sys.get_int_max_str_digits()
        monkeypatch.setenv("SOSQ_SEED", "1" + "0" * limit)
        assert main(["verify", "--arity", "2", "--model", "one", "--samples", "10"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: SOSQ_SEED: more than {limit} digits\n"
        assert "not an integer" not in err and "0" * 10 not in err

    def test_zero_classifier_option_is_valid(self, capsys):
        assert main(["classify", "--model", "power:c=2", "--mult-tol", "0"]) == 0

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve2", "1", "2", "--tol"],
            ["solve2", "1", "2", "--zero-eps"],
            ["solve4", "1", "2", "3", "4", "--tol"],
            ["solve4", "1", "2", "3", "4", "--zero-eps"],
            ["verify", "--arity", "2", "--model", "one", "--tol"],
            ["stability", "--arity", "2", "--model", "one", "--bounds", "1", "--tol"],
            ["stability", "--arity", "2", "--model", "one", "--bounds", "1",
             "--mult-tol"],
            ["classify", "--model", "one", "--mult-tol"],
        ],
        ids=" ".join,
    )
    def test_non_finite_option_is_usage_error(self, capsys, argv, value):
        # a non-finite tolerance would turn any residual into a PASS
        assert main([*argv, value]) == 2
        assert f"{value!r} is not finite" in capsys.readouterr().err

    def test_json_parses_with_stdlib(self, capsys):
        _, report, out = run_json(
            capsys, "verify", "--arity", "2", "--model", "power:c=1",
            "--samples", "50",
        )
        # floats keep a marker so types survive the round trip
        assert isinstance(report["result"]["max_rel_residual"], float)
        assert isinstance(report["result"]["tol"], float)


class TestParserReuse:
    # a usage error first, then two subcommands, each after the other
    SEQUENCE = [
        ["verify", "--arity", "3", "--model", "one"],
        ["verify", "--arity", "2", "--model", "power:c=2", "--samples", "50",
         "--output", "json"],
        ["stability", "--arity", "4", "--model", "power:c=1,sigma=-1", "--bounds", "1",
         "--samples", "20"],
        ["verify", "--arity", "2", "--model", "power:c=2", "--samples", "50"],
        ["solve2", "--", "3", "-4"],
        ["classify", "--model", "zero", "--mult-tol", "-1"],
        ["frobnicate"],
        ["decompose", "--squares", "4", "2026", "--output", "json"],
    ]

    def test_calls_match_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.delenv("SOSQ_SEED", raising=False)

        def run(argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        built = cli._parser()
        reused = [run(argv) for argv in self.SEQUENCE]
        assert cli._parser() is built
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [2, 0, 1, 0, 0, 2, 2, 0]


class TestClosedStdout:
    """A reader that closes stdout early (`sosq ... | head`) changes neither
    the exit code nor --out, and leaves stderr clean."""

    # buffered, the report fails in the flush at exit; unbuffered, in print
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("model, code", [("power:c=2", 0), ("power:c=2,sigma=-1", 1)])
    def test_run_keeps_verdict_exit_code(self, model, code, unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sosq.cli", "verify", "--arity", "2",
                 "--model", model, "--samples", "10", "--output", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr

    def test_main_writes_out_after_failed_print(self, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        target = tmp_path / "report.txt"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["verify", "--arity", "2", "--model", "power:c=2,sigma=-1",
                     "--samples", "10", "--out", str(target)])
        assert code == 1
        assert target.read_text(encoding="utf-8").startswith("FAIL: ")
