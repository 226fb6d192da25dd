import json
import math

import pytest

from sosq import cli, sumsquares
from sosq.cli import main, parse_model_spec, UsageError
from sosq.solutions import Arity, FamilyKind


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
        assert code == 0  # routes agree, so the cross-check passes
        assert report["result"]["criterion"] is False
        assert report["result"]["witness"] is None

    @pytest.mark.parametrize("n, representable", [(2**64, True), (3 * 2**64, False)])
    def test_large_n_skips_brute_force(self, capsys, n, representable):
        # the brute force would take ~3e9 steps here
        code, report, out = run_json(capsys, "rep-check", str(n))
        assert code == 0
        result = report["result"]
        assert result["brute_force"] is None
        assert result["criterion"] is representable
        assert result["agree"] is True
        if representable:
            a, b = result["witness"]
            assert a * a + b * b == n
        else:
            assert result["witness"] is None

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        # 50 = 7^2 + 1^2 by brute force, 5^2 + 5^2 by the fold
        monkeypatch.setattr(cli, "BRUTE_FORCE_MAX", 50)
        _, at_cap, _ = run_json(capsys, "rep-check", "50")
        assert at_cap["result"]["brute_force"] is True
        assert at_cap["result"]["witness"] == [7, 1]
        monkeypatch.setattr(cli, "BRUTE_FORCE_MAX", 49)
        _, above_cap, _ = run_json(capsys, "rep-check", "50")
        assert above_cap["result"]["brute_force"] is None
        assert above_cap["result"]["witness"] == [5, 5]
        assert main(["rep-check", "50"]) == 0
        assert "brute force skipped above 49" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["45", "21", str(2**64), str(3 * 2**64)])
    def test_factors_n_once(self, capsys, monkeypatch, n):
        calls = []
        real = sumsquares.factorize

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sumsquares, "factorize", counted)
        monkeypatch.setattr(cli, "factorize", counted)
        code, report, _ = run_json(capsys, "rep-check", n)
        assert code == 0 and report["result"]["agree"] is True
        assert calls == [int(n)]

    def test_foreign_factorization_rejected(self):
        with pytest.raises(ValueError, match="factorization is of 45, not of 21"):
            sumsquares.is_sum_of_two_squares(21, factorization=sumsquares.factorize(45))
        with pytest.raises(ValueError, match="factorization is of 45, not of 21"):
            sumsquares.two_square_decompose(21, factorization=sumsquares.factorize(45))


class TestModelSpecParsing:
    def test_kinds(self):
        assert parse_model_spec("power:c=2", Arity.TWO).m.kind is FamilyKind.POWER
        assert parse_model_spec("signedpower:c=1.5", Arity.TWO).m.exponent == 1.5
        assert parse_model_spec("one", Arity.FOUR).m.kind is FamilyKind.CONSTANT_ONE
        assert parse_model_spec("zero", Arity.TWO).m.kind is FamilyKind.ZERO

    def test_sigma_option(self):
        model = parse_model_spec("power:c=2,sigma=-1", Arity.TWO)
        assert model.sigma((1.0, 1.0)) == -1
        model = parse_model_spec("power:c=2,sigma=+1", Arity.TWO)
        assert model.sigma((1.0, 1.0)) == 1

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

    def test_tol_must_be_positive(self, capsys):
        assert main(["verify", "--arity", "2", "--model", "one",
                     "--tol", "0"]) == 2
        assert main(["solve2", "1", "2", "--tol", "-1"]) == 2

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
             "--growth-threshold"],
            ["stability", "--arity", "2", "--model", "one", "--bounds", "1",
             "--mult-tol"],
            ["classify", "--model", "one", "--growth-threshold"],
            ["classify", "--model", "one", "--mult-tol"],
        ],
        ids=" ".join,
    )
    def test_non_finite_option_is_usage_error(self, capsys, argv, value):
        # a non-finite tolerance or threshold would turn any residual into a PASS
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
