import json
import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import FixedSampler, builtin_families
from sosq import jsonfmt
from sosq.sampling import UniformSampler
from sosq.solutions import (
    Arity,
    MultiplicativeFamily,
    SignumMap,
    SolutionModel,
    default_probes,
    evaluate,
    extract_structure,
    probe_ladder,
    verify_equation_two,
    verify_equation_four,
)

nonzero_float = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


def model_two(family, sigma=None):
    return SolutionModel(Arity.TWO, family, sigma or SignumMap())


def model_four(family, sigma=None):
    return SolutionModel(Arity.FOUR, family, sigma or SignumMap())


class TestEvaluate:
    def test_square_norm(self):
        m = model_two(MultiplicativeFamily.power(2))
        assert evaluate(m, (3, 4)) == 25.0

    def test_zero_family(self):
        m = model_four(MultiplicativeFamily.zero())
        assert evaluate(m, (1, 2, 3, 4)) == 0.0

    def test_power_zero_is_constant_one(self):
        m = model_two(MultiplicativeFamily.power(0))
        assert evaluate(m, (7, -2)) == 1.0
        assert evaluate(m, (0, 0)) == 1.0

    def test_negative_sigma(self):
        m = model_two(MultiplicativeFamily.power(1), SignumMap.constant_minus())
        assert evaluate(m, (3, 4)) == -5.0

    def test_arity_mismatch(self):
        m = model_two(MultiplicativeFamily.one())
        with pytest.raises(ValueError):
            evaluate(m, (1, 2, 3))

    def test_non_finite_point(self):
        m = model_two(MultiplicativeFamily.one())
        with pytest.raises(ValueError):
            evaluate(m, (math.nan, 0.0))

    def test_signum_range_enforced(self):
        bad = SignumMap(lambda p: 2)
        m = model_two(MultiplicativeFamily.one(), bad)
        with pytest.raises(ValueError):
            evaluate(m, (1, 1))

    def test_power_past_double_range_is_infinite(self):
        assert MultiplicativeFamily.power(400)(10.0) == math.inf
        assert MultiplicativeFamily.power(-400)(1e-10) == math.inf
        assert MultiplicativeFamily.signed_power(400)(10.0) == math.inf
        assert MultiplicativeFamily.signed_power(400)(-10.0) == -math.inf

    def test_negative_power_at_zero_flagged(self):
        fam = MultiplicativeFamily.power(-1)
        assert fam(0.0) == 0.0


class TestMultiplicativity:
    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    @given(s=nonzero_float, t=nonzero_float)
    def test_product_law(self, family, s, t):
        lhs = family(s) * family(t)
        rhs = family(s * t)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))

    def test_seeded_pairs_all_families(self):
        for family in builtin_families():
            for s, t in UniformSampler(13, 10000, -1000, 1000).tuples(2):
                lhs = family(s) * family(t)
                rhs = family(s * t)
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


class TestVerifyEquation:
    def test_norm_square_passes(self):
        m = model_two(MultiplicativeFamily.power(2))
        report = verify_equation_two(m.as_function(), UniformSampler(7, 10000), 1e-9)
        assert report.verdict == "PASS"
        assert report.sample_count == 10000 and report.seed == 7

    def test_constant_one_residual_zero(self):
        report = verify_equation_two(lambda x, y: 1.0, UniformSampler(7, 1000), 1e-9)
        assert report.verdict == "PASS"
        assert report.max_abs_residual == 0.0

    def test_sum_fails_with_worst_point(self):
        # at p1 = p2 = (1, 1): f*f = 4 while the composed point (2, 0) gives 2
        report = verify_equation_two(
            lambda x, y: x + y, FixedSampler(((1.0, 1.0, 1.0, 1.0),)), 1e-9
        )
        assert report.verdict == "FAIL"
        assert report.max_abs_residual == 2.0
        assert report.worst_point == (1.0, 1.0, 1.0, 1.0)

    def test_sum_fails_on_random_sweep(self):
        report = verify_equation_two(lambda x, y: x + y, UniformSampler(7, 1000), 1e-9)
        assert report.verdict == "FAIL"
        assert report.max_abs_residual > 0

    def test_four_variable_norm_passes(self):
        m = model_four(MultiplicativeFamily.power(2))
        report = verify_equation_four(m.as_function(), UniformSampler(7, 10000), 1e-9)
        assert report.verdict == "PASS"

    def test_four_variable_constant_passes(self):
        report = verify_equation_four(
            lambda x, y, z, w: 1.0, UniformSampler(7, 1000), 1e-9
        )
        assert report.verdict == "PASS" and report.max_abs_residual == 0.0

    def test_first_coordinate_fails(self):
        # p1 = p2 = (0,1,0,0): f*f = 0 but the composed point (1,0,0,0) gives 1
        report = verify_equation_four(
            lambda x, y, z, w: x,
            FixedSampler(((0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),)),
            1e-9,
        )
        assert report.verdict == "FAIL"
        assert report.max_abs_residual == 1.0

    def test_non_finite_value_reported(self):
        def f(x, y):
            return math.inf if x > 0 else 1.0

        report = verify_equation_two(f, FixedSampler(((1.0, 0.0, 1.0, 0.0),)), 1e-9)
        assert report.verdict == "FAIL"
        assert report.failure_reason is not None
        assert report.worst_point == (1.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    def test_synthesis_round_trip_two(self, family):
        m = model_two(family)
        report = verify_equation_two(m.as_function(), UniformSampler(19, 10000), 1e-9)
        assert report.verdict == "PASS", (family, report.max_rel_residual)

    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    def test_synthesis_round_trip_four(self, family):
        m = model_four(family)
        report = verify_equation_four(m.as_function(), UniformSampler(19, 10000), 1e-9)
        assert report.verdict == "PASS", (family, report.max_rel_residual)

    def test_diagonal_consequence(self):
        # any verified solution satisfies f(x,y)^2 = f(x^2+y^2, 0)
        f = model_two(MultiplicativeFamily.power(2)).as_function()
        for x, y in UniformSampler(29, 2000).tuples(2):
            lhs = f(x, y) ** 2
            rhs = f(x * x + y * y, 0.0)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


class TestReportSerialization:
    def test_json_round_trip(self):
        m = model_two(MultiplicativeFamily.power(3))
        report = verify_equation_two(m.as_function(), UniformSampler(5, 100), 1e-9)
        assert json.loads(jsonfmt.dumps(report.to_dict())) == report.to_dict()

    def test_fail_report_round_trip(self):
        report = verify_equation_two(
            lambda x, y: x + y, FixedSampler(((1.0, 1.0, 1.0, 1.0),)), 1e-9
        )
        assert json.loads(jsonfmt.dumps(report.to_dict())) == report.to_dict()


class TestStructureExtraction:
    def test_default_probes_two_is_the_axis_grid(self):
        axis = probe_ladder() + (0.0,)
        assert default_probes(2) == tuple(product(axis, axis))

    def test_default_probes_four(self):
        probes = default_probes(4)
        assert len(probes) == len(set(probes)) == 3015
        for p in probes:
            assert sum(t != 0.0 for t in p) <= 2 or len(set(p)) == 1, p

    def test_norm_square_recovers_square(self):
        f = model_two(MultiplicativeFamily.power(2)).as_function()
        report = extract_structure(f, 2)
        table = dict(report.m_table)
        for t in probe_ladder():
            assert abs(table[t] - t * t) <= 1e-9 * (1.0 + t * t)
        assert report.consistent
        assert all(s == 1.0 for _, s in report.sigma_table)

    def test_zero_function_degenerate(self):
        report = extract_structure(lambda x, y: 0.0, 2)
        assert report.consistent
        assert len(report.zero_m_points) == len(report.sigma_table)
        assert all(s == 1.0 for _, s in report.sigma_table)
        assert all(v == 0.0 for _, v in report.m_table)

    def test_shifted_norm_consistent_but_not_solution(self):
        # f = x^2 + y^2 + 1 has the product shape relative to its own axis
        # restriction, yet fails the functional equation: the two checks are
        # independent
        f = lambda x, y: x * x + y * y + 1.0
        structure = extract_structure(f, 2, tol=1e-9)
        sweep = verify_equation_two(f, UniformSampler(7, 1000), 1e-9)
        assert structure.consistent
        assert sweep.verdict == "FAIL"

    def test_four_variable_norm(self):
        f = model_four(MultiplicativeFamily.power(2)).as_function()
        report = extract_structure(f, 4)
        table = dict(report.m_table)
        for t in probe_ladder():
            assert abs(table[t] - t * t) <= 1e-9 * (1.0 + t * t)
        assert report.consistent

    def test_negated_norm_sign_lives_in_m(self):
        # f = -(x^2+y^2+z^2+w^2): the axis restriction is -t^2, so sigma
        # still comes out +1 everywhere it is defined
        f = lambda x, y, z, w: -(x * x + y * y + z * z + w * w)
        report = extract_structure(f, 4)
        assert report.consistent
        table = dict(report.m_table)
        assert table[2.0] == -4.0
        defined = [s for p, s in report.sigma_table if p not in report.zero_m_points]
        assert all(abs(s - 1.0) <= 1e-9 for s in defined)

    def test_violation_detected(self):
        # breaking the norm symmetry makes |sigma| != 1 on some probes
        f = lambda x, y: x * x + 2.0 * y * y
        report = extract_structure(f, 2)
        assert not report.consistent
        assert report.violations

    def test_violation_detected_four(self):
        f = lambda x, y, z, w: x * x + 2.0 * y * y + z * z + w * w
        report = extract_structure(f, 4)
        assert not report.consistent
        assert report.violations

    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    def test_extraction_consistency_all_builtins(self, family):
        # synthesized models with the constant +1 sign map give back their
        # own m on the axis, and sigma = +1 wherever m is nonzero
        f = model_two(family).as_function()
        report = extract_structure(f, 2)
        assert report.consistent
        zero_points = set(report.zero_m_points)
        for t, value in report.m_table:
            expected = family(abs(t))
            assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected))
        for point, sigma in report.sigma_table:
            if point not in zero_points:
                assert abs(sigma - 1.0) <= 1e-9
