import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    LADDER, FixedSampler, StreamSampler, builtin_families, default_probes, extract_structure,
)
from sosq import jsonfmt, solutions
from sosq.sampling import UniformSampler
from sosq.solutions import (
    Arity,
    MultiplicativeFamily,
    SolutionModel,
    evaluate,
    verify_equation_two,
    verify_equation_four,
)

nonzero_float = st.floats(min_value=-1000, max_value=1000, allow_nan=False)


def model_two(family, sign=1):
    return SolutionModel(Arity.TWO, family, sign)


def model_four(family, sign=1):
    return SolutionModel(Arity.FOUR, family, sign)


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
        m = model_two(MultiplicativeFamily.power(1), -1)
        assert evaluate(m, (3, 4)) == -5.0

    def test_arity_mismatch(self):
        m = model_two(MultiplicativeFamily.power(0.0))
        with pytest.raises(ValueError):
            evaluate(m, (1, 2, 3))

    def test_non_finite_point(self):
        m = model_two(MultiplicativeFamily.power(0.0))
        with pytest.raises(ValueError):
            evaluate(m, (math.nan, 0.0))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_signum_range_enforced(self, sign):
        with pytest.raises(ValueError):
            model_two(MultiplicativeFamily.power(0.0), sign)

    def test_power_past_double_range_is_infinite(self):
        assert MultiplicativeFamily.power(400)(10.0) == math.inf
        assert MultiplicativeFamily.power(-400)(1e-10) == math.inf
        assert MultiplicativeFamily.signed_power(400)(10.0) == math.inf
        assert MultiplicativeFamily.signed_power(400)(-10.0) == -math.inf

    def test_negative_power_at_zero_flagged(self):
        fam = MultiplicativeFamily.power(-1)
        assert fam(0.0) == 0.0

    def test_family_values_at_zero_and_nan(self):
        # at 0 each kind takes its own value; NaN passes the zero test, so
        # |NaN|^0 = 1 and a signed power takes its negative branch
        assert MultiplicativeFamily.power(0)(-0.0) == 1.0
        assert MultiplicativeFamily.power(2)(0.0) == 0.0
        assert MultiplicativeFamily.signed_power(0)(0.0) == 0.0
        assert MultiplicativeFamily.power(0.0)(0.0) == 1.0
        assert MultiplicativeFamily.power(0)(math.nan) == 1.0
        assert MultiplicativeFamily.signed_power(0)(math.nan) == -1.0
        assert math.isnan(MultiplicativeFamily.power(2)(math.nan))
        assert math.isnan(MultiplicativeFamily.signed_power(2)(math.nan))


def outcome(call):
    """What a call returns or raises, with -0.0, inf and NaN told apart."""
    try:
        value = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value), math.copysign(1.0, value)


EXPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.5, 0.5, 1 / 3, 2.0, 400.0, -400.0]),
    st.floats(-500, 500),
)
FAMILIES = st.one_of(
    st.builds(MultiplicativeFamily.power, EXPONENTS),
    st.builds(MultiplicativeFamily.signed_power, EXPONENTS),
    st.just(MultiplicativeFamily.zero()),
)
SIGNS = st.sampled_from([1, -1])
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1.0, -1.0, 1e-200, 1e200, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
)
BAD = st.sampled_from([math.nan, -math.inf, math.inf, "x", None, 1j])


@st.composite
def model_and_point(draw):
    arity = draw(st.sampled_from([Arity.TWO, Arity.FOUR]))
    model = SolutionModel(arity, draw(FAMILIES), draw(SIGNS))
    length = draw(st.sampled_from([arity, arity, arity, arity - 1, arity + 1, 0]))
    point = draw(st.lists(FINITE, min_size=length, max_size=length))
    if point and draw(st.booleans()):
        point[draw(st.integers(0, length - 1))] = draw(BAD)
    return model, tuple(point)


class TestModelCall:
    @given(model_and_point())
    def test_equals_evaluate_bit_for_bit(self, case):
        model, point = case
        assert outcome(lambda: model(*point)) == outcome(lambda: evaluate(model, point))

    @pytest.mark.parametrize("family", builtin_families() + (
        MultiplicativeFamily.power(-1.0),
        MultiplicativeFamily.power(400.0),
        MultiplicativeFamily.signed_power(0.0),
        MultiplicativeFamily.signed_power(-0.5),
    ), ids=str)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("point", [(0.0, -0.0), (-0.0, 0.0, 0.0, -0.0), (3, 4),
                                       (1e200, 1e200, -1e200, 1e200)])
    def test_zeros_and_extremes(self, family, sign, point):
        model = SolutionModel(Arity(len(point)), family, sign)
        assert outcome(lambda: model(*point)) == outcome(lambda: evaluate(model, point))

    @pytest.mark.parametrize("kind", ["power", "signed_power"])
    @pytest.mark.parametrize("c", [0.0, -0.0, 2.0, 140.0, -2.5])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("cols", [
        ([3.0, -1.5, 1e-3, 7], [4.0, 2.0, -7.0, -1]),
        ([-0.0, 2.0, 1e3, 0.0], [5.0, -0.0, -1e3, 1.0]),
        ([3.0, 0.0, -0.0, 1.0], [4.0, -0.0, 0.0, 1.0]),
        ([1.0, -0.0, 1e3], [-2.0, 0.0, 2.0], [0.5, 0.0, 0.0], [-0.0, -0.0, 4.0]),
        ([1.0, 0.0], [-2.0, 0.0], [0.0, -0.0], [-0.0, 0.0]),
    ], ids=repr)
    def test_columns_equal_points_by_sign(self, kind, c, sign, cols):
        # the column form is the model mapped over the points, bit for bit,
        # on its fast path and where a zero norm or an overflow sends it
        # point by point to the model
        family = getattr(MultiplicativeFamily, kind)(c)
        model = SolutionModel(Arity(len(cols)), family, sign)
        assert repr(model.columns(*cols)) == repr(list(map(model, *cols)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_call_goes_through_evaluate(self, sign, monkeypatch):
        # looked up when called, so a replaced evaluate sees every call
        model = model_two(MultiplicativeFamily.power(2), sign)
        seen = []
        monkeypatch.setattr(solutions, "evaluate", lambda m, p: seen.append((m, p)) or 7.0)
        assert model(3.0, 4.0) == 7.0
        assert seen == [(model, (3.0, 4.0))]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_columns_skip_evaluate_on_a_regular_block(self, sign, monkeypatch):
        model = model_two(MultiplicativeFamily.power(2), sign)
        cols = ([3.0, -1.5, 1e-3], [4.0, 2.0, -7.0])
        expected = list(map(model, *cols))

        def fail(model, point):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(solutions, "evaluate", fail)
        assert model.columns(*cols) == expected
        # a zero norm sends the block to the model point by point
        with pytest.raises(AssertionError, match="evaluate called"):
            model.columns([0.0], [0.0])


class TestMultiplicativity:
    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    @given(s=nonzero_float, t=nonzero_float)
    def test_product_law(self, family, s, t):
        lhs = family(s) * family(t)
        rhs = family(s * t)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))

    def test_seeded_pairs_all_families(self):
        for family in builtin_families():
            for s, t in StreamSampler(13, 10000, -1000, 1000).tuples(2):
                lhs = family(s) * family(t)
                rhs = family(s * t)
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


class TestVerifyEquation:
    def test_norm_square_passes(self):
        m = model_two(MultiplicativeFamily.power(2))
        report = verify_equation_two(m, UniformSampler(7, 10000), 1e-9)
        assert report.verdict == "PASS"
        assert report.sample_count == 10000 and report.seed == 7

    def test_negative_sample_count_raises(self):
        # -t^2 fails on every sample: a negative count must not pass vacuously
        f = model_two(MultiplicativeFamily.power(2), -1)
        with pytest.raises(ValueError, match="sample count -5 is below 0"):
            verify_equation_two(f, UniformSampler(1, -5))

    def test_zero_samples_pass_vacuously(self):
        f = model_two(MultiplicativeFamily.power(2), -1)
        report = verify_equation_two(f, UniformSampler(1, 0))
        assert (report.verdict, report.sample_count, report.worst_point) == ("PASS", 0, ())

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
        report = verify_equation_four(m, UniformSampler(7, 10000), 1e-9)
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

    @pytest.mark.parametrize("verify, f", [
        (verify_equation_two, lambda x, y: complex(x * x + y * y, 0.0)),
        (verify_equation_four, lambda x, y, z, w: complex(x * x + y * y + z * z + w * w, 0.0)),
    ], ids=["two", "four"])
    def test_complex_values_pass(self, verify, f):
        # the norm square with complex values is a solution, as run_stability
        # finds; the sweep takes complex values as they are
        report = verify(f, UniformSampler(7, 1000), 1e-9)
        assert report.verdict == "PASS" and report.failure_reason is None
        assert 0.0 < report.max_rel_residual <= 1e-9

    def test_complex_infinity_fails_at_its_sample(self):
        def f(x, y):
            return complex(0.0, math.inf) if x > 5 else 1 + 0j

        points = ((1.0, 0.0, 1.0, 0.0), (6.0, 0.0, 1.0, 0.0), (7.0, 0.0, 1.0, 0.0))
        report = verify_equation_two(f, FixedSampler(points), 1e-9)
        assert report.verdict == "FAIL"
        assert report.worst_point == points[1]
        assert report.failure_reason == f"non-finite value at sample {points[1]!r}"

    def test_fraction_values_stay_exact(self):
        f = lambda x, y: Fraction(x) ** 2 + Fraction(y) ** 2
        report = verify_equation_two(f, StreamSampler(3, 300, -9.0, 9.0, integer=True))
        assert report.verdict == "PASS" and report.max_abs_residual == 0

    @pytest.mark.parametrize("kind", [float, Fraction], ids=["float", "Fraction"])
    def test_finite_values_whose_sum_overflows_pass(self, kind):
        # |p|^2 at p1 = p2 = (x, 0) gives lhs = rhs = x^4, about 1.05e308:
        # lhs + rhs overflows (a Fraction sum raises as it converts), and
        # each value is finite
        x = 1.75 * 2.0**255
        report = verify_equation_two(
            lambda x, y: kind(x) ** 2 + kind(y) ** 2, FixedSampler(((x, 0.0, x, 0.0),)), 1e-9
        )
        assert (report.verdict, report.max_abs_residual) == ("PASS", 0.0)

    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    def test_synthesis_round_trip_two(self, family):
        m = model_two(family)
        report = verify_equation_two(m, UniformSampler(19, 10000), 1e-9)
        assert report.verdict == "PASS", (family, report.max_rel_residual)

    @pytest.mark.parametrize("family", builtin_families(), ids=str)
    def test_synthesis_round_trip_four(self, family):
        m = model_four(family)
        report = verify_equation_four(m, UniformSampler(19, 10000), 1e-9)
        assert report.verdict == "PASS", (family, report.max_rel_residual)

    def test_diagonal_consequence(self):
        # any verified solution satisfies f(x,y)^2 = f(x^2+y^2, 0)
        f = model_two(MultiplicativeFamily.power(2))
        for x, y in StreamSampler(29, 2000).tuples(2):
            lhs = f(x, y) ** 2
            rhs = f(x * x + y * y, 0.0)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + max(abs(lhs), abs(rhs)))


def round_trip(report):
    """report._asdict() through the JSON text and back, worst_point as a tuple."""
    fields = json.loads(jsonfmt.dumps(report._asdict()))
    return {**fields, "worst_point": tuple(fields["worst_point"])}


class TestReportSerialization:
    def test_json_round_trip(self):
        m = model_two(MultiplicativeFamily.power(3))
        report = verify_equation_two(m, UniformSampler(5, 100), 1e-9)
        assert round_trip(report) == report._asdict()

    def test_fail_report_round_trip(self):
        report = verify_equation_two(
            lambda x, y: x + y, FixedSampler(((1.0, 1.0, 1.0, 1.0),)), 1e-9
        )
        assert round_trip(report) == report._asdict()


class TestStructureExtraction:
    def test_default_probes_two_is_the_axis_grid(self):
        axis = LADDER + (0.0,)
        assert default_probes(2) == tuple(product(axis, axis))

    def test_default_probes_four(self):
        probes = default_probes(4)
        assert len(probes) == len(set(probes)) == 3015
        for p in probes:
            assert sum(t != 0.0 for t in p) <= 2 or len(set(p)) == 1, p

    def test_norm_square_recovers_square(self):
        f = model_two(MultiplicativeFamily.power(2))
        report = extract_structure(f, 2)
        table = dict(report.m_table)
        for t in LADDER:
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
        f = model_four(MultiplicativeFamily.power(2))
        report = extract_structure(f, 4)
        table = dict(report.m_table)
        for t in LADDER:
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
        f = model_two(family)
        report = extract_structure(f, 2)
        assert report.consistent
        zero_points = set(report.zero_m_points)
        for t, value in report.m_table:
            expected = family(abs(t))
            assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected))
        for point, sigma in report.sigma_table:
            if point not in zero_points:
                assert abs(sigma - 1.0) <= 1e-9
