import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import DiagonalSampler, FixedSampler, builtin_families
from sosq.sampling import UniformSampler
from sosq.solutions import Arity, MultiplicativeFamily, SolutionModel
from sosq.stability import (
    BoundSpec,
    DiagonalVerdict,
    InvalidBoundError,
    check_conclusion_two,
    check_conclusion_four,
    check_hypothesis_two,
    check_hypothesis_four,
    classify_diagonal,
    run_stability,
)

norm2f = lambda x, y: x * x + y * y
norm4f = lambda x, y, z, w: x * x + y * y + z * z + w * w

ZERO2 = BoundSpec.constant(Arity.TWO, 0.0)
ZERO4 = BoundSpec.constant(Arity.FOUR, 0.0)
QUARTER2 = BoundSpec.constant(Arity.TWO, 0.25)
QUARTER4 = BoundSpec.constant(Arity.FOUR, 0.25)


def int_sampler(seed, count, width_range=100):
    return UniformSampler(seed, count, -width_range, width_range, integer=True)


class TestHypothesisTwo:
    def test_exact_solution_zero_excess(self):
        report = check_hypothesis_two(norm2f, ZERO2, int_sampler(5, 10000))
        assert report.max_excess == 0.0
        assert report.passed

    def test_constant_half_under_quarter_bounds(self):
        # defect is identically |1/4 - 1/2| = 1/4, exactly the bound
        report = check_hypothesis_two(lambda x, y: 0.5, QUARTER2, int_sampler(5, 5000))
        assert report.max_excess == 0.0

    def test_shifted_norm_violates_zero_bounds(self):
        # p1 = p2 = (1, 0): |f*f - f(composed)| = |2*2 - 2| = 2
        f = lambda x, y: x * x + y * y + 1.0
        report = check_hypothesis_two(f, ZERO2, FixedSampler(((1.0, 0.0, 1.0, 0.0),)))
        assert report.max_excess == 2.0
        assert report.worst_point == (1.0, 0.0, 1.0, 0.0)
        assert not report.passed

    def test_nan_defect_is_infinite_excess(self):
        # inf * inf - inf is NaN; a NaN defect must not read as no excess
        f = lambda x, y: math.inf
        sampler = FixedSampler(((1.0, 0.0, 1.0, 0.0), (2.0, 0.0, 2.0, 0.0)))
        report = check_hypothesis_two(f, ZERO2, sampler)
        assert report.max_excess == math.inf
        assert report.defect_at_worst == math.inf
        assert report.worst_point == (1.0, 0.0, 1.0, 0.0)
        assert not report.passed

    def test_negative_bound_rejected(self):
        bad = BoundSpec(Arity.TWO, (lambda x: -1.0,) * 4)
        with pytest.raises(InvalidBoundError):
            check_hypothesis_two(norm2f, bad, int_sampler(5, 10))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_hypothesis_two(norm2f, ZERO4, int_sampler(5, 10))

    def test_bound_slots_follow_coordinates(self):
        # M1 sees x1, M2 sees x2, N1 sees y1, N2 sees y2
        seen = {0: set(), 1: set(), 2: set(), 3: set()}

        def make(slot):
            def bound(t):
                seen[slot].add(t)
                return 100.0
            return bound

        bounds = BoundSpec(Arity.TWO, tuple(make(i) for i in range(4)))
        check_hypothesis_two(norm2f, bounds, FixedSampler(((1.0, 2.0, 3.0, 4.0),)))
        assert seen == {0: {1.0}, 1: {3.0}, 2: {2.0}, 3: {4.0}}


class TestConclusionTwo:
    def test_exact_solution_zero_excess(self):
        report = check_conclusion_two(norm2f, ZERO2, int_sampler(5, 10000))
        assert report.max_excess == 0.0

    def test_constant_half(self):
        report = check_conclusion_two(lambda x, y: 0.5, QUARTER2, int_sampler(5, 5000))
        assert report.max_excess == 0.0

    def test_shifted_norm_positive_excess(self):
        # at (1, 0): |f(1,0)^2 - f(1, 0)| = |4 - 2| = 2
        f = lambda x, y: x * x + y * y + 1.0
        report = check_conclusion_two(f, ZERO2, FixedSampler(((1.0, 0.0),)))
        assert report.max_excess == 2.0

    def test_matches_hypothesis_on_diagonal(self):
        # same samples, same bounds: the two computations agree bit for bit
        f = lambda x, y: x * x + y * y + 0.25 * math.sin(x + 2.0 * y)
        base = UniformSampler(11, 5000)
        con = check_conclusion_two(f, QUARTER2, base)
        hyp = check_hypothesis_two(f, QUARTER2, DiagonalSampler(base))
        assert con.max_excess == hyp.max_excess
        assert con.defect_at_worst == hyp.defect_at_worst
        assert con.bound_at_worst == hyp.bound_at_worst
        assert hyp.worst_point == con.worst_point + con.worst_point


class TestFourVariable:
    def test_exact_solution_zero_excess(self):
        hyp = check_hypothesis_four(norm4f, ZERO4, int_sampler(5, 10000))
        con = check_conclusion_four(norm4f, ZERO4, int_sampler(5, 10000))
        assert hyp.max_excess == 0.0 and con.max_excess == 0.0

    def test_constant_half(self):
        f = lambda x, y, z, w: 0.5
        assert check_hypothesis_four(f, QUARTER4, int_sampler(5, 2000)).max_excess == 0.0
        assert check_conclusion_four(f, QUARTER4, int_sampler(5, 2000)).max_excess == 0.0

    def test_shifted_norm_positive_excess(self):
        f = lambda x, y, z, w: norm4f(x, y, z, w) + 1.0
        point = (1.0, 0.0, 0.0, 0.0)
        hyp = check_hypothesis_four(f, ZERO4, FixedSampler((point + point,)))
        assert hyp.max_excess == 2.0
        con = check_conclusion_four(f, ZERO4, FixedSampler((point,)))
        assert con.max_excess == 2.0

    def test_matches_hypothesis_on_diagonal(self):
        f = lambda x, y, z, w: norm4f(x, y, z, w) + 0.125 * math.cos(x * w - y * z)
        base = UniformSampler(13, 3000)
        con = check_conclusion_four(f, QUARTER4, base)
        hyp = check_hypothesis_four(f, QUARTER4, DiagonalSampler(base))
        assert con.max_excess == hyp.max_excess

    def test_eight_bound_slots_follow_coordinates(self):
        seen = {}

        def make(slot):
            def bound(t):
                seen.setdefault(slot, set()).add(t)
                return 1000.0
            return bound

        bounds = BoundSpec(Arity.FOUR, tuple(make(i) for i in range(8)))
        sample = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        check_hypothesis_four(norm4f, bounds, FixedSampler((sample,)))
        assert seen == {
            0: {1.0}, 1: {5.0}, 2: {2.0}, 3: {6.0},
            4: {3.0}, 5: {7.0}, 6: {4.0}, 7: {8.0},
        }


class TestMonotonicity:
    @given(st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5))
    def test_larger_bounds_never_increase_excess(self, b1, delta):
        f = lambda x, y: x * x + y * y + 0.5
        sampler = int_sampler(3, 300, 10)
        small = check_hypothesis_two(f, BoundSpec.constant(Arity.TWO, b1), sampler)
        large = check_hypothesis_two(
            f, BoundSpec.constant(Arity.TWO, b1 + delta), sampler
        )
        assert large.max_excess <= small.max_excess


class TestClassifyDiagonal:
    def test_square_is_multiplicative(self):
        report = classify_diagonal(lambda t: t * t)
        assert report.verdict is DiagonalVerdict.MULTIPLICATIVE
        assert report.max_mult_residual == 0.0
        assert report.decades >= 3.0

    def test_constant_half_is_bounded(self):
        report = classify_diagonal(lambda t: 0.5)
        assert report.verdict is DiagonalVerdict.BOUNDED
        assert report.sup_abs == 0.5

    def test_constant_one_tie_break_is_multiplicative(self):
        assert classify_diagonal(lambda t: 1.0).verdict is DiagonalVerdict.MULTIPLICATIVE

    def test_zero_is_multiplicative(self):
        assert classify_diagonal(lambda t: 0.0).verdict is DiagonalVerdict.MULTIPLICATIVE

    def test_perturbed_square_inconclusive(self):
        report = classify_diagonal(
            lambda t: t * t + 0.3 * math.sin(t),
            growth_threshold=1e3,
            mult_tol=1e-9,
        )
        assert report.verdict is DiagonalVerdict.INCONCLUSIVE
        assert report.max_mult_residual > 1e-9
        assert report.sup_abs > 1e3

    @pytest.mark.parametrize(
        "family",
        [f for f in builtin_families() if f.exponent > 0],
        ids=str,
    )
    def test_growing_families_multiplicative(self, family):
        m = SolutionModel(Arity.TWO, family).as_function()
        report = classify_diagonal(lambda t: m(t, 0.0))
        assert report.verdict is DiagonalVerdict.MULTIPLICATIVE

    def test_short_ladder_cannot_claim_multiplicative(self):
        report = classify_diagonal(lambda t: t * t, ladder=(1.0, 2.0, 4.0))
        assert report.decades < 3.0
        assert report.verdict is DiagonalVerdict.BOUNDED

    def test_complex_values_accepted(self):
        report = classify_diagonal(lambda t: complex(0.0, t * t))
        assert report.verdict is DiagonalVerdict.BOUNDED


class TestExactArithmetic:
    def test_fraction_pipeline_stays_exact(self):
        f = lambda x, y: Fraction(1, 3)
        bounds = BoundSpec(Arity.TWO, (lambda t: Fraction(1, 9),) * 4)
        # defect = |1/9 - 1/3| = 2/9 and excess = 2/9 - 1/9 = 1/9, computed
        # exactly in Fraction arithmetic; the report rounds once to float
        report = check_hypothesis_two(f, bounds, FixedSampler(((1.0, 2.0, 3.0, 4.0),)))
        assert report.max_excess == float(Fraction(1, 9))
        assert report.defect_at_worst == float(Fraction(2, 9))
        assert report.bound_at_worst == float(Fraction(1, 9))


class TestRunners:
    def test_run_two_assembles_report(self):
        f = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2)).as_function()
        report = run_stability(f, ZERO2, seed=3, samples=2000)
        assert report.hypothesis_max_violation <= 1e-9
        assert report.conclusion_max_violation <= 1e-9
        assert report.diagonal_classification == "MULTIPLICATIVE"
        assert report.passed
        assert report.to_dict()["evidence"]["max_mult_residual"] == 0.0

    def test_run_four_constant_half(self):
        f = lambda x, y, z, w: 0.5
        report = run_stability(
            f, BoundSpec.constant(Arity.FOUR, 0.25), seed=3, samples=2000
        )
        assert report.hypothesis_max_violation == 0.0
        assert report.diagonal_classification == "BOUNDED"

    def test_bounds_from_expressions(self):
        bounds = BoundSpec.from_expressions(Arity.TWO, ["min(1, abs(x))"])
        report = check_hypothesis_two(norm2f, bounds, int_sampler(7, 500))
        assert report.max_excess == 0.0

    def test_expression_count_validation(self):
        with pytest.raises(ValueError):
            BoundSpec.from_expressions(Arity.TWO, ["1", "2"])


CHECKS = {
    Arity.TWO: (check_hypothesis_two, check_conclusion_two),
    Arity.FOUR: (check_hypothesis_four, check_conclusion_four),
}
SLOT_EXPRS = (
    "1+abs(x)", "2+x*x/10", "max(0.5,abs(x))", "pow(x,2)/4+1",
    "abs(x)+3", "min(x*x+1,100)", "1", "x*x+abs(x)/2+1",
)


def perturbed(*p):
    # a solution plus a wobble, so defects exceed some caps and not others
    return sum(t * t for t in p) + 2.0 * math.sin(p[0] - 3.0 * p[-1])


def sample_at(arity, seed, samples, index):
    return list(UniformSampler(seed, samples).tuples(2 * int(arity)))[index]


def outcome(call):
    """(exception type, message) if call raises, else None."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def sequential(f, bounds, seed, samples):
    """What the hypothesis and then the conclusion sweep, run apart, raise."""
    check_hyp, check_con = CHECKS[bounds.arity]

    def both():
        check_hyp(f, bounds, UniformSampler(seed, samples))
        check_con(f, bounds, UniformSampler(seed, samples))

    return outcome(both)


def one_pass(f, bounds, seed, samples):
    return outcome(lambda: run_stability(f, bounds, seed=seed, samples=samples))


class TestOnePass:
    """run_stability sweeps both sides at once; it must match the two sweeps."""

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
    def test_matches_separate_sweeps(self, arity, seed):
        bounds = BoundSpec.from_expressions(arity, SLOT_EXPRS[: 2 * int(arity)])
        check_hyp, check_con = CHECKS[arity]
        report = run_stability(perturbed, bounds, seed=seed, samples=400, tol=1e-9)
        hyp = check_hyp(perturbed, bounds, UniformSampler(seed, 400), 1e-9)
        con = check_con(perturbed, bounds, UniformSampler(seed, 400), 1e-9)
        assert hyp.max_excess > 0.0 and con.max_excess > 0.0
        assert report.hypothesis_max_violation == hyp.max_excess
        assert report.conclusion_max_violation == con.max_excess
        evidence = report.evidence
        assert evidence["hypothesis_worst_point"] == list(hyp.worst_point)
        assert evidence["hypothesis_defect"] == hyp.defect_at_worst
        assert evidence["hypothesis_bound"] == hyp.bound_at_worst
        assert evidence["conclusion_worst_point"] == list(con.worst_point)
        assert evidence["conclusion_defect"] == con.defect_at_worst
        assert evidence["conclusion_bound"] == con.bound_at_worst

    def test_conclusion_sample_is_hypothesis_prefix(self):
        for width in (2, 4):
            short = list(UniformSampler(9, 50).tuples(width))
            long = list(UniformSampler(9, 50).tuples(2 * width))
            assert short == [t[:width] for t in long]


class TestOnePassErrorOrder:
    """A conclusion error is held: a hypothesis error anywhere still wins."""

    @staticmethod
    def slot_one(bad):
        # slot 1 reads x2 in the hypothesis and x1 in the conclusion
        return lambda t: -1.0 if t in bad else 1.0

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_bound_invalid_only_on_conclusion_side(self, arity):
        x1 = sample_at(arity, 5, 30, 3)[0]
        slots = [lambda t: 1.0] * (2 * int(arity))
        slots[1] = self.slot_one({x1})
        bounds = BoundSpec(arity, tuple(slots))
        f = norm2f if arity is Arity.TWO else norm4f
        want = (InvalidBoundError, f"bound value -1.0 is not in [0, inf) at probe {x1!r}")
        assert sequential(f, bounds, 5, 30) == want
        assert one_pass(f, bounds, 5, 30) == want

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_expression_invalid_only_on_conclusion_side(self, arity):
        # at seed 2 the one sample has x1 < 0 <= x2, so pow(x, 0.5) turns
        # complex only where the conclusion reads slot 1
        exprs = ["1", "pow(x,0.5)"] + ["1"] * (2 * int(arity) - 2)
        bounds = BoundSpec.from_expressions(arity, exprs)
        f = SolutionModel(arity, MultiplicativeFamily.power(2)).as_function()
        want = (
            InvalidBoundError,
            "bound raised TypeError: '<=' not supported between instances of "
            "'int' and 'complex' at probe -2.155670751529364",
        )
        assert sequential(f, bounds, 2, 1) == want
        assert one_pass(f, bounds, 2, 1) == want

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    @pytest.mark.parametrize("con_at,hyp_at", [(2, 5), (5, 2), (4, 4)])
    def test_bound_invalid_on_both_sides_raises_hypothesis_error(self, arity, con_at, hyp_at):
        x1 = sample_at(arity, 8, 30, con_at)[0]
        x2 = sample_at(arity, 8, 30, hyp_at)[int(arity)]
        slots = [lambda t: 1.0] * (2 * int(arity))
        slots[1] = self.slot_one({x1, x2})
        bounds = BoundSpec(arity, tuple(slots))
        f = norm2f if arity is Arity.TWO else norm4f
        want = (InvalidBoundError, f"bound value -1.0 is not in [0, inf) at probe {x2!r}")
        assert sequential(f, bounds, 8, 30) == want
        assert one_pass(f, bounds, 8, 30) == want

    @staticmethod
    def raising_f(arity, hyp_point=None):
        # p1 composed with itself has an all-zero tail, which no hypothesis
        # call sees on these samples
        def f(*p):
            if p[1:] == (0.0,) * (int(arity) - 1):
                raise ZeroDivisionError(f"conclusion at {p!r}")
            if p == hyp_point:
                raise OverflowError(f"hypothesis at {p!r}")
            return sum(t * t for t in p)

        return f

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_f_raising_only_on_conclusion_side(self, arity):
        f = self.raising_f(arity)
        bounds = ZERO2 if arity is Arity.TWO else ZERO4
        got = one_pass(f, bounds, 4, 20)
        assert got[0] is ZeroDivisionError
        assert got == sequential(f, bounds, 4, 20)

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_f_raising_on_both_sides_raises_hypothesis_error(self, arity):
        p2 = tuple(sample_at(arity, 4, 20, 6)[int(arity):])
        f = self.raising_f(arity, p2)
        bounds = ZERO2 if arity is Arity.TWO else ZERO4
        want = (OverflowError, f"hypothesis at {p2!r}")
        assert sequential(f, bounds, 4, 20) == want
        assert one_pass(f, bounds, 4, 20) == want


class TestBoundCaps:
    """All slots are checked at once; the first bad slot still decides."""

    POINT = FixedSampler(((1.0, 2.0, 3.0, 4.0),))

    @staticmethod
    def spec(*values):
        def slot(value):
            def bound(t):
                if isinstance(value, type) and issubclass(value, Exception):
                    raise value("slot raised")
                return value
            return bound

        return BoundSpec(Arity.TWO, tuple(slot(v) for v in values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_value_after_a_good_slot(self, bad):
        # slot 1 reads x2 = 3.0
        with pytest.raises(InvalidBoundError) as exc:
            check_hypothesis_two(norm2f, self.spec(1.0, bad, 1.0, 1.0), self.POINT)
        assert str(exc.value) == f"bound value {bad!r} is not in [0, inf) at probe 3.0"

    def test_first_bad_slot_wins_over_a_later_raise(self):
        # slot 1 (x2 = 3.0) is negative and slot 2 (y1 = 2.0) raises: slot 1
        # comes first, whatever the later slot raises
        for later in (ZeroDivisionError, ValueError):
            with pytest.raises(InvalidBoundError) as exc:
                check_hypothesis_two(norm2f, self.spec(1.0, -1.0, later, 1.0), self.POINT)
            assert str(exc.value) == "bound value -1.0 is not in [0, inf) at probe 3.0"

    def test_uncaught_error_in_a_later_slot_propagates(self):
        with pytest.raises(ValueError, match="slot raised"):
            check_hypothesis_two(norm2f, self.spec(1.0, 1.0, ValueError, 1.0), self.POINT)

    def test_valid_caps_whose_sum_overflows(self):
        report = check_hypothesis_two(
            lambda x, y: 0.0, self.spec(1e308, 1e308, 1e308, 1e308), self.POINT
        )
        assert report.bound_at_worst == 1e308
        assert report.max_excess == 0.0
