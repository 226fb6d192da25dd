import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    DiagonalSampler, FixedSampler, StreamSampler, builtin_families, flatten, run_excess_sweep,
)
from sosq import stability
from sosq.cli import parse_bounds_spec
from sosq.identities import compose_four_raw, compose_two_raw
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
    return StreamSampler(seed, count, -width_range, width_range, integer=True)


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

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_constant_outside_range_refused_when_built(self, value):
        # refused by the constructor, not at the first sampled probe
        with pytest.raises(InvalidBoundError, match=f"constant bound {value!r} is not in"):
            BoundSpec.constant(Arity.TWO, value)

    def test_constant_edges_build(self):
        for value in (0.0, -0.0, 1.5e308):
            assert BoundSpec.constant(Arity.FOUR, value).bounds[0](1.0) == value

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
        con = check_conclusion_two(f, QUARTER2, UniformSampler(11, 5000))
        hyp = check_hypothesis_two(f, QUARTER2, DiagonalSampler(StreamSampler(11, 5000)))
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
        con = check_conclusion_four(f, QUARTER4, UniformSampler(13, 3000))
        hyp = check_hypothesis_four(f, QUARTER4, DiagonalSampler(StreamSampler(13, 3000)))
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


def delta_for(line):
    """The delta whose BOUNDED line (1 + sqrt(1 + 4 delta))/2 is line."""
    return line * line - line


class TestClassifyDiagonal:
    def test_square_is_multiplicative(self):
        report = classify_diagonal(lambda t: t * t)
        assert report.verdict is DiagonalVerdict.MULTIPLICATIVE
        assert report.max_mult_residual == 0.0

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
            delta=delta_for(1e3),
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
        m = SolutionModel(Arity.TWO, family)
        report = classify_diagonal(lambda t: m(t, 0.0))
        assert report.verdict is DiagonalVerdict.MULTIPLICATIVE

    def test_complex_values_accepted(self):
        # |g| = 1/2 everywhere, and g(s) g(t) = -1/4 is not g(st)
        report = classify_diagonal(lambda t: complex(0.0, 0.5))
        assert report.verdict is DiagonalVerdict.BOUNDED
        # sup |g| = 4096 on the ladder, at t = -64, within the line 1e6; but
        # |g(2^10)| = 2^20 is past it
        report = classify_diagonal(lambda t: complex(0.0, t * t), delta=delta_for(1e6))
        assert report.verdict is DiagonalVerdict.INCONCLUSIVE
        assert (report.sup_abs, report.sup_at) == (4096.0, -64.0)

    def test_growth_past_the_ladder_is_not_bounded(self):
        # -t^2 stays within the delta = 1e9 line (~31,623) on the ladder,
        # up to 4096 at +-64, and crosses it at |t| ~ 178
        line = (1.0 + math.sqrt(1.0 + 4e9)) / 2.0
        report = classify_diagonal(lambda t: -t * t, delta=1e9)
        assert report.verdict is DiagonalVerdict.INCONCLUSIVE
        assert report.sup_abs == 4096.0 < line
        # capped below the line, the same g is bounded
        report = classify_diagonal(lambda t: -min(t * t, 1e4), delta=1e9)
        assert report.verdict is DiagonalVerdict.BOUNDED

    @pytest.mark.parametrize(
        "m,verdict",
        [
            (lambda t: -1.0 if abs(t) < 2.0**64 else -2.0, DiagonalVerdict.INCONCLUSIVE),
            (lambda t: -1.0 if abs(t) <= 2.0**64 else -2.0, DiagonalVerdict.BOUNDED),
            (lambda t: -1.0 if abs(t) > 2.0**-64 else -2.0, DiagonalVerdict.INCONCLUSIVE),
            (lambda t: -1.0 if abs(t) >= 2.0**-64 else -2.0, DiagonalVerdict.BOUNDED),
            (lambda t: -1.0 if t > -(2.0**64) else math.nan, DiagonalVerdict.INCONCLUSIVE),
        ],
        ids=["past-2^64", "from-2^64", "below-2^-64", "from-2^-64", "nan-at--2^64"],
    )
    def test_bounded_reach_is_2_to_the_plus_minus_64(self, m, verdict):
        assert classify_diagonal(m).verdict is verdict

    @pytest.mark.parametrize(
        "m,reach",
        [
            (lambda t: t * t, 4096.0),  # MULTIPLICATIVE
            (lambda t: -t * t, 4096.0),  # INCONCLUSIVE on the ladder
            (lambda t: 0.5, 2.0**64),  # BOUNDED
        ],
        ids=["multiplicative", "inconclusive", "bounded"],
    )
    def test_reach_evaluated_only_for_bounded(self, m, reach):
        seen = []
        classify_diagonal(lambda t: seen.append(t) or m(t))
        # the ladder's products s * t reach 64 * 64
        assert max(map(abs, seen)) == reach

    @pytest.mark.parametrize(
        "m,bounded",
        [
            (lambda t: t * t, False),  # MULTIPLICATIVE
            (lambda t: -t * t, False),  # INCONCLUSIVE on the ladder
            (lambda t: 0.5, True),  # BOUNDED
        ],
        ids=["multiplicative", "inconclusive", "bounded"],
    )
    def test_m_called_once_per_distinct_probe(self, m, bounded):
        seen = []
        classify_diagonal(lambda t: seen.append(t) or m(t))
        # the 42 pairwise products +-2^-8 .. +-2^12 of the 22-point ladder,
        # which hold the ladder, then on the BOUNDED path the 258 of +-2^k
        products = {s * 2.0**k for s in (-1.0, 1.0) for k in range(-8, 13)}
        assert len(seen[:42]) == len(set(seen[:42])) == 42
        assert set(seen[:42]) == products
        assert len(seen) == (42 + 258 if bounded else 42)

    @pytest.mark.parametrize(
        "m,threshold",
        [
            (lambda t: math.nan, 1e6),
            (lambda t: 0.5 if abs(t) <= 1.0 else math.nan, 1.0),
        ],
        ids=["nan", "half-then-nan"],
    )
    def test_nan_value_counts_as_infinite(self, m, threshold):
        # a NaN value fails every comparison, so it must not leave the sup
        # of |m| under the threshold
        report = classify_diagonal(m, delta=delta_for(threshold))
        assert report.verdict is DiagonalVerdict.INCONCLUSIVE
        assert report.sup_abs == math.inf

    def test_nan_residual_counts_as_infinite(self):
        # |t|^1e308 is inf off [-1, 1] and 0 inside it, so every nonzero
        # residual is inf * 0 or inf - inf: NaN, which must not read as 0
        report = classify_diagonal(MultiplicativeFamily.power(1e308))
        assert report.verdict is DiagonalVerdict.INCONCLUSIVE
        assert report.max_mult_residual == math.inf
        assert report.worst_pair == (-64.0, -64.0)

    def test_nan_residual_counts_as_infinite_where_it_occurs(self):
        # (-64, -64) gives inf - inf first, a NaN that counts as inf there;
        # (-16, -0.25) gives inf - finite later, which only ties it
        report = classify_diagonal(MultiplicativeFamily.power(400))
        assert report.max_mult_residual == math.inf
        assert report.worst_pair == (-64.0, -64.0)

    def test_infinite_residual_before_a_nan_stays_worst(self):
        # m(64) m(64) overflows beside a finite m(4096) at the first pair;
        # the NaN of (-2^-4, -2^-4), from m(2^-8) = inf, comes later and ties
        m = lambda t: math.inf if t == 2.0**-8 else (1e200 if abs(t) >= 64 else 1.0)
        report = classify_diagonal(m)
        assert report.max_mult_residual == math.inf
        assert report.worst_pair == (-64.0, -64.0)
        assert report.sup_abs == 1e200


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
        f = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2))
        report = run_stability(f, ZERO2, seed=3, samples=2000)
        assert report.hypothesis_max_violation <= 1e-9
        assert report.conclusion_max_violation <= 1e-9
        assert report.diagonal_classification == "MULTIPLICATIVE"
        assert report.passed
        assert report._asdict()["evidence"]["max_mult_residual"] == 0.0

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

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_each_expression_parsed_once(self, arity, monkeypatch):
        # --bounds 1 is one parse whose callable fills all 2 * arity slots;
        # a full list is one parse per slot
        parsed = []
        parse = stability.parse_bound_expression
        monkeypatch.setattr(
            stability, "parse_bound_expression", lambda src: parsed.append(src) or parse(src)
        )
        single = parse_bounds_spec("1", arity)
        assert parsed == ["1"]
        assert single.bounds == (single.bounds[0],) * (2 * int(arity))
        full = parse_bounds_spec(";".join(SLOT_EXPRS[: 2 * int(arity)]), arity)
        assert parsed[1:] == list(SLOT_EXPRS[: 2 * int(arity)])
        assert len(set(map(id, full.bounds))) == 2 * int(arity)

    def test_negative_sample_count_raises(self):
        # -t^2 fails on every sample: a negative count must not pass vacuously
        f = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2), -1)
        with pytest.raises(ValueError, match="sample count -3 is below 0"):
            run_stability(f, ZERO2, seed=1, samples=-3)

    def test_zero_samples_sweep_nothing(self):
        f = SolutionModel(Arity.TWO, MultiplicativeFamily.power(2), -1)
        report = run_stability(f, ZERO2, seed=1, samples=0)
        assert report.sample_count == 0 and report.hypothesis_max_violation == 0.0
        assert report._asdict()["evidence"]["hypothesis_worst_point"] is None


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
    return flatten(UniformSampler(seed, samples), 2 * int(arity))[index]


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


def reference(f, bounds, seed, samples):
    """What the per-sample reference of run_stability's pass raises."""
    return outcome(lambda: run_excess_sweep(f, bounds, StreamSampler(seed, samples), 0.0, True))


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
            short = flatten(UniformSampler(9, 50), width)
            long = flatten(UniformSampler(9, 50), 2 * width)
            assert short == [t[:width] for t in long]


class TestOnePassErrorOrder:
    """The first sample that fails decides; within a sample the hypothesis
    side fails first.  The per-sample reference sweep agrees."""

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
        f = SolutionModel(arity, MultiplicativeFamily.power(2))
        want = (
            InvalidBoundError,
            "bound value (8.99025625024699e-17+1.4682202666934427j) is not in "
            "[0, inf) at probe -2.155670751529364",
        )
        assert sequential(f, bounds, 2, 1) == want
        assert one_pass(f, bounds, 2, 1) == want

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    @pytest.mark.parametrize("con_at,hyp_at", [(2, 5), (5, 2), (4, 4)])
    def test_bound_invalid_on_both_sides_raises_at_the_first_sample(
        self, arity, con_at, hyp_at
    ):
        x1 = sample_at(arity, 8, 30, con_at)[0]
        x2 = sample_at(arity, 8, 30, hyp_at)[int(arity)]
        slots = [lambda t: 1.0] * (2 * int(arity))
        slots[1] = self.slot_one({x1, x2})
        bounds = BoundSpec(arity, tuple(slots))
        f = norm2f if arity is Arity.TWO else norm4f
        probe = x1 if con_at < hyp_at else x2
        want = (InvalidBoundError, f"bound value -1.0 is not in [0, inf) at probe {probe!r}")
        assert one_pass(f, bounds, 8, 30) == want
        assert reference(f, bounds, 8, 30) == want

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
    @pytest.mark.parametrize("hyp_at", [0, 6])
    def test_f_raising_on_both_sides_raises_at_the_first_sample(self, arity, hyp_at):
        # the conclusion side raises at every sample, so from sample 0 on
        p1 = sample_at(arity, 4, 20, 0)[:int(arity)]
        p2 = tuple(sample_at(arity, 4, 20, hyp_at)[int(arity):])
        f = self.raising_f(arity, p2)
        bounds = ZERO2 if arity is Arity.TWO else ZERO4
        if hyp_at == 0:
            want = (OverflowError, f"hypothesis at {p2!r}")
        else:
            compose = compose_two_raw if arity is Arity.TWO else compose_four_raw
            want = (ZeroDivisionError, f"conclusion at {compose(*p1, *p1)!r}")
        assert one_pass(f, bounds, 4, 20) == want
        assert reference(f, bounds, 4, 20) == want


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

    def test_complex_value_is_out_of_range(self):
        # pow of a negative base is complex: a value, not a raise
        with pytest.raises(InvalidBoundError) as exc:
            check_hypothesis_two(norm2f, self.spec(1.0, 2j, 1.0, 1.0), self.POINT)
        assert str(exc.value) == "bound value 2j is not in [0, inf) at probe 3.0"

    def test_raising_slot_is_named_as_raising(self):
        with pytest.raises(InvalidBoundError) as exc:
            check_hypothesis_two(norm2f, self.spec(1.0, TypeError, 1.0, 1.0), self.POINT)
        assert str(exc.value) == "bound raised TypeError: slot raised at probe 3.0"

    def test_uncaught_error_in_a_later_slot_propagates(self):
        with pytest.raises(ValueError, match="slot raised"):
            check_hypothesis_two(norm2f, self.spec(1.0, 1.0, ValueError, 1.0), self.POINT)

    def test_valid_caps_whose_sum_overflows(self):
        report = check_hypothesis_two(
            lambda x, y: 0.0, self.spec(1e308, 1e308, 1e308, 1e308), self.POINT
        )
        assert report.bound_at_worst == 1e308
        assert report.max_excess == 0.0


class TestSuperstabilityLine:
    """The BOUNDED line is (1 + sqrt(1 + 4 delta))/2."""

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    @given(
        c=st.floats(min_value=1.001, max_value=1e6),
        ratio=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_sharp_on_constants(self, arity, c, ratio):
        # f = c > 1 has defect c^2 - c everywhere, and c lies under the line
        # for b exactly when c^2 - c <= b: BOUNDED exactly when the
        # hypothesis holds (below 1, |c^2 - c| = c - c^2 breaks the match)
        b = ratio * (c * c - c)
        line = (1.0 + math.sqrt(1.0 + 4.0 * b)) / 2.0
        assume(abs(c - line) > 1e-9 * line)  # off the line, where rounding decides
        report = run_stability(
            lambda *p: c, BoundSpec.constant(arity, b), seed=1, samples=20
        )
        held = report.hypothesis_max_violation == 0.0
        assert held == (c < line)
        assert report.diagonal_classification == ("BOUNDED" if held else "INCONCLUSIVE")
        assert report.evidence["growth_threshold"] == line

    @given(
        c=st.floats(min_value=1.001, max_value=1e6),
        ratio=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_classify_sharp_on_constants(self, c, ratio):
        # the same line, drawn by classify_diagonal itself from its delta
        b = ratio * (c * c - c)
        line = (1.0 + math.sqrt(1.0 + 4.0 * b)) / 2.0
        assume(abs(c - line) > 1e-9 * line)
        report = classify_diagonal(lambda t: c, delta=b)
        assert report.verdict is (
            DiagonalVerdict.BOUNDED if c < line else DiagonalVerdict.INCONCLUSIVE
        )
        assert (report.delta, report.growth_threshold) == (b, line)

    def test_default_delta_is_zero(self):
        report = classify_diagonal(lambda t: -1.0)
        assert (report.delta, report.growth_threshold) == (0.0, 1.0)
        assert report.verdict is DiagonalVerdict.BOUNDED

    @pytest.mark.parametrize("delta", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and >= 0"):
            classify_diagonal(lambda t: 0.5, delta=delta)

    def test_delta_is_least_zero_coordinate_slot(self):
        bounds = BoundSpec.from_expressions(Arity.FOUR, "9;9;7;6;5;4;3;8".split(";"))
        report = run_stability(norm4f, bounds, seed=1, samples=20)
        assert report.evidence["delta"] == 3.0

    @pytest.mark.parametrize("arity", [Arity.TWO, Arity.FOUR])
    def test_zero_slot_undefined_at_zero(self, arity):
        exprs = ["1", "1", "1/abs(x)"] + ["1"] * (2 * int(arity) - 3)
        bounds = BoundSpec.from_expressions(arity, exprs)
        f = norm2f if arity is Arity.TWO else norm4f
        assert one_pass(f, bounds, 1, 20) == (
            InvalidBoundError,
            "bound raised ZeroDivisionError: float division by zero at probe 0.0",
        )

    def test_sample_failure_wins_over_zero_failure(self):
        # slot 1 is negative at every sample; slot 2 fails only at 0
        bounds = BoundSpec.from_expressions(Arity.TWO, ["1", "-1", "1/abs(x)", "1"])
        x2 = sample_at(Arity.TWO, 1, 20, 0)[2]
        assert one_pass(norm2f, bounds, 1, 20) == (
            InvalidBoundError, f"bound value -1.0 is not in [0, inf) at probe {x2!r}"
        )
