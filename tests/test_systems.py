import math
import sys
from fractions import Fraction
from itertools import product
from math import copysign

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    StreamSampler,
    reference_solve_four,
    reference_solve_two,
    system_four_defects,
    system_two_defects,
)
from sosq.systems import (
    CaseFour,
    CaseTwo,
    NonFiniteInputError,
    ResidualExceededError,
    solve_two,
    solve_four,
)

finite_100 = st.floats(min_value=-100, max_value=100, allow_nan=False)
# exact zeros plus magnitudes in [1e-30, 100]: heterogeneity far beyond the
# solver's stated sweep ranges but inside its documented precision envelope
coord = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-30, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=-1e-30, allow_nan=False),
)


class TestSolveTwo:
    def test_u_zero_v_positive(self):
        report = solve_two(0.0, 4.0)
        assert report.solution == (2.0, 0.0)
        assert report.case_label is CaseTwo.U0_VPOS

    def test_u_zero_v_negative(self):
        report = solve_two(0.0, -9.0)
        assert report.solution == (0.0, 3.0)
        assert report.case_label is CaseTwo.U0_VNEG

    def test_u_nonzero(self):
        # oracle: 2*1*1 = 2 and 1 - 1 = 0
        report = solve_two(2.0, 0.0)
        assert report.solution == (1.0, 1.0)
        assert report.case_label is CaseTwo.UNZ
        assert system_two_defects(2.0, 0.0, *report.solution) == (0.0, 0.0)

    def test_origin(self):
        report = solve_two(0.0, 0.0)
        assert report.solution == (0.0, 0.0)
        assert report.case_label is CaseTwo.U0_VPOS

    @given(finite_100, finite_100)
    def test_round_trip(self, u, v):
        report = solve_two(u, v)
        assert report.residual <= 1e-9
        assert report.norm_residual <= 1e-9

    @given(st.floats(min_value=-1, max_value=1, allow_nan=False),
           st.floats(min_value=10, max_value=1e6, allow_nan=False))
    def test_cancellation_stress(self, u, scale):
        # v far below -10|u|, where the textbook formula for x cancels
        v = -scale * (10.0 * abs(u) + 1.0)
        report = solve_two(u, v)
        assert report.residual <= 1e-9
        assert report.norm_residual <= 1e-9

    def test_seeded_sweep(self):
        for u, v in StreamSampler(17, 5000, -100, 100).tuples(2):
            report = solve_two(u, v)
            assert report.residual <= 1e-9
            assert report.norm_residual <= 1e-9

    def test_zero_eps_knob(self):
        assert solve_two(1e-40, 4.0).case_label is CaseTwo.UNZ
        report = solve_two(1e-40, 4.0, zero_eps=1e-30)
        assert report.case_label is CaseTwo.U0_VPOS
        assert report.solution == (2.0, 0.0)

    @pytest.mark.parametrize("eps", [-1.0, -0.5e-300, math.nan])
    def test_rejects_negative_zero_eps(self, eps):
        # u = 0 is U0_VPOS; an eps below 0 would report UNZ
        with pytest.raises(ValueError, match="zero_eps"):
            solve_two(0.0, 4.0, zero_eps=eps)

    @pytest.mark.parametrize("u,v", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite(self, u, v):
        with pytest.raises(NonFiniteInputError):
            solve_two(u, v)

    def test_canonical_branch_signs(self):
        # + branch: x >= 0 always, y carries the sign of u
        for u, v in [(3.0, 5.0), (-3.0, 5.0), (3.0, -5.0), (-3.0, -5.0)]:
            x, y = solve_two(u, v).solution
            assert x >= 0.0
            assert (y > 0) == (u > 0)


class TestSolveFour:
    def test_case_a(self):
        report = solve_four(0.0, -2.0, 0.0, 0.0)
        assert report.solution == (0.0, 1.0, 0.0, 1.0)
        assert report.case_label is CaseFour.A

    def test_zero_system(self):
        report = solve_four(0.0, 0.0, 0.0, 0.0)
        assert report.solution == (0.0, 0.0, 0.0, 0.0)
        assert report.case_label is CaseFour.A

    def test_case_b(self):
        report = solve_four(0.0, 2.0, 0.0, 0.0)
        assert report.case_label is CaseFour.B
        assert max(map(abs, system_four_defects(0, 2, 0, 0, *report.solution))) < 1e-12
        x, y, z, w = report.solution
        assert x == z == report.alpha == 1.0 and y == w == 0.0

    def test_case_c(self):
        # p = x + z = sqrt(0 + sqrt(16)) = 2 and y + w = a/p = 2, y = w
        report = solve_four(4.0, 0.0, 0.0, 0.0)
        assert report.solution == (1.0, 1.0, 1.0, 1.0)
        assert report.case_label is CaseFour.C
        assert system_four_defects(4, 0, 0, 0, *report.solution) == (0, 0, 0, 0)

    def test_case_d(self):
        # p = x + z = sqrt(0 + 1) = 1 = x - z, so z = alpha = z^2 = 0
        report = solve_four(0.0, 0.0, 0.0, 1.0)
        assert report.solution == (1.0, 0.0, 0.0, 0.0)
        assert report.case_label is CaseFour.D
        assert report.alpha == 0.0

    def test_case_d_opposite_orientation(self):
        # b < 0 with a = c = 0 forces x and z to take opposite signs
        report = solve_four(0.0, -5.0, 0.0, 2.0)
        x, y, z, w = report.solution
        assert report.case_label is CaseFour.D
        assert x * z < 0
        assert max(map(abs, system_four_defects(0, -5, 0, 2, x, y, z, w))) < 1e-9

    def test_every_case_label_reachable(self):
        hits = {
            solve_four(*args).case_label
            for args in [
                (0.0, -2.0, 0.0, 0.0),
                (1.0, 2.0, 1.0, 0.0),
                (4.0, 0.0, 0.0, 0.0),
                (1.0, 2.0, 3.0, 4.0),
            ]
        }
        assert hits == {CaseFour.A, CaseFour.B, CaseFour.C, CaseFour.D}

    @given(coord, coord, coord, coord)
    def test_round_trip(self, a, b, c, d):
        report = solve_four(a, b, c, d)
        assert report.residual <= 1e-6
        assert report.norm_residual <= 1e-6

    def test_seeded_sweep(self):
        for a, b, c, d in StreamSampler(23, 5000, -100, 100).tuples(4):
            report = solve_four(a, b, c, d)
            assert report.residual <= 1e-6
            assert report.norm_residual <= 1e-6

    @given(finite_100, finite_100, finite_100,
           st.floats(min_value=0.001, max_value=100, allow_nan=False),
           st.booleans())
    def test_case_d_alpha_admissible(self, a, b, c, mag, neg):
        d = -mag if neg else mag
        report = solve_four(a, b, c, d)
        assert report.case_label is CaseFour.D
        assert report.alpha >= 0.0
        assert report.alpha >= -d

    def test_canonical_sign(self):
        # p = x + z is the nonnegative root: of the pair +/-(x, y, z, w) the
        # solver returns the one with x + z > 0, or x = z = 0 and y = w >= 0
        structured = [(0.0, -2.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0, -1.0), (0.0, -5.0, 0.0, -2.0),
                      (1.0, -4.0, 1.0, -2.0), (4.0, 0.0, 0.0, 0.0)]
        for rhs in [*StreamSampler(29, 2000, -100, 100).tuples(4), *structured]:
            x, y, z, w = solve_four(*rhs).solution
            assert x + z > 0.0 or (x == z == 0.0 and y == w >= 0.0), rhs

    @pytest.mark.parametrize("b", [0.0, -0.0, -5e-324, -1.0])
    def test_no_negative_zero_where_p_is_zero(self, b):
        # a = c = d = +-0 puts p = x + z at 0, where q is the literal 0.0;
        # a tiny d beside b < 0 leaves p at or just above 0
        rhs = [(a, b, c, d) for a, c, d in product((0.0, -0.0), repeat=3)]
        if b < 0.0:
            rhs += [(a, b, 0.0, d) for a in (0.0, -0.0) for d in (5e-324, -5e-324, -1e-310)]
        for a, b, c, d in rhs:
            x, _, z, _ = solve_four(a, b, c, d).solution
            assert copysign(1.0, x) > 0.0 or x < 0.0, (a, b, c, d)
            assert copysign(1.0, z) > 0.0 or z < 0.0, (a, b, c, d)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_unsigning_add_on_x_and_z_is_reached(self, sign):
        # in b's units p = 2^-1022 and q = d, so p + q (d < 0) or p - q
        # (d > 0) is -2^-1074, which halves to -0.0: the + 0.0 on x or z
        # makes it +0.0
        rhs = (1.0, -(2.0**1021), 0.0, sign * (2.0**-1022 + 5e-324))
        report = solve_four(*rhs)
        x, _, z, _ = report.solution
        zero = x if sign < 0.0 else z
        assert zero == 0.0 and copysign(1.0, zero) == 1.0
        assert report.case_label is CaseFour.D
        assert repr(report) == repr(reference_solve_four(*rhs))

    def test_zero_eps_knob(self):
        assert solve_four(4.0, 0.0, 0.0, 1e-40).case_label is CaseFour.D
        report = solve_four(4.0, 0.0, 0.0, 1e-40, zero_eps=1e-30)
        assert report.case_label is CaseFour.C

    @pytest.mark.parametrize("eps", [-1.0, -0.5e-300, math.nan])
    def test_rejects_negative_zero_eps(self, eps):
        # d = 0 with b > 0 is case B; an eps below 0 would report D
        with pytest.raises(ValueError, match="zero_eps"):
            solve_four(1.0, 4.0, 1.0, 0.0, zero_eps=eps)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            solve_four(1.0, math.nan, 0.0, 0.0)

    def test_case_d_when_d_underflows_at_b_scale(self):
        # scaled by b's magnitude, d underflows to 0, so q = x - z is 0 and
        # x + z comes from c alone
        rhs = (0.0, -1e200, 1e50, 1e-250)
        report = solve_four(*rhs)
        assert report.case_label is CaseFour.D
        defects = system_four_defects(*rhs, *report.solution)
        assert max(map(abs, defects)) <= 1e-6 * (1.0 + sum(map(abs, rhs)))

    def test_case_d_when_every_square_underflows_at_b_scale(self):
        # a, c and d square to 0 at b's scale, but c itself does not: c stays
        # in y and w, while q = d/p is lost in rounding x = (p + q)/2, so
        # x = z and d is the residual
        rhs = (0.0, 1.0045e-48, -3.5715e-276, -1.5145e-299)
        report = solve_four(*rhs)
        assert report.case_label is CaseFour.D
        assert report.residual == 1.5145e-299
        assert report.solution[1] != 0.0 and report.solution[3] != 0.0

    @given(
        st.floats(min_value=-100, max_value=300),
        st.floats(min_value=150, max_value=400),
        st.one_of(st.none(), st.floats(min_value=0, max_value=400)),
        st.one_of(st.none(), st.floats(min_value=0, max_value=400)),
        st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
    )
    def test_tiny_d_solves_or_reports_residual(self, eb, kd, ka, kc, signs):
        # |d| << |b|, with a and c zero or anywhere below b
        mag = lambda k: 0.0 if k is None else 10.0 ** (eb - k)
        rhs = tuple(s * t for s, t in zip(signs, (mag(ka), 10.0**eb, mag(kc), mag(kd))))
        assume(rhs[3] != 0.0)
        try:
            report = solve_four(*rhs)
        except ResidualExceededError:
            return
        assert report.case_label is CaseFour.D
        defects = system_four_defects(*rhs, *report.solution)
        assert max(map(abs, defects)) <= 1e-6 * (1.0 + sum(map(abs, rhs)))

    def test_residual_error_carries_value(self):
        exc = ResidualExceededError("boom", 0.25)
        assert exc.residual == 0.25


# the whole finite double range: Hypothesis's own float edges (0, subnormals,
# DBL_MAX) plus magnitudes spread evenly over the decades
FULL_RANGE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        lambda e, sign: sign * 10.0**e,
        st.floats(min_value=-308, max_value=308),
        st.sampled_from((-1.0, 1.0)),
    ),
)


def within_tol_exactly(defects, rhs, solution, tol):
    """Substitution in exact rationals, so no scale overflows or underflows."""
    rhs = [Fraction(t) for t in rhs]
    worst = max(map(abs, defects(*rhs, *map(Fraction, solution))))
    return worst <= Fraction(tol) * (1 + sum(map(abs, rhs)))


class TestFullRange:
    """Every finite input has a solution within tol; solve_two may still raise
    ResidualExceededError."""

    @given(FULL_RANGE, FULL_RANGE)
    def test_solve_two(self, u, v):
        try:
            report = solve_two(u, v)
        except ResidualExceededError:
            return
        assert within_tol_exactly(system_two_defects, (u, v), report.solution, report.tol)

    @given(FULL_RANGE, FULL_RANGE, FULL_RANGE, FULL_RANGE)
    @example(-7.378153465096395e-172, -9.299243311026257e305,
             7.964156753622094e-201, -1.7976931348623157e308)
    @example(6.242860920368655e-05, -2.154589341872986e201,
             -1.7976931348623157e308, -1.7976931348623157e308)
    # b < 0 dominates a, c and d by over 100 orders of magnitude, and
    # x + z rounds to 0 beside x - z
    @example(-3.2805988059568653e+76, -1.5827434674871792e+201,
             -5.144581422464274e-197, -2.5331356772152737e+25)
    @example(-1.0436168875176836e-143, -1.2309144494234267e+213,
             -8.777610288146277e+85, -7686772.250251657)
    # a, c and d subnormal at b's scale: the direction of (a, c, d) needs
    # its own scale
    @example(-1.233840817143603e-109, -3.475440372314721e+265,
             -9.090329116752127e-61, -3.930714519103368e+106)
    @example(1.9264411704768078e-221, -5.7423706836746385e+240,
             -3.6121638831020043e+80, -2.9225246769502383e+50)
    def test_solve_four(self, a, b, c, d):
        report = solve_four(a, b, c, d)
        rhs = (a, b, c, d)
        assert within_tol_exactly(system_four_defects, rhs, report.solution, report.tol)
        # the canonical sign, up to rounding where x + z is far below x - z
        x, _, z, _ = report.solution
        assert x >= -z

    def test_alpha_past_the_double_range_is_inf(self):
        # branch D's alpha is a squared coordinate; the solution stays finite
        report = solve_four(6.242860920368655e-05, -2.154589341872986e201,
                            -1.7976931348623157e308, -1.7976931348623157e308)
        assert report.case_label is CaseFour.D
        assert report.alpha == math.inf
        assert all(math.isfinite(t) for t in report.solution)


# zero or 1e-100 <= |t| <= 1e100: scaled by 4**k with |k| <= 60, still normal
SCALABLE = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


def assert_scales_exactly(solve, rhs, k):
    """solve(4**k * rhs) is 2**k * solve(rhs), bit for bit."""
    base = solve(*rhs).solution
    assume(all(t == 0.0 or abs(t) >= 2.0**60 * sys.float_info.min for t in base))
    scaled = solve(*(math.ldexp(t, 2 * k) for t in rhs)).solution
    assert scaled == tuple(math.ldexp(t, k) for t in base)


class TestPowerOfFourScaling:
    """The even-power-of-two normalization is exact (module docstring)."""

    @given(st.tuples(SCALABLE, SCALABLE), st.integers(-60, 60))
    def test_solve_two(self, rhs, k):
        assert_scales_exactly(solve_two, rhs, k)

    @given(st.tuples(SCALABLE, SCALABLE, SCALABLE, SCALABLE), st.integers(-60, 60))
    def test_solve_four(self, rhs, k):
        assert_scales_exactly(solve_four, rhs, k)


# The shipped solvers against their bodies from before the flattening: every
# field's repr, or the error's type, message and residual, bit for bit.
DBL_MAX = sys.float_info.max
any_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, DBL_MAX, -DBL_MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# None stands for the solver's default tol
tols = st.sampled_from([None, 0.0, 1e-300])
zero_epss = st.sampled_from([0.0, 5e-324, 1.0, 1e300])


def outcome(solve, rhs, tol, zero_eps):
    kwargs = {"zero_eps": zero_eps} if tol is None else {"tol": tol, "zero_eps": zero_eps}
    try:
        report = solve(*rhs, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), repr(getattr(exc, "residual", None))
    return type(report), [repr(field) for field in report]


class TestMatchesReference:
    @settings(max_examples=500)
    @given(any_finite, any_finite, tols, zero_epss)
    @example(1e-320, -5e-324, None, 0.0)
    @example(3.0, -1e200, 1e-300, 0.0)
    # a zero component that comes out as -0.0 before it is unsigned
    @example(0.0, -0.0, None, 0.0)
    @example(-5e-324, 1.0, None, 0.0)
    def test_solve_two(self, u, v, tol, zero_eps):
        expected = outcome(reference_solve_two, (u, v), tol, zero_eps)
        assert outcome(solve_two, (u, v), tol, zero_eps) == expected

    @settings(max_examples=500)
    @given(any_finite, any_finite, any_finite, any_finite, tols, zero_epss)
    @example(0.0, -5e-324, 0.0, 0.0, None, 0.0)
    @example(0.0, 0.0, 5e-324, 1.0, None, 0.0)
    @example(0.0, 0.0, -5e-324, 1.0, None, 0.0)
    def test_solve_four(self, a, b, c, d, tol, zero_eps):
        expected = outcome(reference_solve_four, (a, b, c, d), tol, zero_eps)
        assert outcome(solve_four, (a, b, c, d), tol, zero_eps) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", range(4))
    def test_non_finite_inputs(self, bad, at):
        rhs = [1.0, -2.0, 3.0, -4.0]
        rhs[at] = bad
        four = outcome(solve_four, rhs, None, 0.0)
        assert four == outcome(reference_solve_four, rhs, None, 0.0)
        assert four[0] is NonFiniteInputError
        if at < 2:
            two = outcome(solve_two, rhs[:2], None, 0.0)
            assert two == outcome(reference_solve_two, rhs[:2], None, 0.0)
            assert two[0] is NonFiniteInputError

    @pytest.mark.parametrize("zero_eps", [math.nan, -0.0, -5e-324, -1.0])
    def test_zero_eps_at_and_below_zero(self, zero_eps):
        for solve, reference, rhs in [
            (solve_two, reference_solve_two, (0.0, 4.0)),
            (solve_four, reference_solve_four, (0.0, -2.0, 0.0, 0.0)),
        ]:
            assert outcome(solve, rhs, None, zero_eps) == outcome(reference, rhs, None, zero_eps)


def binade(lo, hi):
    """Doubles of either sign, m * 2^k with 1 <= m < 2 and lo <= k <= hi."""
    return st.builds(
        lambda m, k, sign: sign * math.ldexp(m, k),
        st.floats(1.0, 2.0, exclude_max=True),
        st.integers(lo, hi),
        st.sampled_from((-1.0, 1.0)),
    )


ZEROS = st.sampled_from((0.0, -0.0))


@st.composite
def around(draw, n, big, small):
    """n components: one drawn from big, at a drawn position, the rest from small."""
    rhs = [draw(small) for _ in range(n - 1)]
    rhs.insert(draw(st.integers(0, n - 1)), draw(big))
    return tuple(rhs)


@st.composite
def subnormal_back(draw, n):
    """One component of scale 2^k, k in [-104, 0], beside tiny ones, so that
    the small solution components land subnormal: their scaled values can be
    normal, and the scale-back by 2^(k/2) then rounds them."""
    k = draw(st.integers(-104, 0))
    return draw(around(n, binade(k, k), st.one_of(ZEROS, binade(-1074, -1022 + k // 2))))


# a largest magnitude in [2^-1025, 2^-1021), so that e2 (or e3) is -1024 or
# -1022: the last even exponent whose 2^-e overflows, and the first that fits
BAND = binade(-1025, -1022)
BELOW_BAND = st.one_of(ZEROS, binade(-1074, -1022))
# b < 0 and |b| >> 1, so that (a, c, d) is scaled on its own, by 2^-e3
FAR_BELOW_ZERO = binade(0, 1023).map(lambda b: -abs(b))


def even_exponent(*values):
    return math.frexp(max(map(abs, values)))[1] & -2


class TestScalingEdges:
    """The solvers scale by multiplying with 2^-e2, 2^-e3 and 2^(e2/2), and
    by ldexp only where 2^-e2 or 2^-e3 overflows; the reference solvers scale
    every component by ldexp.  Every field matches, or the same error, at
    the edges of that split and where the scaled-back solution is subnormal."""

    @given(around(2, BAND, BELOW_BAND))
    @example((5.562684646268003e-309, -3e-309))  # e2 = -1024
    @example((3.337610787760802e-308, 1e-310))  # e2 = -1022
    def test_two_at_the_overflow_edge(self, rhs):
        assert even_exponent(*rhs) in (-1024, -1022)
        assert outcome(solve_two, rhs, None, 0.0) == outcome(reference_solve_two, rhs, None, 0.0)

    @given(around(4, BAND, BELOW_BAND))
    # e2 = e3 = -1024, case D
    @example((-2e-309, -5.562684646268003e-309, 1e-310, 3e-309))
    @example((1e-310, 3.337610787760802e-308, -5e-324, 0.0))  # e2 = -1022, case B
    def test_four_at_the_overflow_edge(self, rhs):
        assert even_exponent(*rhs) in (-1024, -1022)
        expected = outcome(reference_solve_four, rhs, None, 0.0)
        assert outcome(solve_four, rhs, None, 0.0) == expected

    @given(around(3, BAND, BELOW_BAND), FAR_BELOW_ZERO)
    @example((5.562684646268003e-309, -2.781342323134e-309, 0.0), -1e300)  # e3 = -1024
    @example((-3e-308, 1e-308, 2e-309), -1e300)  # e3 = -1022
    @example((-5e-324, 0.0, 3e-309), -1.5)  # e3 = -1024, case D
    def test_four_direction_at_the_overflow_edge(self, acd, b):
        assert even_exponent(*acd) in (-1024, -1022)
        rhs = (acd[0], b, acd[1], acd[2])
        expected = outcome(reference_solve_four, rhs, None, 0.0)
        assert outcome(solve_four, rhs, None, 0.0) == expected

    SUBNORMAL_TWO = [(7.1e-317, 8.881784197001253e-17), (-7.1e-317, -2.6645352591003756e-16)]
    # case D with b > 0, and case C, where b < 0 and x = z come out subnormal
    SUBNORMAL_FOUR = [(-2.33e-315, 7.15e-13, -4.93e-319, 7.91e-320), (0.0, -1.61e-27, 5e-324, 0.0)]

    @given(subnormal_back(2))
    @example(SUBNORMAL_TWO[0])
    @example(SUBNORMAL_TWO[1])
    def test_two_scaled_back_to_subnormal(self, rhs):
        assert outcome(solve_two, rhs, None, 0.0) == outcome(reference_solve_two, rhs, None, 0.0)

    @given(subnormal_back(4))
    @example(SUBNORMAL_FOUR[0])
    @example(SUBNORMAL_FOUR[1])
    def test_four_scaled_back_to_subnormal(self, rhs):
        expected = outcome(reference_solve_four, rhs, None, 0.0)
        assert outcome(solve_four, rhs, None, 0.0) == expected

    @pytest.mark.parametrize("rhs", SUBNORMAL_TWO + SUBNORMAL_FOUR)
    def test_subnormal_examples_round_on_the_way_back(self, rhs):
        # a subnormal component scaled back from a normal value in scaled
        # units, where the multiply by 2^(e2/2) can round
        solve = solve_two if len(rhs) == 2 else solve_four
        root = 2.0 ** (even_exponent(*rhs) // 2)
        tiny = [t for t in solve(*rhs).solution if 0.0 < abs(t) < sys.float_info.min]
        assert tiny and all(abs(t) / root >= sys.float_info.min for t in tiny)


def profile_events(solve, rhs):
    """The (event, frame's code name, arg) of each sys.setprofile event in
    one solve(*rhs)."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append((event, frame.f_code.co_name, arg)))
    try:
        solve(*rhs)
    finally:
        sys.setprofile(None)
    return events


# one input per case label
CASE_INPUTS = [
    ((0.0, 4.0), CaseTwo.U0_VPOS),
    ((0.0, -9.0), CaseTwo.U0_VNEG),
    ((3.0, -1e200), CaseTwo.UNZ),
    ((0.0, -4.0, 0.0, 0.0), CaseFour.A),
    ((1.0, 4.0, 1.0, 0.0), CaseFour.B),
    ((1.0, -4.0, 1.0, 0.0), CaseFour.C),
    ((1e-200, -1e150, 3.0, -2.0), CaseFour.D),
]


@pytest.mark.parametrize("rhs, case", CASE_INPUTS, ids=[case.name for _, case in CASE_INPUTS])
def test_a_solve_runs_in_one_python_frame(rhs, case):
    # the report is built by a C call, not by SolveReport._make's own frame
    solve = solve_two if len(rhs) == 2 else solve_four
    assert solve(*rhs).case_label is case
    calls = [name for event, name, _ in profile_events(solve, rhs) if event == "call"]
    assert calls == [solve.__name__]


@pytest.mark.parametrize("rhs, case", CASE_INPUTS, ids=[case.name for _, case in CASE_INPUTS])
def test_one_ldexp_per_power_of_two(rhs, case):
    # on normal-range inputs: 2^-e2 and 2^(e2/2), and for b < 0 also 2^-e3
    # and the norm of (a, c, d) taken from e3's scale to e2's
    solve = solve_two if len(rhs) == 2 else solve_four
    assert solve(*rhs).case_label is case
    events = profile_events(solve, rhs)
    calls = sum(event == "c_call" and arg is math.ldexp for event, _, arg in events)
    assert calls == (4 if len(rhs) == 4 and rhs[1] < 0.0 else 2)
