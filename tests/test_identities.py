import pytest
from hypothesis import given
from hypothesis import strategies as st

from sosq.identities import (
    IntPair,
    IntQuad,
    compose_two,
    compose_four,
    compose_two_raw,
    compose_four_raw,
    norm2,
    norm4,
)
from sosq.sampling import UniformSampler

ints = st.integers()
small_ints = st.integers(min_value=-1000, max_value=1000)


class TestComposeTwo:
    def test_identity_element(self):
        assert compose_two(IntPair(1, 0), IntPair(3, 4)) == IntPair(3, 4)

    def test_mixed_pair(self):
        # oracle: 5 * 5 = 25 = 4^2 + (-3)^2
        result = compose_two(IntPair(1, 2), IntPair(2, 1))
        assert result == IntPair(4, -3)
        assert norm2(result) == 25 == norm2(IntPair(1, 2)) * norm2(IntPair(2, 1))

    def test_equal_pairs(self):
        # oracle: 2 * 2 = 4 = 2^2 + 0^2
        result = compose_two(IntPair(1, 1), IntPair(1, 1))
        assert result == IntPair(2, 0)
        assert norm2(result) == 4

    @given(small_ints, small_ints)
    def test_identity_on_left(self, x, y):
        assert compose_two(IntPair(1, 0), IntPair(x, y)) == IntPair(x, y)

    @given(ints, ints, ints, ints)
    def test_norm_law_exact(self, x1, y1, x2, y2):
        p1, p2 = IntPair(x1, y1), IntPair(x2, y2)
        assert norm2(compose_two(p1, p2)) == norm2(p1) * norm2(p2)

    def test_norm_law_huge_integers(self):
        p1 = IntPair(10**60 + 7, -(10**59))
        p2 = IntPair(3**40, 7**33)
        assert norm2(compose_two(p1, p2)) == norm2(p1) * norm2(p2)


class TestComposeFour:
    def test_identity_element(self):
        q = IntQuad(2, 3, 5, 7)
        assert compose_four(IntQuad(1, 0, 0, 0), q) == q

    def test_all_ones_squared(self):
        result = compose_four(IntQuad(1, 1, 1, 1), IntQuad(1, 1, 1, 1))
        assert result == IntQuad(4, 0, 0, 0)
        assert norm4(result) == 16

    def test_second_axis_squared(self):
        result = compose_four(IntQuad(0, 1, 0, 0), IntQuad(0, 1, 0, 0))
        assert result == IntQuad(1, 0, 0, 0)
        assert norm4(result) == 1

    @given(*([small_ints] * 8))
    def test_norm_law_exact(self, x1, y1, z1, w1, x2, y2, z2, w2):
        q1, q2 = IntQuad(x1, y1, z1, w1), IntQuad(x2, y2, z2, w2)
        assert norm4(compose_four(q1, q2)) == norm4(q1) * norm4(q2)

    @given(*([ints] * 8))
    def test_norm_law_unbounded(self, x1, y1, z1, w1, x2, y2, z2, w2):
        q1, q2 = IntQuad(x1, y1, z1, w1), IntQuad(x2, y2, z2, w2)
        assert norm4(compose_four(q1, q2)) == norm4(q1) * norm4(q2)


class TestNorms:
    def test_zero(self):
        assert norm2(IntPair(0, 0)) == 0

    def test_pythagorean(self):
        assert norm2(IntPair(3, 4)) == 25

    def test_quad(self):
        assert norm4(IntQuad(1, 1, 1, 1)) == 4

    @given(ints, ints)
    def test_nonnegative(self, x, y):
        assert norm2(IntPair(x, y)) >= 0


class TestRawHelpers:
    def test_raw_matches_wrapped(self):
        assert compose_two_raw(1, 2, 2, 1) == (4, -3)
        assert compose_four_raw(1, 1, 1, 1, 1, 1, 1, 1) == (4, 0, 0, 0)

    @given(*([st.floats(-100, 100)] * 4))
    def test_float_self_composition_zeroes_second_component(self, x, y, z, w):
        # on a self-composed tuple every component after the first is an
        # exact floating-point zero
        out = compose_four_raw(x, y, z, w, x, y, z, w)
        assert out[1] == 0.0 and out[2] == 0.0 and out[3] == 0.0

    @given(st.floats(-100, 100), st.floats(-100, 100))
    def test_float_pair_self_composition(self, x, y):
        assert compose_two_raw(x, y, x, y)[1] == 0.0


class TestValidation:
    def test_pair_rejects_floats(self):
        with pytest.raises(TypeError):
            IntPair(1.5, 2)

    def test_quad_rejects_floats(self):
        with pytest.raises(TypeError):
            IntQuad(1, 2, 3, 4.0)

    @pytest.mark.parametrize("bad", [2.0, "2", None])
    def test_non_int_components_rejected_in_every_slot(self, bad):
        for i in range(2):
            with pytest.raises(TypeError):
                IntPair(*[bad if j == i else 1 for j in range(2)])
        for i in range(4):
            with pytest.raises(TypeError):
                IntQuad(*[bad if j == i else 1 for j in range(4)])

    def test_replace_is_checked(self):
        with pytest.raises(TypeError):
            IntPair(1, 2)._replace(y=2.5)
        with pytest.raises(TypeError):
            IntQuad(1, 2, 3, 4)._replace(w="4")
        assert IntQuad(1, 2, 3, 4)._replace(w=5) == IntQuad(1, 2, 3, 5)

    def test_wrong_arity_rejected(self):
        with pytest.raises(TypeError):
            IntPair(1, 2, 3)
        with pytest.raises(TypeError):
            IntQuad(1, 2, 3)

    def test_attribute_assignment_refused(self):
        p, q = IntPair(3, 4), IntQuad(1, 2, 3, 4)
        for obj, attr in ((p, "x"), (p, "y"), (q, "z"), (q, "w"), (p, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 0)
        assert p == IntPair(3, 4) and q == IntQuad(1, 2, 3, 4)


class TestValueSemantics:
    def test_repr(self):
        assert repr(IntPair(3, -4)) == "IntPair(x=3, y=-4)"
        assert repr(IntQuad(1, 2, 3, 4)) == "IntQuad(x=1, y=2, z=3, w=4)"

    def test_fields(self):
        p, q = IntPair(3, 4), IntQuad(1, 2, 3, 4)
        assert (p.x, p.y) == (3, 4)
        assert (q.x, q.y, q.z, q.w) == (1, 2, 3, 4)

    def test_equality_and_hash(self):
        assert IntPair(3, 4) == IntPair(3, 4)
        assert IntPair(3, 4) != IntPair(4, 3)
        assert IntQuad(1, 2, 3, 4) != IntQuad(1, 2, 3, 5)
        assert hash(IntPair(3, 4)) == hash(IntPair(3, 4))
        assert len({IntPair(3, 4), IntPair(3, 4), IntPair(4, 3)}) == 2
        assert {IntQuad(1, 0, 0, 0): "one"}[IntQuad(1, 0, 0, 0)] == "one"

    def test_composition_returns_wrapper_type(self):
        assert type(compose_two(IntPair(1, 2), IntPair(3, 4))) is IntPair
        assert type(compose_four(IntQuad(1, 2, 3, 4), IntQuad(5, 6, 7, 8))) is IntQuad


def test_seeded_sweep_norm_law():
    # smaller sibling of the acceptance sweep
    for sample in UniformSampler(3, 20000, -1000, 1000, integer=True).tuples(4):
        x1, y1, x2, y2 = (int(t) for t in sample)
        p1, p2 = IntPair(x1, y1), IntPair(x2, y2)
        assert norm2(compose_two(p1, p2)) == norm2(p1) * norm2(p2)
