import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sosq.exprs import MAX_DEPTH, MAX_TOKENS, ExpressionError, parse_bound_expression


def ev(src, x=0.0):
    return parse_bound_expression(src)(x)


class TestGrammar:
    def test_literal(self):
        assert ev("2.5") == 2.5
        assert ev("1e-3") == 1e-3
        assert ev(".5") == 0.5

    def test_variable(self):
        assert ev("x", 3.0) == 3.0

    def test_precedence(self):
        assert ev("1 + 2 * 3") == 7.0
        assert ev("(1 + 2) * 3") == 9.0
        assert ev("8 / 2 / 2") == 2.0
        assert ev("2 - 3 - 4") == -5.0

    def test_unary_minus(self):
        assert ev("-3") == -3.0
        assert ev("--3") == 3.0
        assert ev("4 * -2") == -8.0

    def test_functions(self):
        assert ev("abs(-4)") == 4.0
        assert ev("pow(2, 10)") == 1024.0
        assert ev("min(3, 1, 2)") == 1.0
        assert ev("max(3, 1, 2)") == 3.0

    def test_nesting(self):
        assert ev("min(abs(x - 4), pow(x, 2))", 3.0) == 1.0
        assert ev("max(0, min(1, x))", 0.25) == 0.25

    def test_whitespace_insensitive(self):
        assert ev(" 1+ 2 *x ", 2.0) == ev("1+2*x", 2.0) == 5.0

    def test_literals_are_floats(self):
        assert type(ev("pow(2, 10)")) is float
        assert ev("007") == 7.0

    @given(st.floats(min_value=-100, max_value=100))
    def test_quarter_min_identity(self, x):
        fn = parse_bound_expression("min(1/4, abs(x))")
        assert fn(x) == min(0.25, abs(x))


class TestColumns:
    """fn.columns(xs) is [fn(x) for x in xs], bit for bit, or the same error."""

    SOURCES = [
        "x", "7", "1+abs(x)", "2+x*x", "max(1,abs(x))", "pow(x,2)+1",
        "min(x*x+1,100)", "min(1/4, abs(x))", "pow(x,0.5)", "1/abs(x)",
        "pow(9.99-abs(x),0.5)", "-(x - 1e308) * 10", "pow(x, -1)",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    @given(st.lists(st.floats(), max_size=20))
    def test_matches_the_lambda(self, src, xs):
        fn = parse_bound_expression(src)
        assert outcome(fn.columns, xs) == outcome(lambda xs: [fn(x) for x in xs], xs)

    def test_values_in_column_order(self):
        fn = parse_bound_expression("x*x + 1")
        assert fn.columns((0.0, 1.0, -2.0)) == [1.0, 2.0, 5.0]
        assert fn.columns([]) == []


class TestErrors:
    @pytest.mark.parametrize(
        "src,fragment",
        [
            ("2 +", "<end>"),
            ("foo(1)", "foo"),
            ("min(1)", "min"),
            ("pow(1, 2, 3)", "pow"),
            ("1 2", "2"),
            (")", ")"),
            ("", "<end>"),
            ("x y", "y"),
            ("1 % 2", "%"),
            ("min(1", "<end>"),
        ],
    )
    def test_offending_token_reported(self, src, fragment):
        with pytest.raises(ExpressionError) as exc:
            parse_bound_expression(src)
        assert fragment in str(exc.value)

    def test_division_by_zero_propagates(self):
        fn = parse_bound_expression("1 / x")
        with pytest.raises(ZeroDivisionError):
            fn(0.0)

    def test_errors_carry_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_bound_expression("1 + bogus")
        assert exc.value.token == "bogus"
        assert exc.value.position == 4


def nested(depth, form="({})"):
    src = "x"
    for _ in range(depth):
        src = form.format(src)
    return src


class TestLimits:
    """Sources up to the limits compile and run; past them, ExpressionError."""

    @pytest.mark.parametrize(
        "src,value",
        [
            ("-x" + " + x" * (MAX_TOKENS // 2 - 1), 249.0),
            ("x" + " * -x" * ((MAX_TOKENS - 1) // 3), -(0.5**334)),
            ("-" * (MAX_TOKENS - 1) + "x", -0.5),
            ("min(" + ", ".join(["x"] * (MAX_TOKENS // 2 - 1)) + ")", 0.5),
            (nested(MAX_DEPTH), 0.5),
            (nested(MAX_DEPTH, "abs({})"), 0.5),
            (nested(MAX_DEPTH, "pow({}, 1)"), 0.5),
            (nested(MAX_DEPTH // 2, "-(-({}) + 1) - 1"), -99.5),
        ],
        ids=["sum", "product", "negations", "min", "parens", "abs", "pow", "mixed"],
    )
    def test_at_the_limits(self, src, value):
        fn = parse_bound_expression(src)
        assert fn(0.5) == value
        assert fn.columns([0.5, 0.5]) == [value, value]

    def test_one_token_too_many(self):
        src = "x" + " + x" * (MAX_TOKENS // 2)
        with pytest.raises(ExpressionError) as exc:
            parse_bound_expression(src)
        assert (exc.value.token, exc.value.position) == ("x", src.rindex("x"))
        assert f"more than {MAX_TOKENS} tokens" in str(exc.value)

    @pytest.mark.parametrize("form", ["({})", "abs({})", "min({}, 1)"])
    def test_one_level_too_deep(self, form):
        src = nested(MAX_DEPTH + 1, form)
        with pytest.raises(ExpressionError) as exc:
            parse_bound_expression(src)
        assert exc.value.token == "("
        assert src[: exc.value.position + 1].count("(") == MAX_DEPTH + 1
        assert f"nested deeper than {MAX_DEPTH}" in str(exc.value)

    @pytest.mark.parametrize(
        "src", ["x" + "+x" * 4999, nested(250), "-" * 5000 + "x"], ids=["sum", "parens", "neg"]
    )
    def test_far_past_the_limits(self, src):
        with pytest.raises(ExpressionError):
            parse_bound_expression(src)


# operand source -> its generic closure; "abs(x-1)" stands for any
# compiled subexpression, which its parent has to call
OPERANDS = {
    "0": lambda x: 0.0,
    "2.5": lambda x: 2.5,
    "1e300": lambda x: 1e300,
    "x": lambda x: x,
    "abs(x-1)": lambda x: abs(x - 1.0),
}
# operator form -> the generic nested closure over its operands' closures
FORMS = {
    "{} + {}": lambda a, b: lambda x: a(x) + b(x),
    "{} - {}": lambda a, b: lambda x: a(x) - b(x),
    "{} * {}": lambda a, b: lambda x: a(x) * b(x),
    "{} / {}": lambda a, b: lambda x: a(x) / b(x),
    "pow({}, {})": lambda a, b: lambda x: a(x) ** b(x),
    "min({}, {})": lambda a, b: lambda x: min(f(x) for f in (a, b)),
    "max({}, {})": lambda a, b: lambda x: max(f(x) for f in (a, b)),
    "min({}, {}, {})": lambda a, b, c: lambda x: min(f(x) for f in (a, b, c)),
    "-{}": lambda a: lambda x: -a(x),
    "-(-{})": lambda a: lambda x: -(-a(x)),
    "abs({})": lambda a: lambda x: abs(a(x)),
}
PROBES = (0.0, -0.0, 1.0, -3.5, 0.5, 1e300, -1e300, 7.25e-310)


def outcome(fn, x):
    """The value's type and repr (bit-exact, -0.0 included), or the error type."""
    try:
        value = fn(x)
    except Exception as exc:
        return type(exc)
    return type(value), repr(value)


class TestSpecialisedShapes:
    """Constant and x operands are read in place; nothing else changes."""

    @pytest.mark.parametrize("form", list(FORMS))
    def test_every_operand_shape_matches_nested_closures(self, form):
        for args in itertools.product(OPERANDS, repeat=form.count("{}")):
            fn = parse_bound_expression(form.format(*args))
            generic = FORMS[form](*(OPERANDS[arg] for arg in args))
            for x in PROBES:
                assert outcome(fn, x) == outcome(generic, x), (form.format(*args), x)
            each = outcome(lambda xs: [generic(x) for x in xs], PROBES)
            assert outcome(fn.columns, PROBES) == each, form.format(*args)
