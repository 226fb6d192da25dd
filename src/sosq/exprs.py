"""Recursive-descent parser for one-variable bound expressions.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | 'x' | '(' expr ')' | NAME '(' expr (',' expr)* ')'
    NAME   := 'abs' | 'min' | 'max' | 'pow'

parse_bound_expression compiles the source into a plain float -> float
callable, one closure per operator node.  A node reads its constant and x
operands in place rather than calling a closure for each, and min/max of
two arguments are called without a generator; the float operations and
their order are those of the source.  The closure factories are generated
from the fixed templates in _FORMS; the source itself is never eval()'d.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable

__all__ = ["ExpressionError", "parse_bound_expression"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/(),]))"
)

_FUNCTIONS: dict[str, tuple[int, int | None]] = {
    # name: (min arity, max arity or None for unbounded)
    "abs": (1, 1),
    "pow": (2, 2),
    "min": (2, None),
    "max": (2, None),
}


# A compiled operand is (shape, payload): a constant with its value, the
# variable x, or a call of a compiled closure.
_CONST, _VAR, _CALL = "const", "var", "call"
_READ = {_CONST: "{}", _VAR: "x", _CALL: "{}(x)"}
_FORMS = {
    "+": "{} + {}",
    "-": "{} - {}",
    "*": "{} * {}",
    "/": "{} / {}",
    "neg": "-{}",
    "abs": "abs({})",
    "pow": "{} ** {}",
    "min": "min({}, {})",
    "max": "max({}, {})",
}


@functools.cache
def _factory(form: str, shapes: tuple[str, ...]) -> Callable:
    """make(*payloads) -> the closure of _FORMS[form] over operands of these
    shapes, each read in place; generated from the template alone."""
    params = ("a", "b")[: len(shapes)]
    body = _FORMS[form].format(*(_READ[s].format(p) for s, p in zip(shapes, params)))
    namespace: dict = {}
    exec(f"def make({', '.join(params)}):\n    return lambda x: {body}\n", namespace)
    return namespace["make"]


def _apply(form: str, *operands):
    shapes = tuple(shape for shape, _ in operands)
    return _CALL, _factory(form, shapes)(*(payload for _, payload in operands))


def _closure(operand) -> Callable[[float], float]:
    shape, payload = operand
    if shape == _CALL:
        return payload
    if shape == _VAR:
        return lambda x: x
    return lambda x: payload


class ExpressionError(ValueError):
    """Malformed bound expression; remembers the offending token."""

    def __init__(self, message: str, token: str, position: int) -> None:
        super().__init__(f"{message} (token {token!r} at position {position})")
        self.token = token
        self.position = position


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stray = src[pos:].lstrip()
            if not stray:
                break
            at = len(src) - len(stray)
            raise ExpressionError("unexpected character", stray[0], at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "<end>", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}", text, at)
        self.advance()

    def parse(self) -> Callable[[float], float]:
        kind, text, at = self.peek()
        if kind == "end":
            raise ExpressionError("empty expression", text, at)
        operand = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", text, at)
        return _closure(operand)

    def expr(self):
        left = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                left = _apply(text, left, self.term())
            else:
                return left

    def term(self):
        left = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                left = _apply(text, left, self.factor())
            else:
                return left

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            inner = self.factor()
            if inner[0] == _CONST:
                # negating a double is exact and cannot raise
                return _CONST, -inner[1]
            return _apply("neg", inner)
        return self.atom()

    def atom(self):
        kind, text, at = self.advance()
        if kind == "num":
            return _CONST, float(text)
        if kind == "name":
            if text == "x":
                return _VAR, None
            if text in _FUNCTIONS:
                return self.call(text, at)
            raise ExpressionError("unknown name", text, at)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError("expected a value", text, at)

    def call(self, name: str, at: int):
        lo, hi = _FUNCTIONS[name]
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) < lo or (hi is not None and len(args) > hi):
            wants = str(lo) if hi == lo else f"at least {lo}"
            raise ExpressionError(
                f"{name} expects {wants} argument(s), got {len(args)}", name, at
            )
        if len(args) <= 2:
            return _apply(name, *args)
        fns = [_closure(arg) for arg in args]
        if name == "min":
            return _CALL, lambda x: min(a(x) for a in fns)
        return _CALL, lambda x: max(a(x) for a in fns)


def parse_bound_expression(src: str) -> Callable[[float], float]:
    """Compile a bound expression into a float -> float callable."""
    return _Parser(src).parse()
