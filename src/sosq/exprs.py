"""Recursive-descent translator for one-variable bound expressions.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := NUMBER | 'x' | '(' expr ')' | NAME '(' expr (',' expr)* ')'
    NAME   := 'abs' | 'min' | 'max' | 'pow'

parse_bound_expression translates the source into the body of a lambda
over x, built by the parser alone from x, the four builtins abs/min/max/pow,
the operators + - * / and names c0, c1, ... bound to float(literal), with
parentheses exactly where the source has them; the source text itself is
never compiled.  One eval, with no builtins but those four, compiles the
lambda and its column form, the same body in a list comprehension over xs,
set as the lambda's .columns; both apply the source's float operations in
its order and can do nothing else.

A source of more than MAX_TOKENS tokens, or with parentheses and calls
nested deeper than MAX_DEPTH, is an ExpressionError naming the token where
the limit is crossed; within both limits the generated text compiles on
every supported Python.
"""

from __future__ import annotations

import re
from collections.abc import Callable

__all__ = ["ExpressionError", "parse_bound_expression"]

MAX_TOKENS = 1000
MAX_DEPTH = 100

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
_BUILTINS = {"abs": abs, "pow": pow, "min": min, "max": max}


class ExpressionError(ValueError):
    """Malformed bound expression; remembers the offending token."""

    def __init__(self, message: str, token: str, position: int) -> None:
        super().__init__(f"{message} (token {token!r} at position {position})")
        self.token = token
        self.position = position


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = depth = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stray = src[pos:].lstrip()
            if not stray:
                break
            at = len(src) - len(stray)
            raise ExpressionError("unexpected character", stray[0], at)
        kind = m.lastgroup
        text, at = m.group(kind), m.start(kind)
        if len(tokens) == MAX_TOKENS:
            raise ExpressionError(f"more than {MAX_TOKENS} tokens", text, at)
        depth += {"(": 1, ")": -1}.get(text, 0)
        if depth > MAX_DEPTH:
            raise ExpressionError(f"nested deeper than {MAX_DEPTH}", text, at)
        tokens.append((kind, text, at))
        pos = m.end()
    tokens.append(("end", "<end>", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.pos = 0
        self.constants: dict[str, float] = {}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expect_op(self, op: str) -> None:
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}", text, at)
        self.advance()

    def parse(self) -> Callable[[float], float]:
        kind, text, at = self.peek()
        if kind == "end":
            raise ExpressionError("empty expression", text, at)
        body = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", text, at)
        names = {"__builtins__": {}, **_BUILTINS, **self.constants}
        # targets are assigned left to right: fn is bound before fn.columns
        fn, fn.columns = eval(f"lambda x: {body}, lambda xs: [{body} for x in xs]", names)
        return fn

    def expr(self) -> str:
        parts = [self.term()]
        while self.at_op("+-"):
            parts += (self.advance()[1], self.term())
        return " ".join(parts)

    def term(self) -> str:
        parts = [self.factor()]
        while self.at_op("*/"):
            parts += (self.advance()[1], self.factor())
        return " ".join(parts)

    def factor(self) -> str:
        signs = ""
        while self.at_op("-"):
            self.advance()
            signs += "-"
        return signs + self.atom()

    def atom(self) -> str:
        kind, text, at = self.advance()
        if kind == "num":
            name = f"c{len(self.constants)}"
            self.constants[name] = float(text)
            return name
        if kind == "name":
            if text == "x":
                return text
            if text in _FUNCTIONS:
                return self.call(text, at)
            raise ExpressionError("unknown name", text, at)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return f"({inner})"
        raise ExpressionError("expected a value", text, at)

    def call(self, name: str, at: int) -> str:
        lo, hi = _FUNCTIONS[name]
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) < lo or (hi is not None and len(args) > hi):
            wants = str(lo) if hi == lo else f"at least {lo}"
            raise ExpressionError(
                f"{name} expects {wants} argument(s), got {len(args)}", name, at
            )
        return f"{name}({', '.join(args)})"


def parse_bound_expression(src: str) -> Callable[[float], float]:
    """Compile a bound expression into a float -> float callable with .columns."""
    return _Parser(src).parse()
