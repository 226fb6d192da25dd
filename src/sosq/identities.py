"""Exact composition laws for sums of two and four squares.

A product of two sums of two squares is again a sum of two squares, and
likewise for four; the composed components are bilinear in the inputs.
Everything here is plain Python integer arithmetic, so the norm product
law holds with equality, never approximately.

The four-component law is used only for its norm property; no group
structure (associativity, inverses) is claimed or relied upon.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "IntPair",
    "IntQuad",
    "compose_two",
    "compose_four",
    "compose_two_raw",
    "compose_four_raw",
    "norm",
]


class IntPair(namedtuple("IntPair", "x y")):
    """Integer pair (x, y); its norm is x^2 + y^2, computed exactly."""

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> "IntPair":
        if not (isinstance(x, int) and isinstance(y, int)):
            raise TypeError("IntPair components must be integers")
        return tuple.__new__(cls, (x, y))

    # namedtuple's _make (and _replace, built on it) skips __new__
    _make = classmethod(lambda cls, components: cls(*components))


class IntQuad(namedtuple("IntQuad", "x y z w")):
    """Integer quadruple (x, y, z, w); its norm is the exact sum of squares."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int, w: int) -> "IntQuad":
        if not (
            isinstance(x, int) and isinstance(y, int)
            and isinstance(z, int) and isinstance(w, int)
        ):
            raise TypeError("IntQuad components must be integers")
        return tuple.__new__(cls, (x, y, z, w))

    _make = classmethod(lambda cls, components: cls(*components))


def compose_two_raw(x1, y1, x2, y2):
    """Two-square composition on raw components; works for any numeric type."""
    return x1 * x2 + y1 * y2, x1 * y2 - y1 * x2


def compose_four_raw(x1, y1, z1, w1, x2, y2, z2, w2):
    """Four-square composition on raw components.

    The last three outputs are grouped into differences of mirrored products
    so that composing a tuple with itself yields exact floating-point zeros
    there; the grouping does not change the algebraic value.
    """
    return (
        x1 * x2 + y1 * y2 + z1 * z2 + w1 * w2,
        (x1 * y2 - y1 * x2) + (z1 * w2 - w1 * z2),
        (x1 * z2 - z1 * x2) + (w1 * y2 - y1 * w2),
        (x1 * w2 - w1 * x2) + (y1 * z2 - z1 * y2),
    )


# Composing int components yields int components, so the compositions
# below build their result with tuple.__new__, skipping the type check.


def compose_two(p1: IntPair, p2: IntPair) -> IntPair:
    """Compose two pairs; norm(result) == norm(p1) * norm(p2) exactly."""
    return tuple.__new__(IntPair, compose_two_raw(*p1, *p2))


def compose_four(q1: IntQuad, q2: IntQuad) -> IntQuad:
    """Compose two quadruples; norm(result) == norm(q1) * norm(q2) exactly."""
    return tuple.__new__(IntQuad, compose_four_raw(*q1, *q2))


def norm(components) -> int:
    """Sum of the squared components; exact for an IntPair or IntQuad."""
    return sum(c * c for c in components)
