"""Exact composition laws for sums of two and four squares.

A product of two sums of two squares is again a sum of two squares, and
likewise for four; the composed components are bilinear in the inputs.
compose_two/compose_four take and return plain tuples, and an operand of
the wrong length is a ValueError; on int components the arithmetic is
exact, so the norm product law holds with equality, never approximately.

The four-component law is used only for its norm property; no group
structure (associativity, inverses) is claimed or relied upon.
"""

from __future__ import annotations

__all__ = [
    "compose_two",
    "compose_four",
    "compose_two_raw",
    "compose_four_raw",
    "norm",
]


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


def compose_two(p1: tuple, p2: tuple) -> tuple:
    """Compose two pairs; norm(result) == norm(p1) * norm(p2) exactly on ints."""
    x1, y1 = p1
    x2, y2 = p2
    return compose_two_raw(x1, y1, x2, y2)


def compose_four(q1: tuple, q2: tuple) -> tuple:
    """Compose two quadruples; norm(result) == norm(q1) * norm(q2) exactly on ints."""
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return compose_four_raw(x1, y1, z1, w1, x2, y2, z2, w2)


def norm(components) -> int:
    """Sum of the squared components; exact for int components."""
    return sum(c * c for c in components)
