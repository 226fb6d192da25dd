"""JSON rendering with fixed-precision floats.

Floats are written with 17 significant digits, enough that parsing the text
recovers the exact double, so serialized reports round-trip losslessly and
two runs with identical content produce identical bytes.
"""

from __future__ import annotations

import json
import math

__all__ = ["format_float", "dumps"]


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    text = format(x, ".17g")
    # Keep a float marker so parsing preserves the type.
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


def _render(obj, depth: int) -> str:
    pad = "  " * (depth + 1)
    closing = "  " * depth
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_render(v, depth + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}{_render(v, depth + 1)}" for v in obj)
        return "[\n" + items + "\n" + closing + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render obj (dict/list/scalars) as deterministic JSON text, indented by 2."""
    return _render(obj, 0)
