"""JSON conventions: complex scalars travel as [re, im] pairs."""

from __future__ import annotations

import json
import math


def to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def from_pair(value) -> complex:
    """Accept a finite bare number or [re, im] pair; JSON's NaN and Infinity
    tokens load as floats, and are rejected."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    if number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(number, value)):
        return complex(value[0], value[1])
    raise ValueError(f"expected a finite number or [re, im] pair, got {value!r}")


def scalars_to_pairs(obj):
    """Recursively convert complex leaves to pairs for JSON emission."""
    if isinstance(obj, complex):
        return to_pair(obj)
    if isinstance(obj, dict):
        return {k: scalars_to_pairs(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [scalars_to_pairs(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, full precision."""
    return json.dumps(scalars_to_pairs(obj), indent=2, sort_keys=True)
