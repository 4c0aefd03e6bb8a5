"""JSON conventions: complex scalars travel as [re, im] pairs."""

from __future__ import annotations

import json


def to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def from_pair(value) -> complex:
    """Accept a bare number or an [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return complex(value[0], value[1])
    raise ValueError(f"expected a number or [re, im] pair, got {value!r}")


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
