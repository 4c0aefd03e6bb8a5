"""Seeded random draws kept off the poles of the formulas they feed.

All verification sweeps and solver multistarts share these helpers so
that every randomized result is reproducible from its seed.  Scalars are
drawn uniformly in modulus from an annulus in the complex plane.  A draw
is kept when the formula it feeds evaluates with every guarded
denominator at least REJECT_MARGIN off its pole (core.pole_margin), and
redrawn otherwise; no list of denominators is kept beside the formula.
"""

from __future__ import annotations

import numpy as np

from .core import pole_margin
from .errors import ParameterDomainError
from .racah import RacahParams, build_params

ANNULUS_MIN = 0.5
ANNULUS_MAX = 5.0
# The package's one pole margin: random draws, the solver's start and
# certification filters and the auxiliary spectral point all keep it.
REJECT_MARGIN = 1e-3
MAX_TRIES = 10_000


def draw_complex(rng: np.random.Generator, rmin: float = ANNULUS_MIN,
                 rmax: float = ANNULUS_MAX) -> complex:
    r = rng.uniform(rmin, rmax)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


def within_margin(evaluate, value):
    """evaluate(value) under pole_margin(REJECT_MARGIN), or None when a
    denominator it divides by lies within the margin of its pole."""
    try:
        with pole_margin(REJECT_MARGIN):
            return evaluate(value)
    except ParameterDomainError:
        return None


def draw_until(rng: np.random.Generator, draw, evaluate, max_tries: int = MAX_TRIES):
    """evaluate(draw(rng)) for the first draw that keeps the pole margin.

    Raises ParameterDomainError after max_tries rejected draws: the fixed
    parameters then leave (almost) no admissible region to sample.
    """
    for _ in range(max_tries):
        out = within_margin(evaluate, draw(rng))
        if out is not None:
            return out
    raise ParameterDomainError(
        f"rejection sampling found no admissible draw in {max_tries} tries")


def draw_racah_params(rng: np.random.Generator, N: int) -> RacahParams:
    """Random (gamma, delta, beta), drawn in that order, off every weight pole."""
    return draw_until(rng, lambda r: (draw_complex(r), draw_complex(r), draw_complex(r)),
                      lambda t: build_params(N, t[2], t[0], t[1]))
