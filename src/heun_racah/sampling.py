"""Seeded random draws kept off the poles of the formulas they feed.

Every verification sweep draws with these helpers, so that every
randomized result is reproducible from its seed.  The solver uses them
in certification (within_margin) and in bethe.pick_u_aux (draw_until);
its multistarts (solver.seed_starts) draw with a generator of their own.
Scalars are drawn uniformly in modulus from an annulus in the complex
plane.  A draw is kept when every guarded denominator of the formula it
feeds is at least REJECT_MARGIN off its pole (core.pole_margin), and
redrawn otherwise; no list of denominators is kept beside the formula.
"""

from __future__ import annotations

import math

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
    """r e^(i theta), r in [rmin, rmax): rng.uniform's arithmetic on
    rng.random(), which costs less per call, so every seeded draw is kept."""
    r = rmin + (rmax - rmin) * rng.random()
    theta = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def within_margin(evaluate, value):
    """evaluate(value) under pole_margin(REJECT_MARGIN), or None when a
    denominator it divides by lies within the margin of its pole."""
    try:
        with pole_margin(REJECT_MARGIN):
            return evaluate(value)
    except ParameterDomainError:
        return None


def draw_until(rng: np.random.Generator, draw, evaluate):
    """evaluate(draw(rng)) for the first draw that keeps the pole margin.

    Raises ParameterDomainError after MAX_TRIES rejected draws (read at call
    time): the fixed parameters then leave (almost) no admissible region to
    sample.
    """
    for _ in range(MAX_TRIES):
        out = within_margin(evaluate, draw(rng))
        if out is not None:
            return out
    raise ParameterDomainError(
        f"rejection sampling found no admissible draw in {MAX_TRIES} tries")


def draw_racah_params(rng: np.random.Generator, N: int) -> RacahParams:
    """Random (gamma, delta, beta), drawn in that order, off every weight pole."""
    return draw_until(rng, lambda r: (draw_complex(r), draw_complex(r), draw_complex(r)),
                      lambda t: build_params(N, t[2], t[0], t[1]))
