"""Seeded random draws with pole rejection.

All verification sweeps and solver multistarts share these helpers so
that every randomized result is reproducible from its seed.  Scalars are
drawn uniformly in modulus from an annulus in the complex plane and
rejected when any listed denominator comes within the margin of zero.
"""

from __future__ import annotations

import numpy as np

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


def draw_until(rng: np.random.Generator, draw, admissible, max_tries: int = MAX_TRIES):
    """Redraw until `admissible(value)` holds.

    Raises ParameterDomainError after max_tries rejected draws: the fixed
    parameters then leave (almost) no admissible region to sample.
    """
    for _ in range(max_tries):
        value = draw(rng)
        if admissible(value):
            return value
    raise ParameterDomainError(
        f"rejection sampling found no admissible draw in {max_tries} tries")


def draw_racah_params(rng: np.random.Generator, N: int) -> RacahParams:
    """Random (beta, gamma, delta) with all weight denominators >= REJECT_MARGIN."""

    def ok(pair) -> bool:
        gamma, delta = pair
        return all(
            abs(2 * x + gamma + delta + shift) >= REJECT_MARGIN
            for x in range(N + 1) for shift in (0, 1, 2)
        )

    gamma, delta = draw_until(
        rng, lambda r: (draw_complex(r), draw_complex(r)), ok)
    beta = draw_complex(rng)
    return build_params(N, beta, gamma, delta)


def draw_rho(rng: np.random.Generator) -> complex:
    return draw_until(
        rng, draw_complex,
        lambda rho: abs(rho) >= REJECT_MARGIN and abs(rho - 1) >= REJECT_MARGIN)
