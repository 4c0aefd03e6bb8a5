"""Finite-dimensional representation of the rank-one Racah algebra.

The algebra is generated by X, Y, Z subject to

    [X, Y] = Z,
    [Z, X] = -2 X^2 - 2 {X,Y} + b X + d2,
    [Y, Z] = -2 Y^2 - 2 {X,Y} + b Y + d1,

realized on C^(N+1) by the recurrence/difference structure of the Racah
polynomials: X is tridiagonal plus a scalar shift, Y is diagonal, Z = [X, Y].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import anticommutator, commutator, guard, identity, residual_norm, MAX_DIM
from .errors import ParameterDomainError


@dataclass(frozen=True)
class RacahParams:
    """Representation parameters with derived structure constants.

    alpha is pinned to -(N+1), which truncates the raising weight B(x)
    at x = N and makes the representation (N+1)-dimensional.
    """

    N: int
    beta: complex
    gamma: complex
    delta: complex
    alpha: complex
    b: complex
    d1: complex
    d2: complex


def build_params(N: int, beta, gamma, delta) -> RacahParams:
    """Derive alpha and the structure constants b, d1, d2 from (N, beta, gamma, delta)."""
    if N < 0 or N + 1 > MAX_DIM:
        raise ParameterDomainError(f"N={N} outside supported range 0..{MAX_DIM - 1}")
    beta = complex(beta)
    gamma = complex(gamma)
    delta = complex(delta)
    alpha = complex(-N - 1)
    b = (beta + delta) * (beta - gamma) + (alpha - delta) * (alpha - gamma) \
        + delta ** 2 + gamma ** 2 - 2
    d1 = (gamma ** 2 - delta ** 2) * (2 * beta - gamma + delta) * (gamma + delta - 2 * alpha) / 8
    d2 = (alpha ** 2 - beta ** 2) * (alpha - beta - 2 * delta) * (2 * gamma - beta - alpha) / 8
    p = RacahParams(N=N, beta=beta, gamma=gamma, delta=delta,
                    alpha=alpha, b=b, d1=d1, d2=d2)
    for x in range(N + 1):  # guards every denominator 2x+gamma+delta+{0,1,2}
        weight_B(x, p), weight_D(x, p)
    return p


def _weight_den(x, p: RacahParams, shift: int) -> complex:
    return guard(2 * x + p.gamma + p.delta + shift,
                 f"denominator 2x+gamma+delta+{shift} at x={x}")


def weight_B(x, p: RacahParams) -> complex:
    """Raising weight; vanishes at x = N because x + alpha + 1 = x - N."""
    a, bt, g, d = p.alpha, p.beta, p.gamma, p.delta
    num = (x + a + 1) * (x + bt + d + 1) * (x + g + 1) * (x + g + d + 1)
    return num / (_weight_den(x, p, 1) * _weight_den(x, p, 2))


def weight_D(x, p: RacahParams) -> complex:
    """Lowering weight; vanishes at x = 0 because of the explicit factor x."""
    a, bt, g, d = p.alpha, p.beta, p.gamma, p.delta
    num = x * (x - a + g + d) * (x - bt + g) * (x + d)
    return num / (_weight_den(x, p, 0) * _weight_den(x, p, 1))


def y_eigenvalue(x, p: RacahParams) -> complex:
    g, d = p.gamma, p.delta
    return (2 * x + g + d + 2) * (2 * x + g + d) / 4


@dataclass(frozen=True)
class Representation:
    """X, Y, Z on C^(N+1); XY = {X, Y} and the identity I are derived, read-only."""

    params: RacahParams
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    XY: np.ndarray = field(init=False, repr=False, compare=False)
    I: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("XY", anticommutator(self.X, self.Y)), ("I", identity(self.dim))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.params.N + 1


def build_representation(p: RacahParams) -> Representation:
    """Assemble the X, Y, Z matrices on C^(N+1).

    X carries the scalar shift (alpha+beta)(alpha+beta+2)/4 on top of the
    tridiagonal part: diagonal -B(x)-D(x), subdiagonal B(x), superdiagonal
    D(x+1).  Y = diag(lambda_0 .. lambda_N) and Z = [X, Y].
    """
    n = p.N + 1
    shift = (p.alpha + p.beta) * (p.alpha + p.beta + 2) / 4
    X = np.zeros((n, n), dtype=np.complex128)
    Y = np.zeros((n, n), dtype=np.complex128)
    for x in range(n):
        X[x, x] = shift - weight_B(x, p) - weight_D(x, p)
        Y[x, x] = y_eigenvalue(x, p)
        if x + 1 < n:
            X[x + 1, x] = weight_B(x, p)
            X[x, x + 1] = weight_D(x + 1, p)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ParameterDomainError("representation matrices have non-finite entries")
    Z = commutator(X, Y)
    return Representation(params=p, X=X, Y=Y, Z=Z)


def defining_residuals(rep: Representation) -> dict[str, float]:
    """Residuals of the three defining relations, keyed R1, R2, R3."""
    p = rep.params
    X, Y, Z, XY, I = rep.X, rep.Y, rep.Z, rep.XY, rep.I
    return {
        "R1": residual_norm(commutator(X, Y), Z),
        "R2": residual_norm(commutator(Z, X),
                            -2 * (X @ X) - 2 * XY + p.b * X + p.d2 * I),
        "R3": residual_norm(commutator(Y, Z),
                            -2 * (Y @ Y) - 2 * XY + p.b * Y + p.d1 * I),
    }
