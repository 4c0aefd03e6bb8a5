"""The rank-one Racah algebra: its finite-dimensional representation and
the dynamical operator families built on it.

The algebra is generated by X, Y, Z subject to

    [X, Y] = Z,
    [Z, X] = -2 X^2 - 2 {X,Y} + b X + d2,
    [Y, Z] = -2 Y^2 - 2 {X,Y} + b Y + d1,

realized on C^(N+1) by the recurrence/difference structure of the Racah
polynomials: X is tridiagonal plus a scalar shift, Y is diagonal, Z = [X, Y].

The families A(u,m), B(u,m), C(u,m) present the algebra through dynamical
operators: each combines I, X, Y, Z and {X,Y} with scalar coefficients of a
spectral parameter u, a dynamical parameter m (both complex) and a fixed
deformation parameter rho, which DynContext carries with the representation.
The catalog in dynamical checks their exchange relations.
"""

from __future__ import annotations

import cmath
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
    try:
        b = (beta + delta) * (beta - gamma) + (alpha - delta) * (alpha - gamma) \
            + delta ** 2 + gamma ** 2 - 2
        d1 = (gamma ** 2 - delta ** 2) * (2 * beta - gamma + delta) \
            * (gamma + delta - 2 * alpha) / 8
        d2 = (alpha ** 2 - beta ** 2) * (alpha - beta - 2 * delta) \
            * (2 * gamma - beta - alpha) / 8
        finite = all(map(cmath.isfinite, (b, d1, d2)))
    except OverflowError:
        finite = False
    if not finite:
        raise ParameterDomainError(
            f"the structure constants b, d1, d2 are not finite (overflow) at "
            f"beta={beta}, gamma={gamma}, delta={delta}")
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
    """X, Y, Z on C^(N+1); XY = {X, Y}, the identity I and band are derived, read-only.

    All five are tridiagonal (I and Y diagonal).  band holds their entries on
    the tridiagonal band, a (1, 3 dim - 2) row each in the order I, X, Y, Z,
    XY, at the row-major flat positions band_index of a dim x dim matrix.
    """

    params: RacahParams
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    XY: np.ndarray = field(init=False, repr=False, compare=False)
    I: np.ndarray = field(init=False, repr=False, compare=False)
    band_index: np.ndarray = field(init=False, repr=False, compare=False)
    band: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        XY, I = anticommutator(self.X, self.Y), identity(self.dim)
        rows = np.arange(self.dim)
        index = np.flatnonzero(abs(rows[:, None] - rows) <= 1)
        band = np.array([a.ravel()[index][None] for a in (I, self.X, self.Y, self.Z, XY)])
        for name, value in (("XY", XY), ("I", I), ("band_index", index), ("band", band)):
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


def defining_residual(rep: Representation, relation: str) -> float:
    """Residual of one defining relation, R1, R2 or R3."""
    X, Y, Z, p = rep.X, rep.Y, rep.Z, rep.params
    if relation == "R1":
        return residual_norm(commutator(X, Y), Z)
    if relation == "R2":
        return residual_norm(commutator(Z, X), -2 * (X @ X) - 2 * rep.XY + p.b * X + p.d2 * rep.I)
    return residual_norm(commutator(Y, Z), -2 * (Y @ Y) - 2 * rep.XY + p.b * Y + p.d1 * rep.I)


def defining_residuals(rep: Representation) -> dict[str, float]:
    """Residuals of the three defining relations, keyed R1, R2, R3."""
    return {relation: defining_residual(rep, relation) for relation in ("R1", "R2", "R3")}


# --------------------------------------------------------------------------
# the deformation parameter rho and the dynamical operator families

def check_rho(rho) -> complex:
    """rho as a complex number; the families and W divide by rho and rho - 1."""
    rho = complex(rho)
    guard(rho, "deformation parameter pole: rho = 0")
    guard(rho - 1, "deformation parameter pole: rho = 1")
    return rho


@dataclass(frozen=True)
class DynContext:
    """A representation together with the deformation parameter rho."""

    rep: Representation
    rho: complex

    def __post_init__(self):
        object.__setattr__(self, "rho", check_rho(self.rho))


# --------------------------------------------------------------------------
# scalar coefficient functions

def coeff_f0(u, m, p) -> complex:
    return (4 * m * m - 1) * (u * u - 2 * p.b - 1) / 8 - p.d2


def coeff_f1(u, m) -> complex:
    return (4 * m * m - u * u) / 2


def coeff_g0(u, m, p, rho) -> complex:
    """rho f0 + (2 m rho - 1)[(4m - u + 1)(2b + 1 - u^2)/8 - (d1 - d2)/(u - 1)]."""
    return rho * coeff_f0(u, m, p) + (2 * m * rho - 1) * (
        (4 * m - u + 1) * (2 * p.b + 1 - u * u) / 8
        - (p.d1 - p.d2) / guard(u - 1, "coeff_g0 pole: u = 1"))


def coeff_g1(u, m, rho) -> complex:
    return (u - 2 * m) * (2 * m * rho - rho * u - 2) / 2


def coeff_k1(u, v) -> complex:
    """((u-2)^2 - v^2) / (u^2 - v^2)."""
    return ((u - 2) ** 2 - v * v) / guard(u * u - v * v, "coeff_k1 pole: u^2 = v^2")


def coeff_k2(u, v, m, rho) -> complex:
    """(v-1)(rho(u - v - 4m) + 2) / (v (v-u) (2 m rho - 1))."""
    return (v - 1) * (rho * (u - v - 4 * m) + 2) / (
        guard(v, "coeff_k2 pole: v = 0") * guard(v - u, "coeff_k2 pole: v = u")
        * guard(2 * m * rho - 1, "coeff_k2 pole: 2 m rho = 1"))


# --------------------------------------------------------------------------
# operator families: u and m are scalars, or lists for a (k, dim, dim) stack.
# A family member combines I, X, Y, Z and {X,Y} with a row of scalar terms;
# the guarded terms of A come from a_terms, which a caller can evaluate on
# its own (under a pole margin) and hand to stack_A.

def _stack(rows, rep: Representation, combine) -> np.ndarray:
    """(k, dim, dim) stack from k rows of four terms: combine(*terms, I, X, Y,
    Z, XY) on the band entries, one (k, 1) column per term against (1, 3 dim - 2)
    band rows, scattered into zeros.  Each band entry rounds as in the dense
    combination of the whole matrices, which holds (signed) zeros off the
    band.  The operands keep equal ndim: at dim 1, numpy rounds a product of two
    size-1 arrays of different ndim as Python does, not as the scalar call."""
    k, dim = len(rows), rep.dim
    terms = np.array(rows, dtype=np.complex128).reshape(k, 4).T[:, :, None]
    band = combine(*terms, *rep.band)  # its temporaries are freed before out is made
    out = np.zeros((k, dim * dim), dtype=np.complex128)
    out[:, rep.band_index] = band
    return out.reshape(k, dim, dim)


def a_terms(u, m, ctx: DynContext) -> tuple:
    """(g0(u,m), g1(u,m), g1(-1,m), 2 m rho - 1): the guarded terms of A(u, m)."""
    rho = ctx.rho
    den = guard(2 * m * rho - 1, "op_A pole: 2 m rho = 1")
    return coeff_g0(u, m, ctx.rep.params, rho), coeff_g1(u, m, rho), coeff_g1(-1, m, rho), den


def stack_A(rows, ctx: DynContext) -> np.ndarray:
    """A(u_k, m_k) for each row a_terms(u_k, m_k, ctx), as one stack."""
    rho = ctx.rho
    return _stack(rows, ctx.rep, lambda g0, g1x, g1y, den, I, X, Y, Z, XY: (
        g0 * I + g1x * X + g1y * Y + Z + rho * XY) / den)


def _family(u, m, ctx: DynContext, terms, stack) -> np.ndarray:
    """One member from scalars (u, m), or the stack of the pairs of two lists."""
    if not isinstance(u, list):
        return stack([terms(u, m, ctx)], ctx)[0]
    return stack([terms(a, b, ctx) for a, b in zip(u, m, strict=True)], ctx)


def op_A(u, m, ctx: DynContext) -> np.ndarray:
    """(g0 + g1(u,m) X + g1(-1,m) Y + Z + rho {X,Y}) / (2 m rho - 1)."""
    return _family(u, m, ctx, a_terms, stack_A)


def _b_terms(u, m, ctx: DynContext) -> tuple:
    return coeff_f0(u, m, ctx.rep.params), coeff_f1(u, m), coeff_f1(-1, m), 2 * m


def _stack_B(rows, ctx: DynContext) -> np.ndarray:
    return _stack(rows, ctx.rep, lambda f0, f1x, f1y, m2, I, X, Y, Z, XY: (
        f0 * I + f1x * X + f1y * Y + m2 * Z + XY))


def op_B(u, m, ctx: DynContext) -> np.ndarray:
    """f0 + f1(u,m) X + f1(-1,m) Y + 2m Z + {X,Y}; even in u.  B has no
    pole, so its terms are taken where the stack is built."""
    return _family(u, m, ctx, _b_terms, _stack_B)


def op_C(u, m, ctx: DynContext) -> np.ndarray:
    """C(u,m) = B(u, -m + 1/rho)."""
    shift = 1 / ctx.rho
    return op_B(u, [-x + shift for x in m] if isinstance(m, list) else -m + shift, ctx)
