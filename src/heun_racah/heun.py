"""The Heun-Racah operator in bilinear and parametric form.

The most general bilinear combination of the Racah generators,

    W = r0 + r1 X + r2 Y + r3 XY + r4 YX,

is tridiagonal in both the X- and Y-eigenbases.  Up to an affine
transformation a*W + c it can be brought to the three-parameter form

    W = -2 rho/(rho-1) XY + s1 X + (s2^2 - 1)/(2 rho (rho-1)) Y + [X, Y],

which has the expansion h1(u) A(u, m_bar) + h1(-u) A(-u, m_bar) + h2(u)
in terms of the dynamical operators, with a u-independent total.

HeunParams is the problem object: it carries the Racah parameters hp.rp it
was built on, so the scalar formulas here and in bethe read hp alone, and
check_same_problem is the one place where hp is matched with a DynContext.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .core import POLE_FLOOR, guard, stack_residuals
from .errors import CanonicalizationError, ParameterDomainError
from .racah import (DynContext, RacahParams, Representation, a_terms, check_rho, coeff_g0,
                    stack_A)
# Not called here (A is built from its guarded rows with stack_A); the
# benchmark's tracer (perfbench/tracing.py) wraps op_A in every module holding it.
from .racah import op_A  # noqa: F401


@dataclass(frozen=True)
class HeunParams:
    """Parametric Heun coefficients with derived quantities, built on rp.

    m_bar is the dynamical-parameter value at which the operator expands
    in A; p_bar_plus/minus are the two candidate Bethe-root counts that
    make the unwanted-term prefactor vanish (homogeneous regime when one
    of them is a nonnegative integer).
    """

    rho: complex
    s1: complex
    s2: complex
    m_bar: complex
    p_bar_plus: complex
    p_bar_minus: complex
    rp: RacahParams = field(repr=False)


@dataclass(frozen=True)
class BilinearParams:
    r0: complex
    r1: complex
    r2: complex
    r3: complex
    r4: complex


def build_heun_params(rho, s1, s2, rp: RacahParams) -> HeunParams:
    """HeunParams on rp; ParameterDomainError where m_bar or a p_bar
    candidate is not finite (an overflow)."""
    rho, s1, s2 = check_rho(rho), complex(s1), complex(s2)
    guard(s2 - rho, "Heun pole: s2 = rho, where 2 m_bar rho - 1 vanishes")
    m_bar = (s2 - rho + 1) / (2 * rho)
    radicand = complex(2 * s1 * rho * rho - 2 * s1 * rho + 1)
    base = 1 - rp.gamma * rho - rp.delta * rho - 2 * rho
    # Python's complex arithmetic overflows to inf or NaN without a warning;
    # with these finite, so are the candidates: |disc| < 2e154, and |rho| is
    # above the pole floor
    if not all(map(cmath.isfinite, (m_bar, radicand, base))):
        raise ParameterDomainError(
            f"m_bar or a root-count candidate p_bar is not finite (overflow) at "
            f"rho={rho}, s1={s1}, s2={s2}")
    disc = np.sqrt(radicand)
    return HeunParams(rho=rho, s1=s1, s2=s2, m_bar=m_bar,
                      p_bar_plus=(base + disc) / (2 * rho),
                      p_bar_minus=(base - disc) / (2 * rho), rp=rp)


def integer_p_bar(hp: HeunParams) -> int | None:
    """The homogeneous root count, when one exists.

    Returns the candidate (plus branch preferred) that is a nonnegative
    integer <= N within 1e-9, else None.
    """
    for cand in (hp.p_bar_plus, hp.p_bar_minus):
        k = round(cand.real)
        if abs(cand - k) <= 1e-9 and 0 <= k <= hp.rp.N:
            return k
    return None


def check_same_problem(hp: HeunParams, ctx: DynContext) -> None:
    """ParameterDomainError unless ctx has hp's rho and is built on hp.rp."""
    if abs(hp.rho - ctx.rho) > POLE_FLOOR:
        raise ParameterDomainError(
            f"context rho={ctx.rho} differs from Heun rho={hp.rho}")
    if hp.rp != ctx.rep.params:
        raise ParameterDomainError(
            f"Heun parameters are built on {hp.rp}, the representation on {ctx.rep.params}")


def _w_terms(hp: HeunParams, ctx: DynContext) -> tuple[complex, complex, complex]:
    """The coefficients of XY, X and Y in the parametric W."""
    check_same_problem(hp, ctx)
    rho, s2 = hp.rho, hp.s2
    return -2 * rho / (rho - 1), hp.s1, (s2 * s2 - 1) / (2 * rho * (rho - 1))


def build_W_parametric(hp: HeunParams, ctx: DynContext) -> np.ndarray:
    c_xy, c_x, c_y = _w_terms(hp, ctx)
    X, Y = ctx.rep.X, ctx.rep.Y
    return c_xy * (X @ Y) + c_x * X + c_y * Y + ctx.rep.Z


def build_W_bilinear(bp: BilinearParams, rep: Representation) -> np.ndarray:
    X, Y = rep.X, rep.Y
    return (bp.r0 * rep.I + bp.r1 * X + bp.r2 * Y
            + bp.r3 * (X @ Y) + bp.r4 * (Y @ X))


def canonicalize(bp: BilinearParams, rp: RacahParams) -> tuple[HeunParams, complex, complex]:
    """Map a bilinear operator onto the parametric family.

    Returns (hp, scale, shift) with W_bilinear = scale * W_parametric + shift * I.
    The parametric form expands to
        scale * [ -(rho+1)/(rho-1) XY - YX + s1 X + (s2^2-1)/(2 rho (rho-1)) Y ],
    so matching coefficients gives rho from the XY/YX ratio, then s1 and s2.
    The square root fixing s2 takes the branch with nonnegative real part,
    ties broken toward nonnegative imaginary part (both branches produce the
    same operator; one is pinned for reproducibility).
    """
    r0, r1, r2, r3, r4 = (complex(v) for v in (bp.r0, bp.r1, bp.r2, bp.r3, bp.r4))
    if abs(r4) < POLE_FLOOR:
        raise CanonicalizationError("r4 = 0: the parametric family degenerates")
    q = r3 / r4
    if abs(q - 1) < POLE_FLOOR:
        raise CanonicalizationError("r3 = r4: cannot solve for rho")
    rho = (q + 1) / (q - 1)
    scale = -r4
    s1 = r1 / scale
    s2 = np.sqrt(complex(1 + 2 * rho * (rho - 1) * r2 / scale))
    if s2.real < 0 or (s2.real == 0 and s2.imag < 0):
        s2 = -s2
    hp = build_heun_params(rho, s1, complex(s2), rp)
    return hp, scale, r0


def h1_scalar(u, hp: HeunParams) -> complex:
    """s1/(2u) - ((rho u - rho + s2)^2 - 1) / (4 rho u (rho - 1))."""
    guard(u, "h1 pole: u = 0")
    rho, s1, s2 = hp.rho, hp.s1, hp.s2
    return s1 / (2 * u) - ((rho * u - rho + s2) ** 2 - 1) / (4 * rho * u * (rho - 1))


def h2_scalar(u, hp: HeunParams) -> complex:
    """-(h1(u) g0(u, m_bar) + h1(-u) g0(-u, m_bar)) / (2 m_bar rho - 1)."""
    den = guard(2 * hp.m_bar * hp.rho - 1, "h2 pole: 2 m_bar rho = 1")
    return -(h1_scalar(u, hp) * coeff_g0(u, hp.m_bar, hp.rp, hp.rho)
             + h1_scalar(-u, hp) * coeff_g0(-u, hp.m_bar, hp.rp, hp.rho)) / den


def h_coeffs(u, hp: HeunParams) -> tuple[complex, complex, complex]:
    """(h1(u), h1(-u), h2(u)); poles at u = 0 and u = +-1."""
    return h1_scalar(u, hp), h1_scalar(-u, hp), h2_scalar(u, hp)


def wa_terms(u1, u2, hp: HeunParams, ctx: DynContext) -> tuple:
    """The guarded scalars of the W-A identity at u1 and u2, as the row that
    wa_chunk takes: the W coefficients, the a_terms rows of A(+-u1, m_bar)
    and A(+-u2, m_bar), then h_coeffs(u1) and h_coeffs(u2)."""
    w = _w_terms(hp, ctx)
    rows = [a_terms(y, hp.m_bar, ctx) for y in (u1, -u1, u2, -u2)]
    return w, rows, h_coeffs(u1, hp) + h_coeffs(u2, hp)


def wa_chunk(terms, ctx: DynContext) -> list[tuple[float, float]]:
    """(residual vs the parametric W, u-independence residual between u1 and
    u2) of h1(u) A(u, m_bar) + h1(-u) A(-u, m_bar) + h2(u), for each
    wa_terms row, the four A's of all rows one stack: every slice rounds as
    the one-sample operations do."""
    k, dim, rep = len(terms), ctx.rep.dim, ctx.rep
    c = np.array([[*w, *h] for w, _, h in terms], dtype=np.complex128)[:, :, None, None]
    X, Y, Z, I = (a[None] for a in (rep.X, rep.Y, rep.Z, rep.I))
    W = c[:, 0] * (rep.X @ rep.Y)[None] + c[:, 1] * X + c[:, 2] * Y + Z
    A = stack_A([row for _, rows, _ in terms for row in rows], ctx).reshape(k, 4, dim, dim)
    R1, R2 = (c[:, j] * A[:, i] + c[:, j + 1] * A[:, i + 1] + c[:, j + 2] * I
              for i, j in ((0, 3), (2, 6)))
    return list(zip(stack_residuals(R1, W), stack_residuals(R1, R2)))
