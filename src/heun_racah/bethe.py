"""Bethe vectors, on-shell scalars, and the Bethe-equation residual maps.

A Bethe vector with roots x_1..x_p and top dynamical index m is

    |x_1..x_p; m> = B(x_1, m) B(x_2, m-1) ... B(x_p, m-p+1) |0>,

with |0> = (1, 0, .., 0)^t the highest-weight vacuum.  Acting with the
Heun operator W produces a wanted term w_p |x..>, unwanted swap terms
proportional to U_r, and an extension term proportional to psi(u, p).
The homogeneous regime (integer p_bar kills psi) solves U_r = 0; the
generic inhomogeneous regime at p = N absorbs the extension term through
the (N+1)-root reduction identity, adding tau-weighted corrections
w^(i), U_r^(i).  A BetheSystem fixes one of the two regimes for a solve:
its closed-form pass gives the solver the cleared equations with their
Jacobian, and its reference pass evaluates the scalar maps that the
closed form is tested and certified against.

Scalar formulas read the problem object hp alone (hp.rp holds the Racah
parameters) and take a spectral point before the roots: (u, roots).

Name clash warning: f1_W(v) below is the root-count-independent scalar of
the W action and is distinct from the operator coefficient coeff_f1(u, m).
Empty products are 1 and empty sums 0 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import guard, vector_residual
from .dynamical import DynContext, coeff_k1, coeff_k2, op_A, op_B
from .errors import ModeError, ParameterDomainError
from .heun import (HeunParams, build_W_parametric, check_same_problem, h1_scalar, h2_scalar,
                   integer_p_bar)
from .racah import RacahParams
from .sampling import draw_complex, draw_until, within_margin

HOMOGENEOUS = "homogeneous"
INHOMOGENEOUS = "inhomogeneous"

# Default free spectral point for the action identity; redrawn (seeded)
# when the eigenvalue at it does not keep the pole margin for a root set.
U_AUX_DEFAULT = 2.37 + 0.91j
# Two roots within this of each other, up to sign, are one orbit {x, -x};
# a real part within it counts as zero when the display sign is picked.
DEFLATION_TOL = 1e-6


@dataclass(frozen=True)
class VacuumCoeffs:
    xi: complex
    zeta: complex


@dataclass(frozen=True)
class BetheState:
    """A candidate or certified Bethe root configuration.

    Flipping a root's sign or permuting roots leaves the Bethe vector
    unchanged, so roots are stored with one display sign per orbit {x, -x},
    sorted (canonical_roots).  eigen_residual is ||W v - lambda v|| / (||W||_F ||v||).
    """

    roots: tuple
    mode: str
    u_aux: complex
    eigenvalue: complex
    bethe_residuals: tuple
    eigen_residual: float

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "roots": [[x.real, x.imag] for x in self.roots],
            "u_aux": [self.u_aux.real, self.u_aux.imag],
            "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
            "bethe_residuals": [[r.real, r.imag] for r in self.bethe_residuals],
            "eigen_residual": self.eigen_residual,
        }


def canonical_root(x: complex) -> complex:
    """The display sign of the orbit {x, -x}: Re > 0, or Im >= 0 when
    |Re x| <= DEFLATION_TOL, where Newton leaves an imaginary root."""
    x = complex(x)
    flip = x.imag < 0 if abs(x.real) <= DEFLATION_TOL else x.real < 0
    return -x if flip else x


def canonical_roots(roots) -> tuple:
    return tuple(sorted((canonical_root(x) for x in roots),
                        key=lambda z: (z.real, z.imag)))


def vacuum(N: int) -> np.ndarray:
    """Highest-weight vector (1, 0, .., 0)^t of dimension N+1."""
    e0 = np.zeros(N + 1, dtype=np.complex128)
    e0[0] = 1.0
    return e0


def vacuum_coeffs(u, m, p: RacahParams, rho) -> VacuumCoeffs:
    """Triangular action of A on the vacuum: A(u,m)|0> = xi |0> + zeta B(u,m)|0>."""
    g, d, bt, N = p.gamma, p.delta, p.beta, p.N
    u1 = guard(u - 1, "vacuum_coeffs pole: u = 1")
    m1 = guard(2 * m * rho - 1, "vacuum_coeffs pole: 2 m rho = 1")
    den_shared = guard(d + g - 2 * m + 2 - u, "vacuum_coeffs pole: delta+gamma-2m+2-u = 0")
    zeta = (d * rho + g * rho + 2 * m * rho + 2 * rho - rho * u - 2) / (m1 * den_shared)
    xi = ((u + N) ** 2 - (bt - g + d) ** 2) \
        * (bt ** 2 - (u - N - 2 - g - d) ** 2) \
        * (d + g - 2 * m + u) / (8 * u1 * den_shared)
    return VacuumCoeffs(xi=xi, zeta=zeta)


def _root_factors(roots, m_top, ctx: DynContext) -> list[np.ndarray]:
    """The creation factors B(x_1, m_top) .. B(x_p, m_top - p + 1)."""
    return [op_B(roots[i - 1], m_top - i + 1, ctx) for i in range(1, len(roots) + 1)]


def _chain(factors, v) -> np.ndarray:
    """factors[0] @ factors[1] @ .. @ v, applied right to left."""
    for f in reversed(factors):
        v = f @ v
    return v


def bethe_vector(roots, m_top, ctx: DynContext) -> np.ndarray:
    """Apply B(x_1, m_top) .. B(x_p, m_top - p + 1) to the vacuum."""
    return _chain(_root_factors(roots, m_top, ctx), vacuum(ctx.rep.params.N))


def _swapped_family(roots, u, m_top, ctx: DynContext):
    """bethe_vector of roots, of roots with x_j -> u for each j, and of
    roots + [u], with each B factor built once and the suffixes shared."""
    p = len(roots)
    factors = _root_factors(roots, m_top, ctx)
    tails = [vacuum(ctx.rep.params.N)]  # tails[k]: the last k factors applied to |0>
    for f in reversed(factors):
        tails.append(f @ tails[-1])

    def u_at(j):  # u in slot j, before x_{j+1} .. x_p; j = p + 1 appends u
        return _chain(factors[:j - 1], op_B(u, m_top - j + 1, ctx) @ tails[max(p - j, 0)])

    return tails[p], [u_at(j) for j in range(1, p + 1)], u_at(p + 1)


def abv_rhs(u, m, roots, ctx: DynContext, middle_step: int = 1,
            root_ops=None) -> np.ndarray:
    """Right side of the A-on-Bethe-vector expansion, assembled directly.

    middle_step selects the dynamical index of the swapped slot-r factor:
    B(u, m - r + middle_step).  The slot convention of the Bethe vector
    itself corresponds to middle_step=+1; the alternative -1 is kept so the
    two can be compared numerically (see RelationId.ABV_ACTION).  root_ops
    takes the root factors when the caller has built them already.
    """
    p = len(roots)
    e0 = vacuum(ctx.rep.params.N)
    if root_ops is None:
        root_ops = _root_factors(roots, m, ctx)
    slot_ops = [op_B(u, m - i + middle_step, ctx) for i in range(1, p + 1)]

    def chain(slot_index, tail_vec):  # the root factors, slot slot_index holding u
        return _chain([slot_ops[i] if i + 1 == slot_index else f
                       for i, f in enumerate(root_ops)], tail_vec)

    prod_k1 = np.prod([coeff_k1(u, x) for x in roots]) if p else 1.0
    out = prod_k1 * chain(0, op_A(u, m - p, ctx) @ e0)
    for eps in (1, -1):
        for r in range(1, p + 1):
            xr = eps * roots[r - 1]
            coef = coeff_k2(u, xr, m, ctx.rho)
            coef *= np.prod([coeff_k1(xr, roots[l - 1])
                             for l in range(1, p + 1) if l != r]) if p > 1 else 1.0
            out = out + coef * chain(r, op_A(xr, m - p, ctx) @ e0)
    return out


def abv_residuals(u, m, roots, ctx: DynContext) -> tuple[float, float]:
    """Residuals of A(u, m) on the Bethe vector against abv_rhs with
    middle_step +1 and -1; the root factors are built once for all three."""
    factors = _root_factors(roots, m, ctx)
    lhs = op_A(u, m, ctx) @ _chain(factors, vacuum(ctx.rep.params.N))
    return tuple(vector_residual(lhs, abv_rhs(u, m, roots, ctx, step, factors))
                 for step in (1, -1))


def f1_W(v, hp: HeunParams) -> complex:
    """(2 rho (rho-1) s1 - (rho v - rho + s2 + 1)(rho v - rho + s2 - 1)) (1 - 1/v)."""
    rho, s1, s2 = hp.rho, hp.s1, hp.s2
    core = rho * v - rho + s2
    return (2 * rho * (rho - 1) * s1 - (core + 1) * (core - 1)) \
        * (1 - 1 / guard(v, "f1_W pole: v = 0"))


def eigenvalue_w(u, roots, hp: HeunParams) -> complex:
    """Wanted-term coefficient w_p; u-independent on-shell.

    The vacuum weight xi is evaluated at the lowered index m_bar - p, the
    dynamical index actually reached after commuting through the p creation
    factors; with it the full action identity holds to machine precision
    (the variant without the shift fails at order one for p >= 1).
    """
    p = len(roots)
    acc = h2_scalar(u, hp)
    for sign in (1, -1):
        su = sign * u
        term = h1_scalar(su, hp) * vacuum_coeffs(su, hp.m_bar - p, hp.rp, hp.rho).xi
        for x in roots:
            term *= coeff_k1(su, x)
        acc += term
    return acc


class SwapWeight:
    """g(v) = f1_W(v) xi(v, m), the weight of the swapped-root summands of U_r.

    The removable factor (v - 1) of f1_W is cancelled against the xi pole:

        g(v) = P(v) Q(v) / (8 v (delta + gamma - 2m + 2 - v)),
        P(v) = 2 rho (rho-1) s1 - (rho v - rho + s2 + 1)(rho v - rho + s2 - 1),
        Q(v) = ((v+N)^2 - (beta-gamma+delta)^2)
               (beta^2 - (v-N-2-gamma-delta)^2) (delta + gamma - 2m + v),

    so g is finite at v = +-1 and its only poles are the two in the
    denominator.  Calling it returns (g(v), g'(v)).
    """

    def __init__(self, hp: HeunParams, m):
        rp = hp.rp
        g, d, bt, N = rp.gamma, rp.delta, rp.beta, rp.N
        rho = hp.rho
        self.rho = rho
        self.p0 = 2 * rho * (rho - 1) * hp.s1
        self.core0 = hp.s2 - rho
        self.N = N
        self.c1sq = (bt - g + d) ** 2
        self.btsq = bt ** 2
        self.c2 = N + 2 + g + d
        self.c3 = d + g - 2 * m

    def __call__(self, v) -> tuple[complex, complex]:
        guard(v, "swap weight pole: v = 0")
        den = guard(self.c3 + 2 - v, "swap weight pole: delta+gamma-2m+2 = v")
        core = self.rho * v + self.core0
        vn, vs = v + self.N, v - self.c2
        # numerator factors and their derivatives, combined by the product rule
        f1, f2, f3, f4 = (self.p0 - (core + 1) * (core - 1), vn * vn - self.c1sq,
                          self.btsq - vs * vs, self.c3 + v)
        f12, f34 = f1 * f2, f3 * f4
        num = f12 * f34
        dnum = (-2 * self.rho * core * f2 + 2 * vn * f1) * f34 \
            + f12 * (f3 - 2 * vs * f4)
        scale = 1 / (8 * v * den)
        return num * scale, (dnum - num / v + num / den) * scale


def _unwanted_summands(r: int, roots, weight: SwapWeight) -> list[complex]:
    """The two swapped-root summands of U_r; weight is g at m_bar - p."""
    p = len(roots)
    if not 1 <= r <= p:
        raise ParameterDomainError(f"root index r={r} outside 1..{p}")
    out = []
    for eps in (1, -1):
        xr = eps * roots[r - 1]
        term = weight(xr)[0]
        for l in range(1, p + 1):
            if l != r:
                term *= coeff_k1(xr, roots[l - 1])
        out.append(term)
    return out


def unwanted_U(r: int, roots, hp: HeunParams) -> complex:
    """Unwanted-term coefficient U_r (zero at a homogeneous Bethe solution)."""
    return sum(_unwanted_summands(r, roots, SwapWeight(hp, hp.m_bar - len(roots))))


def _psi_brackets(p: int, hp: HeunParams):
    """((lambda, a1, a3), scale): the root-count-dependent scalars of the
    factored extension term; lambda = 0 defines the homogeneous regime,
    relative to scale = 1 + the magnitudes of lambda's two summands."""
    rho, s2 = hp.rho, hp.s2
    g, d = hp.rp.gamma, hp.rp.delta
    t1 = 2 * (1 - rho) * hp.s1
    t2 = (g + d + 2 + 2 * p) * (d * rho + g * rho + 2 * rho * (p + 1) - 2)
    a1 = d * rho + g * rho + rho * (1 + 2 * p) - s2 - 1
    a3 = d * rho + g * rho + rho * (3 + 2 * p) - s2 - 1
    return (t1 + t2, a1, a3), 1.0 + abs(t1) + abs(t2)


def psi_factored(u, p: int, roots, hp: HeunParams) -> complex:
    (lam, a1, a3), _ = _psi_brackets(p, hp)
    rho = hp.rho
    den = guard(a3 * a3 - rho * rho * u * u, "psi pole: a3^2 = rho^2 u^2")
    return _times_phi(rho * rho * lam / ((1 - rho) * den), roots, rho, a1, a3)


def _times_phi(out, roots, rho, a1, a3):
    """out * prod_x (a1^2 - rho^2 x^2) / (a3^2 - rho^2 x^2)."""
    for x in roots:
        out *= (a1 * a1 - rho * rho * x * x) \
            / guard(a3 * a3 - rho * rho * x * x, "psi pole: a3^2 = rho^2 x^2")
    return out


def psi_summed(u, p: int, roots, hp: HeunParams) -> complex:
    """Unfactored double sum over the vacuum-recursion coefficients."""
    rho, m_bar = hp.rho, hp.m_bar
    out = 0.0 + 0.0j
    for nu in (1, -1):
        su = nu * u
        inner = vacuum_coeffs(su, m_bar - p, hp.rp, rho).zeta
        for x in roots:
            inner *= coeff_k1(su, x)
        for eps in (1, -1):
            for t in range(1, p + 1):
                xt = eps * roots[t - 1]
                term = vacuum_coeffs(xt, m_bar - p, hp.rp, rho).zeta \
                    * coeff_k2(su, xt, m_bar, rho)
                for l in range(1, p + 1):
                    if l != t:
                        term *= coeff_k1(xt, roots[l - 1])
                inner += term
        out += h1_scalar(su, hp) * inner
    return out


def psi(u, p: int, roots, hp: HeunParams) -> tuple[complex, complex]:
    """(factored, summed) evaluations of the extension-term coefficient.

    The two must agree; the factored form is the one whose prefactor zero
    defines the homogeneous root counts p_bar.
    """
    if len(roots) != p:
        raise ParameterDomainError(f"psi expects {p} roots, got {len(roots)}")
    return psi_factored(u, p, roots, hp), psi_summed(u, p, roots, hp)


def homogeneous_residuals(roots, hp: HeunParams, ctx: DynContext) -> list[complex]:
    """The cleared homogeneous Bethe equations: U_r for r = 1..p_bar.

    Solving U_r = 0 directly avoids the removable poles of the equivalent
    ratio form; the zero sets coincide away from poles.
    """
    return BetheSystem(hp, ctx, HOMOGENEOUS).reference(roots)[0]


# --------------------------------------------------------------------------
# reduction of the (N+1)-root vector and the inhomogeneous terms

def _tau_shared(hp: HeunParams):
    """Root-independent parts of the tau coefficients: the prefactor, the
    constant c of the (c^2 - x^2) factors, and the zeros z of (x^2 - z^2)."""
    rp = hp.rp
    N, bt, g, d = rp.N, rp.beta, rp.gamma, rp.delta
    m_bar = hp.m_bar
    pref = ((2 * m_bar - N) ** 2 - bt ** 2) / 8
    for k in range(1, N + 1):
        f1 = guard(2 * m_bar - 2 * d - bt - N - 2 * k, "tau pole: 2m-2delta-beta-N-2k = 0")
        f2 = guard(2 * m_bar - 2 * g + bt - N - 2 * k, "tau pole: 2m-2gamma+beta-N-2k = 0")
        pref /= f1 * f2
    cpref = g + d - 2 * m_bar + 2 * N + 2
    zeros = [bt - g + d - N + 2 * k for k in range(N + 1)]
    return pref, cpref, zeros


def _tau_at(v, others, pref, c, zeros) -> complex:
    """tau of v (u, or a root against the others) from the constants of
    _tau_shared: pref prod_x (c^2 - x^2) / (v^2 - x^2) prod_z (v^2 - z^2)."""
    tau = pref
    for x in others:
        tau *= (c ** 2 - x * x) / guard(v * v - x * x, "tau pole: v^2 = x_k^2")
    for z in zeros:
        tau *= v * v - z * z
    return tau


def _tau_roots(roots, tau) -> list[complex]:
    """[tau_1..tau_N]; no spectral point enters."""
    return [_tau_at(x, [*roots[:j], *roots[j + 1:]], *tau) for j, x in enumerate(roots)]


def maba_reduce(u, roots, hp: HeunParams) -> tuple[complex, list[complex]]:
    """Coefficients (tau_u, [tau_1..tau_N]) expressing the (N+1)-root Bethe
    vector |x_1..x_N, u; m_bar> over the N-root vectors.

    Proven by direct computation for N <= 4; conjectural above.
    """
    N = hp.rp.N
    if len(roots) != N:
        raise ParameterDomainError(f"reduction needs exactly N={N} roots, got {len(roots)}")
    tau = _tau_shared(hp)
    return _tau_at(u, roots, *tau), _tau_roots(roots, tau)


def maba_identity_residuals(u, roots, hp: HeunParams, ctx: DynContext) -> tuple[float, float]:
    """(plain, backward) residuals of the (N+1)-root reduction identity.

    plain normalizes by the left side only; backward also normalizes by the
    magnitudes of the tau-weighted summands, so it measures whether the
    identity itself holds rather than how violently the right side cancels
    (the summands can exceed the result by many orders for larger N).
    A norm that overflows comes out inf, without a warning.
    """
    check_same_problem(hp, ctx)
    tau_u, tau_list = maba_reduce(u, roots, hp)
    base, swapped, lhs = _swapped_family(roots, u, hp.m_bar, ctx)
    _, c, _ = _tau_shared(hp)
    with np.errstate(over="ignore"):
        rhs = tau_u * base
        mag = abs(tau_u) * float(np.linalg.norm(base))
        for j, (x, v) in enumerate(zip(roots, swapped)):
            coef = (c * c - u * u) / guard(x * x - u * u, "reduction pole: x_j^2 = u^2") \
                * tau_list[j]
            rhs = rhs + coef * v
            mag += abs(coef) * float(np.linalg.norm(v))
        err = float(np.linalg.norm(lhs - rhs))
        lnorm = float(np.linalg.norm(lhs))
    return err / max(1.0, lnorm), err / max(1.0, lnorm, mag)


def _tau_corrections(tau_list, roots, brackets, rho) -> list[complex]:
    """[U_1^(i)..U_N^(i)] from [tau_1..tau_N] and the psi brackets
    (lambda, a1, a3); no spectral point enters."""
    lam, a1, a3 = brackets
    prod = _times_phi(1.0 + 0.0j, roots, rho, a1, a3)
    return [t * rho * lam * prod for t in tau_list]


def inhomogeneous_terms(u, roots, hp: HeunParams) -> tuple[complex, list[complex]]:
    """(w^(i), [U_1^(i)..U_N^(i)]): the corrections from reducing the
    extension term back onto N-root Bethe vectors."""
    N = hp.rp.N
    tau_u, tau_list = maba_reduce(u, roots, hp)
    w_i = tau_u * psi_factored(u, N, roots, hp)
    return w_i, _tau_corrections(tau_list, roots, _psi_brackets(N, hp)[0], hp.rho)


def inhomogeneous_residuals(roots, hp: HeunParams, ctx: DynContext) -> list[complex]:
    """Cleared inhomogeneous Bethe equations: U_r + U_r^(i) for r = 1..N."""
    return BetheSystem(hp, ctx, INHOMOGENEOUS).reference(roots)[0]


def inhomogeneous_scales(roots, hp: HeunParams, ctx: DynContext) -> list[float]:
    """Cancellation scales 1 + sum |summands| for each cleared equation."""
    return BetheSystem(hp, ctx, INHOMOGENEOUS).reference(roots)[1]


@dataclass(frozen=True)
class BetheSystem:
    """One Bethe system, fixed for a solve: (hp, ctx, mode), matched by check_same_problem.

    Construction resolves the root count p once (homogeneous mode: the
    integer p_bar, whose extension prefactor must vanish; inhomogeneous
    mode: N; any other mode is a ModeError) and builds the root-independent
    constants: the swap weight at m_bar - p and, in inhomogeneous mode
    only, the tau constants and psi brackets.

    reference(roots) evaluates the scalar maps: F[r] = U_{r+1}, plus
    U_{r+1}^(i) in inhomogeneous mode, and their cancellation scales.
    closed_form(roots) returns F with J[r][j] = dF[r]/dx_j in one pass, for
    Newton; certification never uses it.  U_r^(i) does not depend on the
    auxiliary spectral point, so neither pass takes one.

    Each summand is a product of rational factors, so the Jacobian follows
    from their logarithmic derivatives.  With y = +-x_r and d_rl = x_r^2 - x_l^2,

        k1(y, x_l) = 1 - 4 (y - 1) / d_rl,
        U_r^(i) = C Z(x_r) prod_{k != r} (c^2 - x_k^2) / d_rk prod_k phi(x_k),

    with C = tau prefactor * rho * lambda, Z(x) = prod_z (x^2 - z^2) over the
    tau zeros and phi(x) = (a1^2 - rho^2 x^2) / (a3^2 - rho^2 x^2).  A factor
    that is exactly zero raises ZeroDivisionError, which Newton treats as a
    pole.
    """

    hp: HeunParams
    ctx: DynContext
    mode: str
    p: int = field(init=False, compare=False)
    p_bar: int | None = field(init=False, compare=False)  # p, in homogeneous mode only
    weight: SwapWeight = field(init=False, repr=False, compare=False)
    tau: tuple | None = field(init=False, repr=False, compare=False)
    brackets: tuple | None = field(init=False, repr=False, compare=False)
    squares: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hp = self.hp
        check_same_problem(hp, self.ctx)
        tau = brackets = squares = None
        if self.mode == HOMOGENEOUS:
            p = p_bar = integer_p_bar(hp)
            if p is None:
                raise ModeError(
                    f"homogeneous mode needs an integer root count in [0, {hp.rp.N}]; "
                    f"candidates are {hp.p_bar_plus} and {hp.p_bar_minus}; "
                    f"use inhomogeneous mode instead")
            (lam, _, _), lam_scale = _psi_brackets(p, hp)
            if abs(lam) > 1e-9 * lam_scale:
                raise ModeError(f"extension prefactor does not vanish at p_bar={p}: |{lam}|")
        elif self.mode == INHOMOGENEOUS:
            p, p_bar = hp.rp.N, None
            tau, brackets = _tau_shared(hp), _psi_brackets(p, hp)[0]
            (pref, cpref, zeros), (lam, a1, a3), rho = tau, brackets, hp.rho
            # the closed form's constants: C, c^2, the z^2, rho^2, a1^2, a3^2
            squares = (pref * rho * lam, cpref * cpref, [z * z for z in zeros],
                       rho * rho, a1 * a1, a3 * a3)
        else:
            raise ModeError(f"unknown mode {self.mode!r}")
        for name, value in (("p", p), ("p_bar", p_bar),
                            ("weight", SwapWeight(hp, hp.m_bar - p)),
                            ("tau", tau), ("brackets", brackets), ("squares", squares)):
            object.__setattr__(self, name, value)

    def reference(self, roots) -> tuple[list[complex], list[float]]:
        """(residuals, scales) of the cleared equations from the scalar maps;
        each scale is 1 + the magnitude of the summands cancelling inside."""
        if len(roots) != self.p:
            raise ModeError(f"{self.mode} mode needs p = {self.p} roots, got {len(roots)}")
        corrections = None if self.tau is None else _tau_corrections(
            _tau_roots(roots, self.tau), roots, self.brackets, self.hp.rho)
        residuals, scales = [], []
        for r in range(1, self.p + 1):
            terms = _unwanted_summands(r, roots, self.weight)
            res, scale = sum(terms), 1.0 + sum(abs(t) for t in terms)
            if corrections is not None:
                res, scale = res + corrections[r - 1], scale + abs(corrections[r - 1])
            residuals.append(res)
            scales.append(scale)
        return residuals, scales

    def eigenvalue(self, u, roots) -> complex:
        """w_p at spectral point u, plus w^(i) in inhomogeneous mode."""
        value = eigenvalue_w(u, roots, self.hp)
        if self.tau is not None:
            value = value + _tau_at(u, roots, *self.tau) \
                * psi_factored(u, self.p, roots, self.hp)
        return value

    def closed_form(self, roots) -> tuple[list[complex], list[list[complex]]]:
        p = self.p
        x = [complex(v) for v in roots]
        weights = [(self.weight(v), self.weight(-v)) for v in x]
        sq = [v * v for v in x]
        inv = [[0j] * p for _ in range(p)]
        for r in range(p):
            for l in range(r):
                inv[r][l] = 1 / guard(sq[r] - sq[l], "residual kernel pole: x_r^2 = x_l^2")
                inv[l][r] = -inv[r][l]

        F = [0j] * p
        J = [[0j] * p for _ in range(p)]
        for r in range(p):
            row, inv_r = J[r], inv[r]
            for eps, (g, dg) in zip((1, -1), weights[r]):
                y = eps * x[r]
                prod, dlog_y = 1.0, 0j
                dlog = [0j] * p
                for l in range(p):
                    if l == r:
                        continue
                    q = 4 * (y - 1) * inv_r[l]
                    k = 1 - q
                    prod *= k
                    w = inv_r[l] / k
                    dlog_y += w * (2 * y * q - 4)
                    dlog[l] = -2 * x[l] * q * w
                t = g * prod
                F[r] += t
                row[r] += eps * (dg * prod + t * dlog_y)
                for l in range(p):
                    if l != r:
                        row[l] += t * dlog[l]
        if self.squares is not None:
            self._add_corrections(x, sq, inv, F, J)
        return F, J

    def _add_corrections(self, x, sq, inv, F, J):
        """Add U_r^(i) and its derivatives to F and J."""
        p = self.p
        coef, csq, zsq, rho2, a1sq, a3sq = self.squares
        psi, dlog_c, dlog_phi = 1.0, [], []
        for v, s in zip(x, sq):
            num = a1sq - rho2 * s
            den = guard(a3sq - rho2 * s, "residual kernel pole: a3^2 = rho^2 x^2")
            psi *= num / den
            dlog_phi.append(2 * rho2 * v * (1 / den - 1 / num))
            dlog_c.append(-2 * v / (csq - s))
        for r in range(p):
            xr, inv_r = x[r], inv[r]
            val, dlog_r = coef * psi, dlog_phi[r]
            for zs in zsq:
                val *= sq[r] - zs
                dlog_r += 2 * xr / (sq[r] - zs)
            for k in range(p):
                if k != r:
                    val *= (csq - sq[k]) * inv_r[k]
                    dlog_r -= 2 * xr * inv_r[k]
            F[r] += val
            row = J[r]
            row[r] += val * dlog_r
            for j in range(p):
                if j != r:
                    row[j] += val * (dlog_c[j] + 2 * x[j] * inv_r[j] + dlog_phi[j])


# --------------------------------------------------------------------------
# full action identity and the auxiliary spectral point

def pick_u_aux(system: BetheSystem, roots, seed: int = 0,
               u_aux: complex | None = None) -> tuple[complex, complex]:
    """(u, eigenvalue at u) for the first of u_aux (when given), U_AUX_DEFAULT
    and seeded draws at which system.eigenvalue keeps the pole margin."""
    def evaluate(u):
        return u, system.eigenvalue(u, roots)

    for u in (u_aux, U_AUX_DEFAULT):
        picked = None if u is None else within_margin(evaluate, u)
        if picked is not None:
            return picked
    return draw_until(np.random.default_rng(seed), lambda r: draw_complex(r, 1.5, 3.5),
                      evaluate)


def wv_action_residual(u, roots, hp: HeunParams, ctx: DynContext,
                       mode: str = HOMOGENEOUS) -> float:
    """Residual of the full W-action expansion on an (off-shell) Bethe vector.

    In homogeneous form the expansion keeps the explicit extension term;
    in inhomogeneous form (p = N) the extension is absorbed into the
    tau-corrected coefficients.
    """
    p = len(roots)
    rho = hp.rho
    W = build_W_parametric(hp, ctx)
    V, swapped, extended = _swapped_family(roots, u, hp.m_bar, ctx)
    inhomogeneous = mode == INHOMOGENEOUS
    w_i, u_i = inhomogeneous_terms(u, roots, hp) if inhomogeneous else (0, [0] * p)
    rhs = (eigenvalue_w(u, roots, hp) + w_i) * V
    for r in range(1, p + 1):
        coef = (unwanted_U(r, roots, hp) + u_i[r - 1]) \
            / (rho * (rho - 1) * guard(u * u - roots[r - 1] ** 2, "W action pole: u^2 = x_r^2"))
        rhs = rhs + coef * swapped[r - 1]
    if not inhomogeneous:
        rhs = rhs + psi_factored(u, p, roots, hp) * extended
    return vector_residual(W @ V, rhs)
