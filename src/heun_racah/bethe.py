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

import math
from dataclasses import dataclass, field

import numpy as np

from .core import apply_rows, guard, guard_each, norms, on_pole, stack_residuals
from .errors import ModeError, ParameterDomainError
from .heun import HeunParams, check_same_problem, h1_scalar, h2_scalar, integer_p_bar
from .racah import DynContext, RacahParams, a_terms, coeff_k1, coeff_k2, op_B, stack_A
from .sampling import draw_complex, draw_until, within_margin
from .serialize import scalars_to_pairs

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


@dataclass(frozen=True, slots=True)
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
        return scalars_to_pairs({
            "mode": self.mode,
            "roots": self.roots,
            "u_aux": self.u_aux,
            "eigenvalue": self.eigenvalue,
            "bethe_residuals": self.bethe_residuals,
            "eigen_residual": self.eigen_residual,
        })


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


def _root_factors(roots, m_top, ctx: DynContext) -> np.ndarray:
    """The creation factors B(x_1, m_top) .. B(x_p, m_top - p + 1), as one stack."""
    return op_B(list(roots), [m_top - i + 1 for i in range(1, len(roots) + 1)], ctx)


def _chain(factors, v) -> np.ndarray:
    """factors[0] @ factors[1] @ .. @ v, applied right to left."""
    for f in reversed(factors):
        v = f @ v
    return v


def bethe_vector(roots, m_top, ctx: DynContext) -> np.ndarray:
    """Apply B(x_1, m_top) .. B(x_p, m_top - p + 1) to the vacuum."""
    return _chain(_root_factors(roots, m_top, ctx), vacuum(ctx.rep.params.N))


def _swapped_families(roots, us, m_tops, ctx: DynContext):
    """For k samples (roots (k, p), u, m_top): the bethe_vector of roots, a
    (p, dim) stack of it with x_j -> u for each j, and of roots + [u], each
    stacked over the samples.  Each B factor is built once, in one stack;
    the suffixes are shared and the prefixes applied level by level, factor
    j to every row needing it, and each product rounds as the single one."""
    k, p, dim = len(roots), len(roots[0]), ctx.rep.dim
    # per sample: the root factors, then u in slots 1 .. p + 1
    ops = op_B([x for xs, u in zip(roots, us) for x in (*xs, *[u] * (p + 1))],
               [m - i + 1 for m in m_tops for i in (*range(1, p + 1), *range(1, p + 2))],
               ctx).reshape(k, 2 * p + 1, dim, dim)
    factors = ops[:, :p]
    tails = [np.tile(vacuum(ctx.rep.params.N), (k, 1))]  # tails[l]: the last l factors on |0>
    for j in range(p - 1, -1, -1):
        tails.append(apply_rows(factors[:, j], tails[-1]))
    # row j - 1 holds u in slot j, before x_{j+1} .. x_p; j = p + 1 appends u
    V = apply_rows(ops[:, p:], np.stack([tails[max(p - j, 0)] for j in range(1, p + 2)], 1))
    for j in range(p - 1, -1, -1):
        V[:, j + 1:] = apply_rows(factors[:, j, None], V[:, j + 1:])
    return tails[p], V[:, :p], V[:, p]


def abv_terms(u, m, roots, ctx: DynContext) -> tuple:
    """The guarded scalars of the A-on-Bethe-vector expansion, as the row
    that abv_chunk takes: (u, m, roots, the a_terms rows of A(u, m) and
    of A(y, m - p) for y = u, x_1 .. x_p, -x_1 .. -x_p, and the coefficients
    of those 2p + 1 terms: the k1 product of the wanted term, then k2 times
    the k1 product of each swapped one)."""
    p = len(roots)
    args = [u] + [eps * x for eps in (1, -1) for x in roots]
    rows = [a_terms(u, m, ctx)] + [a_terms(y, m - p, ctx) for y in args]
    coefs = [math.prod([coeff_k1(u, x) for x in roots]) if p else 1.0]
    for t, y in enumerate(args[1:]):
        coef = coeff_k2(u, y, m, ctx.rho)
        coef *= math.prod([coeff_k1(y, x) for l, x in enumerate(roots)
                           if l != t % p]) if p > 1 else 1.0
        coefs.append(coef)
    return u, m, list(roots), rows, coefs


def _abv_sides(terms, ctx: DynContext) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) stacks of A(u, m) on the Bethe vector and of its expansion,
    for abv_terms rows with one root count p.  The swapped factor in slot r
    is B(u, m - r + 1), the index the Bethe vector gives slot r; the 2p + 1
    chains of the expansion run level by level."""
    k, p, dim = len(terms), len(terms[0][2]), ctx.rep.dim
    ops = op_B([x for u, _, roots, *_ in terms for x in (*roots, *[u] * p)],
               [m - i + 1 for _, m, *_ in terms for i in (*range(1, p + 1), *range(1, p + 1))],
               ctx).reshape(k, 2, p, dim, dim)
    A = stack_A([row for t in terms for row in t[3]], ctx).reshape(k, 2 * p + 2, dim, dim)
    e0 = vacuum(ctx.rep.params.N)[None]
    lhs = e0
    for i in range(p, 0, -1):
        lhs = apply_rows(ops[:, 0, i - 1], lhs)
    lhs = apply_rows(A[:, 0], lhs)
    # term 0 is A(u, m - p)|0> under the root factors; term (eps, r) is
    # A(eps x_r, m - p)|0> under the root factors with u in slot r
    slots = [0] + [r for _ in (1, -1) for r in range(1, p + 1)]
    V = apply_rows(A[:, 1:], e0)
    for i in range(p, 0, -1):
        V = apply_rows(ops[:, [int(s == i) for s in slots], i - 1], V)
    coefs = np.array([t[4] for t in terms], dtype=np.complex128)
    rhs = coefs[:, :1] * V[:, 0]
    for j in range(1, 2 * p + 1):
        rhs = rhs + coefs[:, j:j + 1] * V[:, j]
    return lhs, rhs


def abv_chunk(terms, ctx: DynContext) -> list[float]:
    """vector_residual of A(u, m) on the Bethe vector against its expansion,
    for each abv_terms row; the rows of one root count share one pass."""
    out = [0.0] * len(terms)
    for p in sorted({len(t[2]) for t in terms}):
        index = [i for i, t in enumerate(terms) if len(t[2]) == p]
        for i, res in zip(index, stack_residuals(*_abv_sides([terms[i] for i in index], ctx))):
            out[i] = res
    return out


def abv_rhs(u, m, roots, ctx: DynContext) -> np.ndarray:
    """Right side of the A-on-Bethe-vector expansion, assembled directly."""
    return _abv_sides([abv_terms(u, m, roots, ctx)], ctx)[1][0]


def abv_residual(u, m, roots, ctx: DynContext) -> float:
    """Residual of A(u, m) on the Bethe vector against abv_rhs; the B
    factors are built once for both sides."""
    return abv_chunk([abv_terms(u, m, roots, ctx)], ctx)[0]


def f1_W(v, hp: HeunParams) -> complex:
    """(2 rho (rho-1) s1 - (rho v - rho + s2 + 1)(rho v - rho + s2 - 1)) (1 - 1/v)."""
    rho, s1, s2 = hp.rho, hp.s1, hp.s2
    core = rho * v - rho + s2
    return (2 * rho * (rho - 1) * s1 - (core + 1) * (core - 1)) \
        * (1 - 1 / guard(v, "f1_W pole: v = 0"))


def _times_k1(out, y, roots, skip=None):
    """out * k1(y, x_1) .. k1(y, x_p), leaving out root index skip (from 0),
    multiplied in one at a time in root order."""
    for l, x in enumerate(roots):
        if l != skip:
            out *= coeff_k1(y, x)
    return out


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
        acc += _times_k1(h1_scalar(su, hp) * vacuum_coeffs(su, hp.m_bar - p, hp.rp, hp.rho).xi,
                         su, roots)
    return acc


class SwapWeight:
    """g(v) = f1_W(v) xi(v, m), the weight of the swapped-root summands of U_r.

    The removable factor (v - 1) of f1_W is cancelled against the xi pole:

        g(v) = P(v) Q(v) / (8 v (delta + gamma - 2m + 2 - v)),
        P(v) = 2 rho (rho-1) s1 - (rho v - rho + s2 + 1)(rho v - rho + s2 - 1),
        Q(v) = ((v+N)^2 - (beta-gamma+delta)^2)
               (beta^2 - (v-N-2-gamma-delta)^2) (delta + gamma - 2m + v),

    so g is finite at v = +-1 and its only poles are the two in the
    denominator.  Calling it returns (g(v), g'(v)), guarded at both poles;
    values(v) gives the pair for an array of points and poles(v) says where
    the guards would raise.
    """

    def __init__(self, hp: HeunParams, m):
        rp = hp.rp
        g, d, bt, N = rp.gamma, rp.delta, rp.beta, rp.N
        rho = hp.rho
        self.rho = rho
        self.p0 = 2 * rho * (rho - 1) * hp.s1
        self.core0 = hp.s2 - rho
        self.N = N
        c1 = bt - g + d
        self.c1sq = c1 ** 2
        self.btsq = bt ** 2
        self.c2 = N + 2 + g + d
        self.c3 = d + g - 2 * m
        # the zeros of Q, which are those of xi(v, m)
        self.zeros = (-N + c1, -N - c1, self.c2 + bt, self.c2 - bt, 2 * m - g - d)

    def denominators(self, v):
        """The two factors of g's denominator besides 8."""
        return v, self.c3 + 2 - v

    def __call__(self, v) -> tuple[complex, complex]:
        d0, d1 = self.denominators(v)
        guard(d0, "swap weight pole: v = 0")
        guard(d1, "swap weight pole: delta+gamma-2m+2 = v")
        return self.values(v)

    def poles(self, v) -> np.ndarray:
        """Where the root sets of an (S, p) array v meet the guards of __call__ at +-v."""
        d0, d1 = self.denominators(np.array((v, -v)))
        return (on_pole(d0) | on_pole(d1)).any((0, -1))

    def values(self, v):
        """(g(v), g'(v)) without the guards, for a point or an array of points."""
        d0, d1 = self.denominators(v)
        core = self.rho * v + self.core0
        vn, vs = v + self.N, v - self.c2
        # numerator factors and their derivatives, combined by the product rule
        f1, f2, f3, f4 = (self.p0 - (core + 1) * (core - 1), vn * vn - self.c1sq,
                          self.btsq - vs * vs, self.c3 + v)
        f12, f34 = f1 * f2, f3 * f4
        num = f12 * f34
        dnum = (-2 * self.rho * core * f2 + 2 * vn * f1) * f34 \
            + f12 * (f3 - 2 * vs * f4)
        scale = 1 / (8 * d0 * d1)
        return num * scale, (dnum - num / d0 + num / d1) * scale


def _unwanted_summands(r: int, roots, weight: SwapWeight) -> list[complex]:
    """The two swapped-root summands of U_r; weight is g at m_bar - p."""
    p = len(roots)
    if not 1 <= r <= p:
        raise ParameterDomainError(f"root index r={r} outside 1..{p}")
    return [_times_k1(weight(xr)[0], xr, roots, skip=r - 1)
            for xr in (eps * roots[r - 1] for eps in (1, -1))]


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


def psi_summed(u, p: int, roots, hp: HeunParams) -> tuple[complex, float]:
    """The unfactored double sum over the vacuum-recursion coefficients, and
    the sum of the magnitudes |h1(+-u)| |term| of its summands."""
    rho, m_bar = hp.rho, hp.m_bar
    out, mag = 0.0 + 0.0j, 0.0
    for nu in (1, -1):
        su = nu * u
        term = _times_k1(vacuum_coeffs(su, m_bar - p, hp.rp, rho).zeta, su, roots)
        inner, size = term, abs(term)
        for eps in (1, -1):
            for t in range(p):
                xt = eps * roots[t]
                term = _times_k1(vacuum_coeffs(xt, m_bar - p, hp.rp, rho).zeta
                                 * coeff_k2(su, xt, m_bar, rho), xt, roots, skip=t)
                inner += term
                size += abs(term)
        h1 = h1_scalar(su, hp)
        out += h1 * inner
        mag += abs(h1) * size
    return out, mag


def psi(u, p: int, roots, hp: HeunParams) -> tuple[complex, complex]:
    """(factored, summed) evaluations of the extension-term coefficient.

    The two must agree; the factored form is the one whose prefactor zero
    defines the homogeneous root counts p_bar.
    """
    _check_psi_roots(p, roots)
    return psi_factored(u, p, roots, hp), psi_summed(u, p, roots, hp)[0]


def psi_residual(u, p: int, roots, hp: HeunParams) -> float:
    """Backward residual of the dual forms of psi: |factored - summed| over
    max(1, |factored|, the summed form's summand magnitudes).  Near a root
    the summands can dwarf the result by orders of magnitude, and their
    rounding with them; the scale measures whether the identity holds
    rather than how violently the sum cancels."""
    _check_psi_roots(p, roots)
    factored = psi_factored(u, p, roots, hp)
    summed, mag = psi_summed(u, p, roots, hp)
    return abs(factored - summed) / max(1.0, abs(factored), mag)


def _check_psi_roots(p: int, roots) -> None:
    if len(roots) != p:
        raise ParameterDomainError(f"psi expects {p} roots, got {len(roots)}")


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
    return _tau_product(v * v, [x * x for x in others], pref, c ** 2, [z * z for z in zeros])


def _tau_product(vsq, sq, pref, csq, zsq) -> complex:
    """_tau_at from the squares v^2, [x^2 ..], c^2 and [z^2 ..]; its
    denominators meet the pole margin in one check."""
    dens = [vsq - s for s in sq]
    guard_each(dens, "tau pole: v^2 = x_k^2")
    tau = pref
    for s, den in zip(sq, dens):
        tau *= (csq - s) / den
    for z in zsq:
        tau *= vsq - z
    return tau


def _tau_roots(roots, tau) -> list[complex]:
    """[tau_1..tau_N]; no spectral point enters.  Each square is taken once."""
    pref, c, zeros = tau
    sq, csq, zsq = [x * x for x in roots], c ** 2, [z * z for z in zeros]
    return [_tau_product(s, sq[:j] + sq[j + 1:], pref, csq, zsq) for j, s in enumerate(sq)]


def maba_reduce(u, roots, hp: HeunParams) -> tuple[complex, list[complex]]:
    """Coefficients (tau_u, [tau_1..tau_N]) expressing the (N+1)-root Bethe
    vector |x_1..x_N, u; m_bar> over the N-root vectors.

    Proven by direct computation for N <= 4; conjectural above.
    """
    return _reduction(u, roots, hp)[:2]


def _reduction(u, roots, hp: HeunParams) -> tuple[complex, list[complex], complex]:
    """maba_reduce's (tau_u, [tau_1..tau_N]) and the constant c of _tau_shared."""
    N = hp.rp.N
    if len(roots) != N:
        raise ParameterDomainError(f"reduction needs exactly N={N} roots, got {len(roots)}")
    tau = _tau_shared(hp)
    return _tau_at(u, roots, *tau), _tau_roots(roots, tau), tau[1]


def maba_terms(u, roots, hp: HeunParams, ctx: DynContext) -> tuple:
    """The guarded scalars of the reduction identity, as the row that
    maba_chunk takes: (u, roots, m_bar, tau_u, the coefficient of each
    swapped vector, (c^2 - u^2) / (x_j^2 - u^2) tau_j)."""
    check_same_problem(hp, ctx)
    tau_u, tau_list, c = _reduction(u, roots, hp)
    coefs = [(c * c - u * u) / guard(x * x - u * u, "reduction pole: x_j^2 = u^2") * tau
             for x, tau in zip(roots, tau_list)]
    return u, list(roots), hp.m_bar, tau_u, coefs


def maba_chunk(terms, ctx: DynContext) -> list[tuple[float, float]]:
    """(plain, backward) residuals of the (N+1)-root reduction identity for
    each maba_terms row, the Bethe vectors of all rows in one pass.

    plain normalizes by the left side only; backward also normalizes by the
    magnitudes of the tau-weighted summands, so it measures whether the
    identity itself holds rather than how violently the right side cancels
    (the summands can exceed the result by many orders for larger N).
    A norm that overflows comes out inf or NaN, without a warning; a backward residual is
    at most 2 (triangle inequality), so a non-finite one is an overflow and reads NaN.
    """
    k = len(terms)
    base, swapped, lhs = _swapped_families([t[1] for t in terms], [t[0] for t in terms],
                                           [t[2] for t in terms], ctx)
    coefs = np.array([[t[3], *t[4]] for t in terms], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = coefs[:, :1] * base
        for j in range(swapped.shape[1]):
            rhs = rhs + coefs[:, j + 1:j + 2] * swapped[:, j]
        err, lnorm = norms(lhs - rhs).tolist(), norms(lhs).tolist()
        vectors = np.concatenate([base[:, None], swapped], 1)  # (k, N + 1, dim)
        vnorm = norms(vectors.reshape(-1, vectors.shape[-1])).reshape(k, -1).tolist()
    out = []
    for t, e, l, vn in zip(terms, err, lnorm, vnorm):
        mag = abs(t[3]) * vn[0]
        for coef, n in zip(t[4], vn[1:]):
            mag += abs(coef) * n
        backward = e / max(1.0, l, mag)
        out.append((e / max(1.0, l), backward if math.isfinite(backward) else math.nan))
    return out


def maba_identity_residuals(u, roots, hp: HeunParams, ctx: DynContext) -> tuple[float, float]:
    """(plain, backward) residuals of the (N+1)-root reduction identity at
    one sample (u, roots): maba_chunk of its maba_terms row."""
    return maba_chunk([maba_terms(u, roots, hp, ctx)], ctx)[0]


def _tau_corrections(tau_list, roots, brackets, rho) -> list[complex]:
    """[U_1^(i)..U_N^(i)] from [tau_1..tau_N] and the psi brackets
    (lambda, a1, a3); no spectral point enters."""
    lam, a1, a3 = brackets
    prod = _times_phi(1.0 + 0.0j, roots, rho, a1, a3)
    return [t * rho * lam * prod for t in tau_list]


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
    U_{r+1}^(i) in inhomogeneous mode, and their cancellation scales, for
    certification.  closed_form(roots) gives, for a stack of root sets, F
    with J[r][j] = dF[r]/dx_j in one pass, for seeding and Newton.  U_r^(i)
    does not depend on the auxiliary spectral point, so neither takes one.

    Each summand is a product of rational factors, so the Jacobian follows
    from their logarithmic derivatives.  With y = +-x_r and d_rl = x_r^2 - x_l^2,

        k1(y, x_l) = 1 - 4 (y - 1) / d_rl,
        U_r^(i) = C Z(x_r) prod_{k != r} (c^2 - x_k^2) / d_rk prod_k phi(x_k),

    with C = tau prefactor * rho * lambda, Z(x) = prod_z (x^2 - z^2) over the
    tau zeros and phi(x) = (a1^2 - rho^2 x^2) / (a3^2 - rho^2 x^2).
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
            # the closed form's constants: C, c^2, rho^2, a1^2, a3^2, the zeros z
            squares = (pref * rho * lam, cpref * cpref, rho * rho, a1 * a1, a3 * a3,
                       np.array(zeros, dtype=np.complex128))
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

    def closed_form(self, roots, scales=False) -> tuple[np.ndarray, ...]:
        """F (S, p), J (S, p, p) and a pole mask (S,) for an (S, p) stack of root
        sets, and with scales=True reference's scales (S, p), from the summands.

        A lane is masked where its pass meets a pole: a guarded denominator
        below the floor of core.guard, read at call time, or a divisor that
        is exactly zero, which reference lets through (a k1 factor and, in
        inhomogeneous mode, a1^2 - rho^2 x^2, c^2 - x^2 or x^2 - z^2).  A
        masked lane's F and J are meaningless; numpy warnings are silenced.
        """
        x = np.asarray(roots, dtype=np.complex128)
        S, p = x.shape
        with np.errstate(all="ignore"):
            sq = x * x
            d = sq[:, :, None] - sq[:, None, :]  # d[s, r, l] = x_r^2 - x_l^2
            d.reshape(S, p * p)[:, ::p + 1] = np.inf  # no pole at l = r, where 1 / d = 0
            inv = 1 / d
            y = np.array([x, -x])  # y[e, s, r] = eps x_r for eps = +1, -1
            g, dg = self.weight.values(y)
            q = (4 * (y - 1))[..., None] * inv  # 1 - k1(y, x_l), zero at l = r
            k = 1 - q
            w = inv / k
            prod = k.prod(-1)
            t = g * prod
            dlog_y = (w * (2 * y[..., None] * q - 4)).sum(-1)
            m2x = -2 * x
            dlog = m2x[:, None, :] * q * w
            F = t[0] + t[1]
            J = t[0][..., None] * dlog[0] + t[1][..., None] * dlog[1]
            own = dg * prod + t * dlog_y
            J.reshape(S, p * p)[:, ::p + 1] += own[0] - own[1]
            pole = self.weight.poles(x) | on_pole(d).any((1, 2)) | (k == 0).any((0, 2, 3))
            val = 0 if self.squares is None else self._add_corrections(x, sq, m2x, inv, F, J, pole)
            # reference's scales: 1 + |t+| + |t-| (+ |U_r^(i)|)
            return (F, J, pole, 1.0 + np.abs(t).sum(0) + np.abs(val)) if scales else (F, J, pole)

    def _add_corrections(self, x, sq, m2x, inv, F, J, pole):
        """Add U_r^(i) and its derivatives to F and J in place, mark where
        they meet a pole in pole, and return them; for the stack of
        closed_form, inside its silenced warnings."""
        S, p = x.shape
        coef, csq, rho2, a1sq, a3sq, z = self.squares
        # den and cs vanish where the swap weight has its pole: c = a3 / rho = c3 + 2
        r2sq = rho2 * sq
        num = a1sq - r2sq
        den = a3sq - r2sq
        cs = csq - sq
        zd = (x[..., None] - z) * (x[..., None] + z)  # x_r^2 - z^2, exactly 0 at x_r = +-z
        psi = (num / den).prod(-1)
        dlog_phi = 2 * rho2 * x * (1 / den - 1 / num)
        dlog_c = m2x / cs
        factors = cs[:, None, :] * inv
        factors.reshape(S, p * p)[:, ::p + 1] = 1
        val = coef * psi[:, None] * zd.prod(-1) * factors.prod(-1)
        tx = 2 * x
        dlog_r = dlog_phi + (tx[..., None] / zd).sum(-1) - (tx[..., None] * inv).sum(-1)
        dJ = val[..., None] * (dlog_c[:, None, :] + tx[:, None, :] * inv + dlog_phi[:, None, :])
        dJ.reshape(S, p * p)[:, ::p + 1] = val * dlog_r
        F += val
        J += dJ
        pole |= (on_pole(den) | (num == 0) | (cs == 0)).any(-1) | (zd == 0).any((1, 2))
        return val


# --------------------------------------------------------------------------
# the auxiliary spectral point

def pick_u_aux(system: BetheSystem, roots, seed: int = 0) -> tuple[complex, complex]:
    """(u, eigenvalue at u) for the first of U_AUX_DEFAULT and seeded draws
    at which system.eigenvalue keeps the pole margin."""
    def evaluate(u):
        return u, system.eigenvalue(u, roots)

    picked = within_margin(evaluate, U_AUX_DEFAULT)
    if picked is not None:
        return picked
    return draw_until(np.random.default_rng(seed), lambda r: draw_complex(r, 1.5, 3.5),
                      evaluate)
