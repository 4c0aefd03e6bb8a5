"""The relation catalog's per-sample sweep, kept as the reference for the
two-stage one in heun_racah.dynamical.

Here each sample is drawn and both sides of its identity are evaluated at
once, inside the draw's pole margin, on dense operator builds: every
operator is the whole combination of I, X, Y, Z and {X,Y}, every product a
single one per sample, every norm np.linalg.norm of one slice.  The scalar
formulas come from the package, except tau, which is multiplied out here
factor by factor with one guard each.  PSI_FACTORED takes the package's
psi_residual, the backward residual.  verify_relation must give reports
byte-identical to this sweep's (tests/test_dynamical.py).
"""

import math

import numpy as np

from heun_racah.bethe import _tau_shared, f1_W, psi_residual, vacuum, vacuum_coeffs
from heun_racah.core import guard, residual_norm, vector_residual
from heun_racah.dynamical import (DEFAULT_TOLS, DEFINING, RelationId, RelationReport,
                                  draw_u_and_roots)
from heun_racah.errors import ParameterDomainError, RelationViolation
from heun_racah.heun import build_heun_params, check_same_problem, h1_scalar, h_coeffs
from heun_racah.racah import (coeff_f0, coeff_f1, coeff_g0, coeff_g1, coeff_k1, coeff_k2,
                              defining_residual)
from heun_racah.sampling import draw_complex, draw_until


# --------------------------------------------------------------------------
# dense operator families

def _family(u, m, ctx, terms, combine):
    """combine(*terms(u, m)) on the whole matrices; for lists, broadcast over
    one (k, 1, 1) column per term (one pair takes the scalar call)."""
    if not isinstance(u, list):
        return combine(*terms(u, m))
    rows = [terms(a, b) for a, b in zip(u, m, strict=True)]
    if len(rows) < 2:
        dim = ctx.rep.dim
        return combine(*rows[0])[None] if rows else np.empty((0, dim, dim), np.complex128)
    return combine(*np.array(rows, dtype=np.complex128).T[:, :, None, None])


def op_A(u, m, ctx):
    rho, rep = ctx.rho, ctx.rep

    def terms(u, m):
        den = guard(2 * m * rho - 1, "op_A pole: 2 m rho = 1")
        return coeff_g0(u, m, rep.params, rho), coeff_g1(u, m, rho), coeff_g1(-1, m, rho), den

    return _family(u, m, ctx, terms, lambda g0, g1x, g1y, den: (
        g0 * rep.I + g1x * rep.X + g1y * rep.Y + rep.Z + rho * rep.XY) / den)


def op_B(u, m, ctx):
    rep = ctx.rep
    return _family(
        u, m, ctx,
        lambda u, m: (coeff_f0(u, m, rep.params), coeff_f1(u, m), coeff_f1(-1, m), 2 * m),
        lambda f0, f1x, f1y, m2: f0 * rep.I + f1x * rep.X + f1y * rep.Y + m2 * rep.Z + rep.XY)


def op_C(u, m, ctx):
    shift = 1 / ctx.rho
    return op_B(u, [-x + shift for x in m] if isinstance(m, list) else -m + shift, ctx)


# --------------------------------------------------------------------------
# one sample's identities

def _apply(F, V):
    return (F @ V[:, :, None])[:, :, 0]


def _chain(factors, v):
    for f in reversed(factors):
        v = f @ v
    return v


def abv_residual(u, m, roots, ctx):
    p = len(roots)
    ms = [m - i + 1 for i in range(1, p + 1)]
    ops = op_B(list(roots) + [u] * p, ms + ms, ctx).reshape(2, p, ctx.rep.dim, ctx.rep.dim)
    e0 = vacuum(ctx.rep.params.N)
    lhs = op_A(u, m, ctx) @ _chain(ops[0], e0)
    slots = [0] + [r for _ in (1, -1) for r in range(1, p + 1)]
    args = [u] + [eps * roots[r - 1] for eps in (1, -1) for r in range(1, p + 1)]
    V = _apply(op_A(args, [m - p] * len(args), ctx), np.array([e0]))
    for i in range(p, 0, -1):
        V = _apply(ops[[int(s == i) for s in slots], i - 1], V)
    prod_k1 = np.prod([coeff_k1(u, x) for x in roots]) if p else 1.0
    rhs = prod_k1 * V[0]
    for k, (r, xr) in enumerate(zip(slots[1:], args[1:]), start=1):
        coef = coeff_k2(u, xr, m, ctx.rho)
        coef *= np.prod([coeff_k1(xr, roots[l - 1])
                         for l in range(1, p + 1) if l != r]) if p > 1 else 1.0
        rhs = rhs + coef * V[k]
    return vector_residual(lhs, rhs)


def _tau_at(v, others, pref, c, zeros):
    tau, csq, vsq = pref, c ** 2, v * v
    for x in others:
        tau *= (csq - x * x) / guard(vsq - x * x, "tau pole: v^2 = x_k^2")
    for z in zeros:
        tau *= vsq - z * z
    return tau


def _swapped_family(roots, u, m_top, ctx):
    p = len(roots)
    factors = op_B(list(roots), [m_top - i + 1 for i in range(1, p + 1)], ctx)
    tails = [vacuum(ctx.rep.params.N)]
    for f in reversed(factors):
        tails.append(f @ tails[-1])
    V = _apply(op_B([u] * (p + 1), [m_top - j + 1 for j in range(1, p + 2)], ctx),
               np.array([tails[max(p - j, 0)] for j in range(1, p + 2)]))
    for j in range(p - 1, -1, -1):
        V[j + 1:] = _apply(factors[j], V[j + 1:])
    return tails[p], V[:p], V[p]


def maba_backward_residual(u, roots, hp, ctx):
    check_same_problem(hp, ctx)
    N = hp.rp.N
    if len(roots) != N:
        raise ParameterDomainError(f"reduction needs exactly N={N} roots, got {len(roots)}")
    tau = _tau_shared(hp)
    tau_u = _tau_at(u, roots, *tau)
    tau_list = [_tau_at(x, [*roots[:j], *roots[j + 1:]], *tau) for j, x in enumerate(roots)]
    c = tau[1]
    base, swapped, lhs = _swapped_family(roots, u, hp.m_bar, ctx)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = tau_u * base
        mag = abs(tau_u) * float(np.linalg.norm(base))
        for j, (x, v) in enumerate(zip(roots, swapped)):
            coef = (c * c - u * u) / guard(x * x - u * u, "reduction pole: x_j^2 = u^2") \
                * tau_list[j]
            rhs = rhs + coef * v
            mag += abs(coef) * float(np.linalg.norm(v))
        err = float(np.linalg.norm(lhs - rhs))
        lnorm = float(np.linalg.norm(lhs))
    return err / max(1.0, lnorm, mag)


def wa_residual(u1, u2, hp, ctx):
    check_same_problem(hp, ctx)
    rho, s1, s2 = hp.rho, hp.s1, hp.s2
    X, Y = ctx.rep.X, ctx.rep.Y
    W = (-2 * rho / (rho - 1) * (X @ Y) + s1 * X
         + (s2 * s2 - 1) / (2 * rho * (rho - 1)) * Y + ctx.rep.Z)
    A = op_A([u1, -u1, u2, -u2], [hp.m_bar] * 4, ctx)
    R1, R2 = (h1p * A[k] + h1m * A[k + 1] + h2 * ctx.rep.I
              for k, (h1p, h1m, h2) in ((0, h_coeffs(u1, hp)), (2, h_coeffs(u2, hp))))
    return max(residual_norm(R1, W), residual_norm(R1, R2))


# --------------------------------------------------------------------------
# the samplers: (rng, ctx) -> (residual, tuple)

def _draw_uvm(rng):
    return draw_complex(rng), draw_complex(rng), draw_complex(rng)


def _draw_heun(rng, ctx):
    return build_heun_params(ctx.rho, draw_complex(rng), draw_complex(rng), ctx.rep.params)


def _sample_bb(rng, ctx):
    u, v, m = _draw_uvm(rng)
    B_u1, B_v, B_v1, B_u = op_B([u, v, v, u], [m + 1, m, m + 1, m], ctx)
    return residual_norm(B_u1 @ B_v, B_v1 @ B_u), {"u": u, "v": v, "m": m}


def _sample_ab(rng, ctx):
    def evaluate(t):
        u, v, m = t
        A_um, A_u, A_v, A_mv = op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx)
        B_v, B_u = op_B([v, u], [m, m], ctx)
        rhs = (coeff_k1(u, v) * (B_v @ A_u)
               + B_u @ (coeff_k2(u, v, m, ctx.rho) * A_v + coeff_k2(u, -v, m, ctx.rho) * A_mv))
        return residual_norm(A_um @ B_v, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _sample_ca(rng, ctx):
    def evaluate(t):
        u, v, m = t
        A_um, A_u, A_v, A_mv = op_A([u, u, v, -v], [m, m - 1, m - 1, m - 1], ctx)
        C_v, C_u = op_C([v, u], [m, m], ctx)
        rhs = (coeff_k1(u, v) * (A_u @ C_v)
               + (coeff_k2(u, v, m, ctx.rho) * A_v + coeff_k2(u, -v, m, ctx.rho) * A_mv) @ C_u)
        return residual_norm(C_v @ A_um, rhs), {"u": u, "v": v, "m": m}

    return draw_until(rng, _draw_uvm, evaluate)


def _sample_wa(rng, ctx):
    def evaluate(t):
        hp, u1, u2 = t
        return wa_residual(u1, u2, hp, ctx), {"u1": u1, "u2": u2, "s1": hp.s1, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_complex(r), draw_complex(r)), evaluate)


def _sample_vacuum(rng, ctx):
    def evaluate(t):
        u, m = t
        vc = vacuum_coeffs(u, m, ctx.rep.params, ctx.rho)
        e0 = vacuum(ctx.rep.params.N)
        lhs = op_A(u, m, ctx) @ e0
        rhs = vc.xi * e0 + vc.zeta * (op_B(u, m, ctx) @ e0)
        return vector_residual(lhs, rhs), {"u": u, "m": m}

    return draw_until(rng, lambda r: (draw_complex(r), draw_complex(r)), evaluate)


def _sample_abv(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        u, m, roots = t
        return abv_residual(u, m, roots, ctx), {"u": u, "m": m, "p": p, "roots": roots}

    return draw_until(
        rng, lambda r: (draw_complex(r), draw_complex(r), [draw_complex(r) for _ in range(p)]),
        evaluate)


def _sample_combination(rng, ctx):
    rho = ctx.rho

    def evaluate(t):
        hp, u, v = t
        lhs = (h1_scalar(u, hp) * coeff_k2(u, v, hp.m_bar, rho)
               + h1_scalar(-u, hp) * coeff_k2(-u, v, hp.m_bar, rho))
        rhs = f1_W(v, hp) / (rho * (rho - 1)
                             * guard(u * u - v * v, "combination identity pole: u^2 = v^2"))
        return abs(lhs - rhs) / max(1.0, abs(lhs)), {"u": u, "v": v, "s1": hp.s1, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_complex(r), draw_complex(r)), evaluate)


def _sample_psi(rng, ctx):
    p = int(rng.integers(0, 4))

    def evaluate(t):
        hp, (u, roots) = t
        return psi_residual(u, p, roots, hp), {"u": u, "p": p, "roots": roots,
                                               "s1": hp.s1, "s2": hp.s2}

    return draw_until(rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, p)), evaluate)


def _sample_maba(rng, ctx):
    def evaluate(t):
        hp, (u, roots) = t
        return maba_backward_residual(u, roots, hp, ctx), {"u": u, "roots": roots, "s2": hp.s2}

    return draw_until(
        rng, lambda r: (_draw_heun(r, ctx), draw_u_and_roots(r, ctx.rep.params.N)), evaluate)


SAMPLERS = {
    **{relation: (lambda rng, ctx, relation=relation:
                  (defining_residual(ctx.rep, relation.value), None))
       for relation in DEFINING},
    RelationId.BB_EXCHANGE: _sample_bb,
    RelationId.AB_EXCHANGE: _sample_ab,
    RelationId.CA_EXCHANGE: _sample_ca,
    RelationId.WA_IDENTITY: _sample_wa,
    RelationId.VACUUM_ACTION: _sample_vacuum,
    RelationId.ABV_ACTION: _sample_abv,
    RelationId.COMBINATION_IDENTITY: _sample_combination,
    RelationId.PSI_FACTORED: _sample_psi,
    RelationId.MABA_REDUCTION: _sample_maba,
}


def verify_relation(relation, ctx, samples=50, tol=None, seed=0):
    """The per-sample sweep: sample k is drawn and evaluated before sample k + 1."""
    relation = RelationId(relation)
    if tol is None:
        tol = DEFAULT_TOLS[relation]
    rng = np.random.default_rng(seed)
    worst, worst_tuple, nonfinite = 0.0, None, 0
    for _ in range(1 if relation in DEFINING else samples):
        res, tup = SAMPLERS[relation](rng, ctx)
        nonfinite += not math.isfinite(res)
        if res > worst or tup is None:
            worst, worst_tuple = res, tup
    if worst > tol:
        raise RelationViolation(relation.value, worst, tol, worst_tuple)
    return RelationReport(relation.value, samples, seed, worst, worst_tuple, nonfinite)
